"""The sufficiency verifiers' worst values against an all-orders oracle.

`match-sufficient` and `trans-sufficient` compute, per supported (index,
configuration), the least value any arrival order leaves matched at the
supported element's vertices or node. The oracle below replays every order
of the live elements, one configuration at a time; it is exponential in n
and serves only as the reference.
"""

import json
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from sspilab import analysis
from sspilab.analysis import (
    _match_worst_values,
    _trans_worst_values,
    verify_lemma,
)
from sspilab.cli import main
from sspilab.core import CapExceededError, point_mass, trial_rng
from sspilab.exact import ConfigEnsemble, exact_table
from sspilab.feasibility import GeneralMatching
from sspilab.generators import random_instance
from sspilab.harness import WORKERS_ENV, estimate_ratio
from sspilab.instances import Instance, instance_to_document

from conftest import make_realizations


def all_orders_match_worst(ens, support):
    """Per supported (j, c), the minimum over every order of the live edges
    of the first-come values matched at e_j's two endpoints, summed exactly
    as Fractions; inf elsewhere."""
    edges = ens.structure.edges
    live_flags = ens.matching_exceeds()
    xvals = ens.w_val[ens.ridx]
    worst = np.full(support.shape, np.inf, dtype=object)
    for c in range(ens.num_configs):
        sup_j = np.flatnonzero(support[:, c]).tolist()
        if not sup_j:
            continue
        xv = xvals[:, c].tolist()
        live = [e for e in range(ens.n) if live_flags[e, c]]
        reached = {j: set() for j in sup_j}  # (value at u, value at v) pairs
        for perm in permutations(live):
            val_at = [0.0] * ens.structure.vertex_count
            matched = 0
            for e in perm:
                u, v = edges[e]
                bits = (1 << u) | (1 << v)
                if not matched & bits:
                    matched |= bits
                    val_at[u] = val_at[v] = xv[e]
            for j in sup_j:
                u, v = edges[ens.elem[j]]
                reached[j].add((val_at[u], val_at[v]))
        for j in sup_j:
            worst[j, c] = min(Fraction(a) + Fraction(b) for a, b in reached[j])
    return worst


def all_orders_trans_worst(ens, support, cand):
    """Per supported (j, c), the minimum over every order of the live left
    nodes of the first-come reward matched at e_j's candidate node."""
    targets = ens.transversal_targets
    xvals = ens.w_val[ens.ridx]
    worst = np.full(support.shape, np.inf)
    for c in range(ens.num_configs):
        sup_j = np.flatnonzero(support[:, c]).tolist()
        if not sup_j:
            continue
        tg = targets[:, c].tolist()
        xv = xvals[:, c].tolist()
        live = [l for l in range(ens.n) if tg[l] >= 0]
        for perm in permutations(live):
            got: dict[int, float] = {}
            for l in perm:
                got.setdefault(tg[l], xv[l])
            for j in sup_j:
                r = int(cand[j, c])
                worst[j, c] = min(worst[j, c], got.get(r, 0.0))
    return worst


def _instances(kind, count, rng):
    """Random instances with n <= 7; every eighth one all tied."""
    for i in range(count):
        inst = random_instance(kind, int(rng.integers(1, 8)), rng)
        if i % 8 == 0:
            tied = {e: point_mass(3.0) for e in range(inst.ground_size)}
            inst = Instance(inst.name + "-tied", inst.structure, tied)
        yield inst, inst.draw_realizations(trial_rng(i, 0))


@pytest.mark.parametrize("kind, lemma", [("matching", "match-sufficient"),
                                         ("transversal", "trans-sufficient")])
def test_worst_values_equal_all_orders_oracle(kind, lemma):
    rng = np.random.default_rng(2024)
    cells = 0
    for inst, reals in _instances(kind, 320, rng):
        ens = ConfigEnsemble(inst.structure, reals)
        if kind == "matching":
            support = ens.support_matching()
            worst = _match_worst_values(ens, support)
            scale = exact_table(ens.w_val, 2)[1]
            got = np.full(support.shape, np.inf, dtype=object)
            got[support] = [Fraction(int(t), 1 << scale) for t in worst[support]]
            want = all_orders_match_worst(ens, support)
        else:
            support, cand = ens.support_transversal()
            got = _trans_worst_values(ens, support, cand)
            want = all_orders_trans_worst(ens, support, cand)
        # Exactly (bit for bit for transversal) on every supported cell, inf
        # on the rest.
        assert np.array_equal(got, want), inst.name
        cells += int(support.sum())
        report = verify_lemma(lemma, inst.structure, reals)
        oracle_fails = bool((want < ens.w_val[:, None]).any())
        assert report.passed == (not oracle_fails), (inst.name, report.detail)
        assert report.detail == f"{int(support.sum())} replayed checks"
    assert cells > 5000


def test_failure_names_first_cell_in_config_order(monkeypatch):
    # A worst case of 0 everywhere fails at the first supported (config,
    # index) pair whose need is positive.
    rng = np.random.default_rng(7)
    inst = random_instance("matching", 4, rng)
    reals = inst.draw_realizations(trial_rng(3, 0))
    ens = ConfigEnsemble(inst.structure, reals)
    support = ens.support_matching()
    short = support & (ens.w_val[:, None] > 0)
    c, j = np.argwhere(short.T)[0].tolist()
    monkeypatch.setattr(
        analysis, "_match_worst_values", lambda ens, support: np.where(support, 0.0, np.inf)
    )
    report = verify_lemma("match-sufficient", inst.structure, reals)
    assert not report.passed
    assert report.detail == f"config {c}, index {j}: matched value 0 < {Fraction(ens.w_val[j])}"


def test_matched_values_are_summed_exactly(monkeypatch):
    # Path 0-1-2-3 with point masses a, c, b on its edges: 1 + (2**-53 +
    # 2**-60) rounds to 1 + 2**-52 in floats, but exactly it is less. With
    # edges 0 and 2 live and edge 1's Y index supported, the one maximal
    # matching leaves a + b at edge 1's endpoints, short of c.
    a, b, c = 1.0, 2.0**-53 + 2.0**-60, 1.0 + 2.0**-52
    assert a + b == c
    g = GeneralMatching(4, ((0, 1), (1, 2), (2, 3)))
    reals = make_realizations([(a, a), (c, c), (b, b)])
    monkeypatch.setattr(ConfigEnsemble, "matching_exceeds", lambda ens: np.repeat(
        np.array([[True], [False], [True]]), ens.num_configs, axis=1))
    monkeypatch.setattr(ConfigEnsemble, "support_matching", lambda ens: np.repeat(
        (np.array(ens.elem) == 1)[:, None] & ens.is_y[:, None], ens.num_configs, axis=1))
    report = verify_lemma("match-sufficient", g, reals)
    assert not report.passed
    assert report.detail == (
        f"config 0, index 0: matched value {Fraction(a) + Fraction(b)} < {Fraction(c)}"
    )


@pytest.mark.parametrize("kind, lemma", [("matching", "match-sufficient"),
                                         ("transversal", "trans-sufficient")])
def test_sufficiency_passes_at_n_8_to_16(kind, lemma):
    rng = np.random.default_rng(88)
    for n in (8, 10, 12, 14, 16):
        inst = random_instance(kind, n, rng)
        reals = inst.draw_realizations(trial_rng(n, 0))
        report = verify_lemma(lemma, inst.structure, reals)
        assert report.passed, (n, report.detail)


def test_match_sufficient_capped_at_the_table_limit():
    rng = np.random.default_rng(5)
    inst = random_instance("matching", 17, rng)
    with pytest.raises(CapExceededError):
        verify_lemma("match-sufficient", inst.structure, inst.draw_realizations(rng))


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_matching_exhaustive_min_at_most_increasing_up_to_the_cap(mode, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "1")
    rng = np.random.default_rng(31)
    for n in (9, 11, 13, 16):
        inst = random_instance("matching", n, rng)
        worst, inc = (
            estimate_ratio(inst, "matching", adversary=a, mode=mode, trials=200,
                           seed=n)
            for a in ("exhaustive-min", "increasing")
        )
        if mode == "exact":
            assert worst.e_alg <= inc.e_alg
        else:  # the same draws trial by trial
            assert worst.e_alg <= inc.e_alg * (1 + 1e-12)


def test_cli_caps_at_17(tmp_path, capsys):
    rng = np.random.default_rng(9)
    inst = random_instance("matching", 17, rng)
    path = tmp_path / "m17.json"
    path.write_text(json.dumps(instance_to_document(inst)))
    for argv in (
        ["verify", "--lemma", "match-sufficient", "--instance", str(path)],
        ["simulate", "--instance", str(path), "--policy", "matching",
         "--adversary", "exhaustive-min", "--mode", "mc", "--trials", "4"],
        ["simulate", "--instance", str(path), "--policy", "matching",
         "--adversary", "exhaustive-min", "--mode", "exact"],
    ):
        assert main(argv) == 3, argv
        assert "capped at n <= 16" in capsys.readouterr().err


def test_match_sufficient_refuses_before_building_the_ensemble():
    # At n = 20 the (40, 2^20) ensemble tables would take tens of MiB.
    inst = random_instance("matching", 20, np.random.default_rng(9))
    reals = inst.draw_realizations(trial_rng(0, 0))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="capped at n <= 16"):
            verify_lemma("match-sufficient", inst.structure, reals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
