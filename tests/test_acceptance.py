"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy exact runs are shared through module-scoped fixtures; criterion 8
audits the accept decisions recorded during criteria 3 and 4.
"""

from fractions import Fraction

import numpy as np
import pytest

import sspilab.exact as exact
from sspilab.analysis import (
    GAME_RB_CAP,
    GAME_RR_CAP,
    exhaustive_game_value,
    game_monte_carlo,
    verify_lemma,
)
from sspilab.core import trial_rng
from sspilab.feasibility import (
    Transversal,
    greedy_prophet,
    optimal_matching,
    optimal_transversal,
)
from sspilab.core import TaggedValue, exponential
from sspilab.generators import random_instance, star_graphic_instance
from sspilab.harness import estimate_ratio
from sspilab.instances import Instance
from sspilab.mechanism import estimate_mechanism_ratios

from all_orders import ORACLE_MAX_N, order_search_misses
from test_harness import star_e_alg


def _criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE criterion {num} ({name}): {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: exact lemma suite, 200 random instances per structure
# (matching and transversal to n = 7, the others to 10), then 30 more
# matching and transversal instances at n = 8-10.
# ---------------------------------------------------------------------------

LEMMAS_BY_STRUCTURE = {
    "matching": (
        "symmetry", "forget-z", "greedy-objective",
        "match-unique", "match-sufficient", "match-prob",
    ),
    "transversal": (
        "symmetry", "forget-z", "greedy-objective",
        "trans-unique", "trans-sufficient", "trans-prob",
    ),
    "truncated-partition": (
        "symmetry", "forget-z", "greedy-objective",
        "laminar-sufficient", "laminar-prob",
    ),
    "simple-partition": ("symmetry", "forget-z", "greedy-objective"),
    "graphic": ("symmetry", "forget-z", "greedy-objective"),
}


def test_criterion_1_lemma_suite():
    rng = np.random.default_rng(101)
    violations = []
    checked = 0
    for kind, lemmas in LEMMAS_BY_STRUCTURE.items():
        hi = 8 if kind in ("matching", "transversal") else 11
        for i in range(200):
            n = int(rng.integers(1, hi))
            inst = random_instance(kind, n, rng)
            reals = inst.draw_realizations(trial_rng(1000 + i, 0))
            for lemma in lemmas:
                report = verify_lemma(lemma, inst.structure, reals)
                checked += 1
                if not report.passed:
                    violations.append((kind, n, lemma, report.detail))
    for kind in ("matching", "transversal"):
        lemmas = LEMMAS_BY_STRUCTURE[kind]
        for i in range(30):
            n = int(rng.integers(8, 11))
            inst = random_instance(kind, n, rng)
            reals = inst.draw_realizations(trial_rng(2000 + i, 0))
            for lemma in lemmas:
                report = verify_lemma(lemma, inst.structure, reals)
                checked += 1
                if not report.passed:
                    violations.append((kind, n, lemma, report.detail))
    _criterion(
        1, "lemma suite", not violations,
        f"{checked} lemma verifications, violations: {violations[:3]}",
    )


# ---------------------------------------------------------------------------
# Criterion 2: coin game value 1/4 exactly; Monte Carlo 0.25 +- 0.002.
# ---------------------------------------------------------------------------


def test_criterion_2_coin_game():
    exact_ok = True
    for r_r in range(1, GAME_RR_CAP + 1):
        for r_b in range(r_r + 1, GAME_RB_CAP + 1):
            exact_ok &= exhaustive_game_value(r_r, r_b) == Fraction(1, 4)
            exact_ok &= exhaustive_game_value(r_r, r_b, "b-first") == Fraction(1, 4)
    freq = game_monte_carlo(1, 2, 1_000_000, seed=202)
    mc_ok = abs(freq - 0.25) <= 0.002
    _criterion(
        2, "coin game", exact_ok and mc_ok,
        f"exact values 1/4, MC frequency {freq:.4f}",
    )


# ---------------------------------------------------------------------------
# Criteria 3, 4, 8: exact adversarial competitive bounds. The adversary is
# almighty: the policy total is minimized over arrival orders separately in
# every configuration. For the truncated partition and the reductions the
# increasing order is the per-configuration minimizer (checked below and in
# criterion 5 against the all-orders oracle), so it stands in for the full
# search.
# ---------------------------------------------------------------------------

BOUND_RUNS = [
    # (structure kind, policy, adversary, bound, count, n range)
    ("matching", "matching", "exhaustive-min", 32, 100, (2, 8)),
    ("transversal", "transversal", "exhaustive-min", 8, 100, (2, 8)),
    ("truncated-partition", "laminar", "increasing", 8, 100, (2, 8)),
    ("graphic", "reduction-graphic", "increasing", 4, 100, (2, 8)),
]


@pytest.fixture(scope="module")
def bound_results():
    rng = np.random.default_rng(303)
    results = {}
    for kind, policy, adversary, bound, count, (lo, hi) in BOUND_RUNS:
        rows = []
        for i in range(count):
            n = int(rng.integers(lo, hi))
            inst = random_instance(kind, n, rng)
            rep = estimate_ratio(
                inst, policy, adversary=adversary, mode="exact", seed=3000 + i
            )
            rows.append(rep)
        results[policy] = (bound, rows)
    return results


@pytest.fixture(scope="module")
def rank1_results():
    rng = np.random.default_rng(404)
    rows = []
    equal_checks = []
    for i in range(100):
        n = int(rng.integers(1, 11))
        inst = random_instance("rank1", n, rng)
        rep = estimate_ratio(
            inst, "rank1", adversary="increasing", mode="exact", seed=4000 + i
        )
        rows.append(rep)
        if n <= ORACLE_MAX_N:
            equal_checks.append(not order_search_misses(inst, "rank1", "increasing", 4000 + i))
    return rows, equal_checks


def test_criterion_3_competitive_bounds(bound_results):
    failures = []
    for policy, (bound, rows) in bound_results.items():
        for rep in rows:
            if rep.e_opt > bound * rep.e_alg:
                failures.append((policy, rep.instance, float(rep.ratio)))
    # The increasing order is the exact per-configuration minimizer for the
    # reduction: checked against the all-orders oracle at small n.
    rng = np.random.default_rng(305)
    reduction_equal = []
    for i in range(10):
        inst = random_instance("graphic", int(rng.integers(2, 6)), rng)
        reduction_equal.append(not order_search_misses(inst, "reduction-graphic", "increasing", i))
    ok = not failures and all(reduction_equal)
    _criterion(
        3, "competitive bounds", ok,
        f"400 exact adversarial instances, failures: {failures[:3]}, "
        f"reduction increasing==worst on {sum(reduction_equal)}/10",
    )


def test_criterion_4_rank1_bound(rank1_results):
    rows, equal_checks = rank1_results
    failures = [
        (rep.instance, float(rep.ratio))
        for rep in rows
        if rep.e_opt > 2 * rep.e_alg
    ]
    ok = not failures and all(equal_checks)
    _criterion(
        4, "rank-1 bound", ok,
        f"100 instances (n<=10), failures: {failures[:3]}; "
        f"increasing==worst on {sum(equal_checks)}/{len(equal_checks)} small instances",
    )


def test_criterion_8_z_rejection(bound_results, rank1_results):
    total = sum(
        rep.z_violations for _, rows in bound_results.values() for rep in rows
    )
    rows, _ = rank1_results
    total += sum(rep.z_violations for rep in rows)
    _criterion(8, "never collects below-sample rewards", total == 0,
               f"{total} violations across criteria 3-4 runs")


# ---------------------------------------------------------------------------
# Criterion 5: the exhaustive-min adversary attains the per-configuration
# minimum over all n! arrival orders, for every policy and every reduction
# partition, by the all-orders oracle (tests/all_orders.py).
# ---------------------------------------------------------------------------

WORST_ORDER_KINDS = {
    "rank1": "rank1",
    "laminar": "truncated-partition",
    "matching": "matching",
    "transversal": "transversal",
    "reduction-graphic": "graphic",
    "reduction-custom": "simple-partition",
}


def test_criterion_5_worst_case_order():
    rng = np.random.default_rng(505)
    misses = []
    for policy, kind in WORST_ORDER_KINDS.items():
        for i in range(6):
            inst = random_instance(kind, int(rng.integers(2, ORACLE_MAX_N + 1)), rng)
            if policy == "reduction-custom":  # its own groups: a valid partition
                inst = Instance(inst.name, inst.structure, inst.distributions,
                                inst.structure, 1.0)
            missed = order_search_misses(inst, policy, "exhaustive-min", 5000 + i)
            if missed:
                misses.append((policy, inst.name, missed))
    _criterion(
        5, "exhaustive-min is the worst case", not misses,
        f"6 instances per policy (n<={ORACLE_MAX_N}), all n! orders per configuration "
        f"and partition; misses: {misses[:3]}",
    )


def _forward_replay(walk, batch, live, adversary, *rule):
    """`exact._replay` with a planted defect: the named adversaries walk the
    sample path forwards, so "increasing" replays decreasing rewards."""
    if not isinstance(adversary, str) or adversary == "fixed":
        return _REPLAY(walk, batch, live, adversary, *rule)
    want = exact._at_steps(live, batch.elem) & batch.heads
    return batch.at_rewards(walk(batch.elem, want, *rule) & want)


_REPLAY = exact._replay


def test_criterion_5_catches_a_forward_path_walk(monkeypatch):
    monkeypatch.setattr(exact, "_replay", _forward_replay)
    with pytest.raises(AssertionError, match="criterion 5"):
        test_criterion_5_worst_case_order()


# ---------------------------------------------------------------------------
# Criterion 6: the star-graph family approaches ratio 4 from below.
# ---------------------------------------------------------------------------


CRITERION_6_WINDOW = (3.5, 4.05)  # the k = 200 ratio's window


def test_criterion_6_tight_example():
    rep200 = _tight(200, 100_000, seed=606)
    lo, hi = CRITERION_6_WINDOW
    in_window = lo <= rep200.ratio <= hi
    rep10 = _tight(10, 100_000, seed=607)
    m200 = rep200.ratio * (rep200.ci / rep200.e_alg)
    m10 = rep10.ratio * (rep10.ci / rep10.e_alg)
    monotone = rep10.ratio + m10 < rep200.ratio - m200
    _criterion(
        6, "tight example", in_window and monotone,
        f"k=200 ratio {rep200.ratio:.3f} in [3.5, 4.05]; "
        f"k=10 ratio {rep10.ratio:.3f} below with disjoint intervals",
    )


def test_criterion_6_window_holds_the_exact_ratio():
    # The window holds the ratio itself, not only an estimate: E_OPT is
    # k - 1/2 exactly, over the exact E_ALG.
    ratio = (200 - Fraction(1, 2)) / star_e_alg(200)
    lo, hi = CRITERION_6_WINDOW
    assert lo <= ratio <= hi
    assert round(float(ratio), 3) == 3.957


def _tight(k, trials, seed):
    from sspilab.harness import tight_example

    return tight_example(k, trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# Criterion 7: greedy offline solutions are at least half the exact optima.
# ---------------------------------------------------------------------------


def test_criterion_7_oracle_halves():
    rng = np.random.default_rng(707)
    bad_matching = bad_transversal = 0
    for _ in range(10_000):
        inst = random_instance("matching", int(rng.integers(1, 11)), rng)
        w = {
            e: TaggedValue(float(rng.integers(0, 64)) / 4.0, rng.random(), e)
            for e in range(inst.ground_size)
        }
        if greedy_prophet(inst.structure, w).total < optimal_matching(
            inst.structure, w
        ).total / 2 - 1e-9:
            bad_matching += 1
    for _ in range(10_000):
        inst = random_instance("transversal", int(rng.integers(1, 11)), rng)
        w = {
            e: TaggedValue(float(rng.integers(0, 64)) / 4.0, rng.random(), e)
            for e in range(inst.ground_size)
        }
        if greedy_prophet(inst.structure, w).total < optimal_transversal(
            inst.structure, w
        ).total / 2 - 1e-9:
            bad_transversal += 1
    _criterion(
        7, "greedy oracles worth half", bad_matching == 0 and bad_transversal == 0,
        f"10^4 matching + 10^4 transversal instances; "
        f"violations {bad_matching}+{bad_transversal}",
    )


# ---------------------------------------------------------------------------
# Criterion 9: mechanism welfare ratios within the table bounds plus three
# standard errors, with exponential(1) agents.
# ---------------------------------------------------------------------------


def test_criterion_9_mechanism_bounds():
    star = star_graphic_instance(50)
    star = Instance(star.name, star.structure,
                    {e: exponential(1.0) for e in range(50)})
    rep_star = estimate_mechanism_ratios(
        star, "reduction-graphic", trials=100_000, seed=909
    )
    se_star = rep_star.welfare_ratio_halfwidth / 1.96
    star_ok = rep_star.welfare_ratio <= 8.0 + 3 * se_star

    transversal = Instance(
        "mech-transversal",
        Transversal(6, 4, ((0, 1), (0,), (1, 2), (2, 3), (0, 3), (1, 3))),
        {e: exponential(1.0) for e in range(6)},
    )
    rep_t = estimate_mechanism_ratios(
        transversal, "transversal", trials=100_000, seed=910
    )
    se_t = rep_t.welfare_ratio_halfwidth / 1.96
    t_ok = rep_t.welfare_ratio <= 16.0 + 3 * se_t
    _criterion(
        9, "mechanism welfare bounds", star_ok and t_ok,
        f"graphic star ratio {rep_star.welfare_ratio:.3f} <= 8, "
        f"transversal ratio {rep_t.welfare_ratio:.3f} <= 16 (3 SE slack)",
    )
