"""Exact mode in blocks of configurations: block ensembles are slices of the
full one, the reported expectations do not depend on the block size, the
memory of exact `simulate` is bounded by the block, the subset tables are
built once per structure and the transversal threshold tables once per
batch."""

import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

import sspilab.exact as exact
import sspilab.feasibility as feasibility
from sspilab.analysis import verify_lemma
from sspilab.core import trial_rng
from sspilab.exact import ConfigEnsemble, PathBatch, config_blocks
from sspilab.feasibility import SimplePartition
from sspilab.generators import _random_partition, random_instance
from sspilab.harness import EXACT_ADVERSARIES, MC_CHUNK, WORKERS_ENV, estimate_ratio
from sspilab.mechanism import mechanism_trials
from sspilab.policies import POLICY_STRUCTURES

KINDS = ("matching", "transversal", "truncated-partition", "simple-partition", "graphic", "rank1")


def _instance(kind: str, n: int, seed: int):
    rng = np.random.default_rng((seed, n))
    inst = random_instance(kind, n, rng)
    while kind == "graphic" and inst.structure.vertex_count > 4:  # 24 vertex orders at most
        inst = random_instance(kind, n, rng)
    groups = tuple(tuple(g) for g in _random_partition(n, rng))
    return replace(inst, partition=SimplePartition(groups), partition_alpha=2.0)


def _outcome(inst, policy, adversary):
    report = estimate_ratio(inst, policy, adversary, seed=3, mode="exact")
    return report.e_alg, report.e_opt, report.e_opt_prime, report.z_violations


def test_blocks_are_slices_of_the_full_ensemble():
    inst = _instance("matching", 7, 1)
    reals = inst.draw_realizations(trial_rng(1, 0))
    full = ConfigEnsemble(inst.structure, reals)
    for lo, hi in ((0, 5), (5, 64), (100, 128), (120, 500)):
        block = ConfigEnsemble(inst.structure, reals, lo, hi)
        assert block.num_configs == min(hi, 128) - lo
        assert np.array_equal(block.heads, full.heads[:, lo:hi])
        assert np.array_equal(block.ridx, full.ridx[:, lo:hi])
        for side in "HT":
            assert np.array_equal(block.free(side), full.free(side)[:, lo:hi])


def test_config_blocks_cover_every_configuration_in_order(monkeypatch):
    monkeypatch.setattr(exact, "CONFIG_BLOCK", 3)
    inst = _instance("transversal", 5, 2)
    reals = inst.draw_realizations(trial_rng(2, 0))
    blocks = list(config_blocks(inst.structure, reals))
    assert [b.num_configs for b in blocks] == [3] * 10 + [2]
    assert len({id(b.path) for b in blocks}) == 1
    full = ConfigEnsemble(inst.structure, reals)
    assert np.array_equal(np.hstack([b.heads for b in blocks]), full.heads)


@pytest.mark.parametrize("kind", ["transversal", "matching"])
def test_subset_tables_are_built_once_per_structure(kind, monkeypatch):
    # The structure owns its subset tables, so every block of an exact
    # command and every chunk of a one-worker Monte Carlo one reads the
    # same table. Each table build takes one subset union.
    builds = []
    union = feasibility._subset_union
    monkeypatch.setattr(feasibility, "_subset_union", lambda m: builds.append(1) or union(m))
    monkeypatch.setattr(exact, "CONFIG_BLOCK", 3)
    monkeypatch.setenv(WORKERS_ENV, "1")
    estimate_ratio(_instance(kind, 5, 2), kind, "exhaustive-min", seed=2, mode="exact")
    assert len(builds) == 1
    builds.clear()
    estimate_ratio(_instance(kind, 5, 3), kind, "fixed", trials=MC_CHUNK + 5, seed=2, mode="mc")
    assert len(builds) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_expectations_do_not_depend_on_the_block_size(kind, monkeypatch):
    for n, sizes in ((6, (1, 3, 64)), (11, (1 << 10, 1 << 11))):
        inst = _instance(kind, n, KINDS.index(kind))
        policies = [p for p, applies in POLICY_STRUCTURES.items() if applies(inst.structure)]
        assert policies
        for policy in policies:
            for adversary in EXACT_ADVERSARIES:
                got = set()
                for size in sizes:
                    monkeypatch.setattr(exact, "CONFIG_BLOCK", size)
                    got.add(_outcome(inst, policy, adversary))
                assert len(got) == 1, (policy, adversary, got)


@pytest.mark.parametrize("policy, kind", [
    ("rank1", "rank1"), ("laminar", "truncated-partition"),
    ("transversal", "transversal"), ("matching", "matching"),
])
def test_exact_simulate_memory_is_bounded_by_the_block(policy, kind):
    # All 2^16 configurations at once took 20-56 MiB; a block of 2^13
    # keeps every table eight times smaller.
    inst = random_instance(kind, 16, np.random.default_rng(5))
    for adversary in ("fixed", "increasing"):
        tracemalloc.start()
        try:
            estimate_ratio(inst, policy, adversary, seed=5, mode="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, (adversary, peak / 2**20)


@pytest.mark.parametrize("policy, kind, bound_mib", [
    ("rank1", "rank1", 2), ("laminar", "truncated-partition", 2),
    ("transversal", "transversal", 3),
])
def test_exact_simulate_memory_with_narrow_tables(policy, kind, bound_mib):
    # With int64 path indices, thresholds and group ids these commands
    # peaked at 3.46, 2.58 and 7.39 MiB; narrow tables and per-step group
    # positions take them to about 1.5, 1.7 and 2.4 MiB. A first run makes
    # the one-time imports before tracing starts.
    inst = random_instance(kind, 16, np.random.default_rng(5))
    estimate_ratio(inst, policy, "fixed", seed=5, mode="exact")
    for adversary in ("fixed", "increasing"):
        tracemalloc.start()
        try:
            estimate_ratio(inst, policy, adversary, seed=5, mode="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, (adversary, peak / 2**20)


def test_path_index_tables_take_the_smallest_type():
    inst = random_instance("transversal", 9, np.random.default_rng(2))
    ens = ConfigEnsemble(inst.structure, inst.draw_realizations(trial_rng(2, 0)))
    assert exact.index_type(31) == np.int8 and exact.index_type(32) == np.int16
    for table in (ens.ridx, ens.sidx, ens.y_idx, ens.transversal_r_thresholds,
                  ens.transversal_targets, ens.transversal_prices()):
        assert table.dtype == np.int8


def test_unknown_structure_is_a_fault_of_the_program():
    # Only a fault of the program reaches the free flags with a structure
    # they do not know; RuntimeError exits 4, not 2.
    inst = random_instance("rank1", 3, np.random.default_rng(3))
    ens = ConfigEnsemble(inst.structure, inst.draw_realizations(trial_rng(3, 0)))
    ens.structure = object()
    with pytest.raises(RuntimeError, match="unknown structure"):
        ens.free("H")


def _count_builds(monkeypatch) -> Counter:
    """Count the builds (not the reads) of the transversal threshold tables."""
    builds = Counter()
    for name in ("transversal_r_thresholds", "transversal_targets"):
        build = PathBatch.__dict__[name].func

        def counted(self, build=build, name=name):
            builds[name] += 1
            return build(self)

        table = cached_property(counted)
        table.__set_name__(PathBatch, name)
        monkeypatch.setattr(PathBatch, name, table)
    return builds


def test_transversal_tables_are_built_once_per_batch(monkeypatch):
    # The targets come off the tails-side walk; the thresholds are built at
    # most once, and only where prices are read.
    inst = random_instance("transversal", 8, np.random.default_rng(4))
    want = mechanism_trials(inst, "transversal", 4, range(64))
    builds = _count_builds(monkeypatch)
    got = mechanism_trials(inst, "transversal", 4, range(64))
    assert builds == {"transversal_r_thresholds": 1, "transversal_targets": 1}
    for field in ("accepted", "winners", "payments", "welfare", "revenue", "opt"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field

    builds.clear()
    report = verify_lemma("trans-sufficient", inst.structure, inst.draw_realizations(trial_rng(4, 0)))
    assert report.passed
    assert builds == {"transversal_targets": 1}


def test_kept_tables_are_read_only():
    inst = random_instance("transversal", 6, np.random.default_rng(6))
    ens = ConfigEnsemble(inst.structure, inst.draw_realizations(trial_rng(6, 0)))
    for name in ("transversal_targets", "candidate_nodes"):
        table = getattr(ens, name)
        assert getattr(ens, name) is table
        with pytest.raises(ValueError):
            table[0] = 0
    exact.policy_run(ens, "transversal", "fixed")  # reads, never writes
    inst = random_instance("matching", 6, np.random.default_rng(6))
    ens = ConfigEnsemble(inst.structure, inst.draw_realizations(trial_rng(6, 0)))
    thresholds = ens.matching_vertex_thresholds
    assert ens.matching_vertex_thresholds is thresholds
    with pytest.raises(ValueError):
        thresholds[0] = 0
    exact.policy_run(ens, "matching", "fixed").price()
