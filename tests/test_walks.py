"""The first-come greedy kernels on per-column steps: a TrialBatch's free
flags against the scalar greedy walk of each trial, the branches of the
arrival-order replay (by element id, explicit orders, and the increasing
order read off the sample path), the matching and transversal live flags
read off the tails-side walk against the threshold tables, and the memory
of the transversal candidate table."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sspilab.analysis import verify_lemma
from sspilab.core import (
    VERTEX_ORDERS,
    ElementRealization,
    build_sample_path,
    chunk_orders,
    discrete,
    draw_trials,
    point_mass,
    trial_rng,
)
from sspilab.exact import (
    ConfigEnsemble,
    TrialBatch,
    bit_index,
    policy_run,
    reduction_partitions,
)
from sspilab.feasibility import SimplePartition, Transversal, path_walk
from sspilab.generators import _random_partition, random_instance
from sspilab.policies import POLICY_STRUCTURES

KINDS = ("matching", "transversal", "truncated-partition", "simple-partition", "graphic")
TRIALS = 16


def _instance(kind: str, n: int, seed: int, laws: str):
    """A random instance with a random element partition (for
    reduction-custom); point masses and two-atom laws make ties."""
    rng = np.random.default_rng(seed)
    inst = random_instance(kind, n, rng)
    if laws == "point-mass":
        inst = replace(inst, distributions={
            e: point_mass(float(rng.integers(0, 3))) for e in range(n)
        })
    elif laws == "discrete":
        inst = replace(inst, distributions={
            e: discrete([1.0, 2.0], [0.5, 0.5]) for e in range(n)
        })
    elif laws == "zero-atoms":
        inst = replace(inst, distributions={
            e: discrete([0.0, float(rng.integers(1, 3))], [0.5, 0.5]) for e in range(n)
        })
    elif laws == "all-zero":
        inst = replace(inst, distributions={e: point_mass(0.0) for e in range(n)})
    groups = tuple(tuple(g) for g in _random_partition(n, rng))
    return replace(inst, partition=SimplePartition(groups))


def _draws(inst, seed: int):
    dists = [inst.distributions[e] for e in range(inst.ground_size)]
    return draw_trials(dists, seed, range(TRIALS))


def _trial_partitions(inst, policy: str, seed: int) -> list:
    """The policy's partitions on the trials of `_draws`: for
    reduction-graphic, one vertex order per trial from the chunk's stream."""
    ranks = None
    if policy == "reduction-graphic":
        ranks = chunk_orders(seed, range(TRIALS), inst.structure.edge_ends[0], VERTEX_ORDERS)
    return reduction_partitions(inst, policy, ranks)


cases = st.fixed_dictionaries({
    "kind": st.sampled_from(KINDS),
    "n": st.integers(1, 7),
    "seed": st.integers(0, 2**32 - 1),
    "laws": st.sampled_from(("generated", "point-mass", "discrete")),
})


@given(cases)
def test_trial_free_tables_equal_the_scalar_walk(case):
    inst = _instance(**case)
    fs, n = inst.structure, inst.ground_size
    batch = TrialBatch(fs, _draws(inst, case["seed"]))
    for t in range(TRIALS):
        rewards, samples = batch.tagged(t)
        reals = [ElementRealization(e, *sorted((rewards[e], samples[e]), reverse=True))
                 for e in range(n)]
        path = build_sample_path(reals)
        assert batch.elem[:, t].tolist() == [x.element for x in path.entries]
        mask = sum(1 << e for e in range(n) if rewards[e] == reals[e].y)
        for side in "HT":
            assert batch.free(side)[:, t].tolist() == path_walk(fs, path, mask, side).free


@given(cases)
def test_replay_by_element_id_equals_the_identity_orders(case):
    inst = _instance(**case)
    fs, n = inst.structure, inst.ground_size
    draws = _draws(inst, case["seed"])
    ens = ConfigEnsemble(fs, inst.draw_realizations(trial_rng(case["seed"], 0)))
    policies = [p for p, applies in POLICY_STRUCTURES.items() if applies(fs)]
    assert policies
    for policy in policies:
        ((grouping, _),) = _trial_partitions(inst, policy, case["seed"])
        for batch in (TrialBatch(fs, draws), ens):
            if policy == "reduction-graphic" and batch is ens:
                continue  # its vertex orders are one per trial
            identity = np.tile(np.arange(n)[:, None], (1, batch.num_configs))
            a = policy_run(batch, policy, "fixed", grouping)
            b = policy_run(batch, policy, identity, grouping)
            assert a.accepted.dtype == bool
            assert np.array_equal(a.accepted, b.accepted), policy


@pytest.mark.parametrize("adversary", ["random", "decreasing", None])
def test_an_unknown_adversary_is_a_fault_of_the_program(adversary):
    # The random adversary is passed as its drawn orders, never by name.
    for kind in KINDS + ("rank1",):
        inst = _instance(kind, 4, 1, "generated")
        draws = _draws(inst, 1)
        batch = TrialBatch(inst.structure, draws)
        for policy, applies in POLICY_STRUCTURES.items():
            if applies(inst.structure):
                ((grouping, _),) = _trial_partitions(inst, policy, 1)
                with pytest.raises(RuntimeError, match="unknown adversary"):
                    policy_run(batch, policy, adversary, grouping)


def test_transversal_candidates_are_node_indices_on_the_tails_walk_only():
    inst = random_instance("transversal", 6, np.random.default_rng(3))
    ens = ConfigEnsemble(inst.structure, inst.draw_realizations(trial_rng(3, 0)))
    ens.free("H")
    assert "candidate_nodes" not in vars(ens)
    nodes = ens.candidate_nodes
    free_t = ens.free("T")
    assert (nodes[~free_t] == -1).all()
    assert ((nodes[free_t] >= 0) & (nodes[free_t] < inst.structure.right_count)).all()


@pytest.mark.parametrize("lemma, bound_mib", [("trans-unique", 2.6), ("trans-prob", 3.0)])
def test_transversal_support_memory_keeps_one_narrow_candidate_table(lemma, bound_mib):
    # The candidate table holds one int8 node index per (index, config);
    # with it these verifiers peak at 2.43 and 2.82 MiB on this n = 14
    # instance. A (28, 2^14) uint16 table of the free right nodes, kept
    # beside it, passes the bounds. A first run makes the one-time imports.
    inst = random_instance("transversal", 14, np.random.default_rng(0))
    reals = inst.draw_realizations(trial_rng(0, 0))
    verify_lemma(lemma, inst.structure, reals)
    tracemalloc.start()
    try:
        report = verify_lemma(lemma, inst.structure, reals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < bound_mib * 2**20, peak / 2**20


def test_greedy_objective_memory_holds_no_candidate_table():
    # A (36, 2^18) int64 candidate table per side would take the verifier
    # past 100 MiB; only the tails walk keeps a table, of int8 node indices.
    inst = random_instance("transversal", 18, np.random.default_rng(5))
    reals = inst.draw_realizations(trial_rng(5, 0))
    tracemalloc.start()
    try:
        report = verify_lemma("greedy-objective", inst.structure, reals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 64 * 2**20


def _increasing_orders(batch):
    """The increasing-reward order as an explicit (n, columns) table: the
    test oracle of the replay along the sample path walked backwards."""
    return np.argsort(-batch.ridx, axis=0)


increasing_cases = st.fixed_dictionaries({
    "kind": st.sampled_from(KINDS + ("rank1",)),
    "n": st.integers(1, 7),
    "seed": st.integers(0, 2**32 - 1),
    "laws": st.sampled_from(("generated", "point-mass", "discrete")),
    "block": st.tuples(st.integers(0, 127), st.integers(1, 128)),
})


@given(increasing_cases)
def test_increasing_replay_along_the_path_equals_the_sorted_orders(case):
    block = case.pop("block")
    inst = _instance(**case)
    fs, n = inst.structure, inst.ground_size
    draws = _draws(inst, case["seed"])
    reals = inst.draw_realizations(trial_rng(case["seed"], 0))
    lo = block[0] % (1 << n)
    ensembles = (ConfigEnsemble(fs, reals), ConfigEnsemble(fs, reals, lo, lo + block[1]))
    policies = [p for p, applies in POLICY_STRUCTURES.items() if applies(fs)]
    assert policies
    for policy in policies:
        trial_partitions = _trial_partitions(inst, policy, case["seed"])
        exact_partitions = reduction_partitions(inst, policy)[::7]  # every 7th partition
        for batch, partitions in ((TrialBatch(fs, draws), trial_partitions),
                                  *((ens, exact_partitions) for ens in ensembles)):
            assert len(partitions) >= 1
            for grouping, _ in partitions:
                a = policy_run(batch, policy, "increasing", grouping)
                b = policy_run(batch, policy, _increasing_orders(batch), grouping)
                assert a.accepted.dtype == bool
                assert np.array_equal(a.accepted, b.accepted), policy


def _wide_transversal(n: int, seed: int) -> Transversal:
    """A transversal system on 70 right nodes, the last one adjacent to left
    node 0, so that its masks pass an int64."""
    rng = np.random.default_rng(seed)
    adjacency = [set(rng.choice(70, size=int(rng.integers(0, 5)), replace=False).tolist())
                 for _ in range(n)]
    adjacency[0].add(69)
    return Transversal(n, 70, tuple(tuple(sorted(a)) for a in adjacency))


def _scanned_targets(batch) -> np.ndarray:
    """Per (element, column), the first sorted neighbour whose sample
    threshold the reward beats, -1 for none or a reward at its Z index."""
    fs, ridx = batch.structure, batch.ridx
    th = batch.transversal_r_thresholds
    want = np.full(ridx.shape, -1)
    for l in range(batch.n):
        for r in reversed(fs.sorted_neighbors(l)):
            np.copyto(want[l], r, where=ridx[l] < th[r])
    np.copyto(want, -1, where=ridx > batch.y_idx)
    return want


walk_cases = st.fixed_dictionaries({
    "kind": st.sampled_from(("matching", "transversal", "wide-transversal")),
    "n": st.integers(1, 7),
    "seed": st.integers(0, 2**32 - 1),
    "laws": st.sampled_from(("generated", "point-mass", "zero-atoms", "all-zero")),
})


@given(walk_cases)
def test_walk_read_live_flags_equal_the_threshold_tables(case):
    # A reward beats the thresholds of the sample greedy where the
    # tails-side walk is free at its index; a reward worth 0 beats only
    # those that later samples set. The threshold tables are the oracle.
    wide = case["kind"] == "wide-transversal"
    inst = _instance("transversal" if wide else case["kind"], case["n"], case["seed"],
                     case["laws"])
    if wide:
        inst = replace(inst, structure=_wide_transversal(case["n"], case["seed"]))
    fs = inst.structure
    reals = inst.draw_realizations(trial_rng(case["seed"], 0))
    for batch in (ConfigEnsemble(fs, reals), TrialBatch(fs, _draws(inst, case["seed"]))):
        if case["kind"] == "matching":
            want = batch.ridx < batch.matching_prices()
            assert np.array_equal(batch.matching_exceeds(), want)
        else:
            assert np.array_equal(batch.transversal_targets, _scanned_targets(batch))


def test_bit_index_reads_object_arrays_of_any_shape():
    bits = np.array([[1, 1 << 70], [1 << 5, 1 << 62]], dtype=object)
    assert bit_index(bits).tolist() == [[0, 70], [5, 62]]
    assert bit_index(np.array([[1, 8], [2, 4]], dtype=np.uint8)).tolist() == [[0, 3], [1, 2]]
