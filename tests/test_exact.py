"""The vectorized configuration tables must agree cell-for-cell with the
scalar reference implementations."""

import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import chain, combinations, permutations

import numpy as np
import pytest

import sspilab.exact as exact_module
from sspilab.analysis import verify_lemma
from sspilab.core import (
    ElementRealization,
    build_sample_path,
    draw_trials,
    point_mass,
    trial_rng,
    uniform,
)
from sspilab.exact import (
    ConfigEnsemble,
    TrialBatch,
    element_masks,
    min_maximal_accepts,
    optimum_accepts,
    policy_run,
    reduction_partitions,
)
from sspilab.feasibility import (
    GeneralMatching,
    Graphic,
    SimplePartition,
    TruncatedPartition,
    graphic_partition,
    is_independent,
    path_walk,
)
from sspilab.generators import random_instance
from sspilab.harness import estimate_ratio
from sspilab.instances import Instance
from sspilab.policies import (
    adversarial_order,
    beats,
    run_policy,
)

from conftest import make_realizations, several_group_rank1, tv

ALL_KINDS = (
    "matching", "transversal", "truncated-partition", "simple-partition", "graphic",
)


def test_heads_table_matches_configurations(rng):
    inst = random_instance("matching", 4, rng)
    reals = inst.draw_realizations(rng)
    path = build_sample_path(reals)
    ens = ConfigEnsemble(inst.structure, reals)
    for mask in range(ens.num_configs):
        for j in range(path.length):
            assert bool(ens.heads[j, mask]) == path.heads(mask)[j]


@pytest.mark.parametrize("ids", [(0, 2), (0, 1, 5)], ids=["gap", "beyond"])
def test_ensemble_rejects_element_ids_it_cannot_index(ids):
    # Configuration bit e is element e's coin, so the realizations must be of
    # the elements 0..n-1 of the structure, no fewer and no others.
    fs = GeneralMatching(4, ((0, 1), (1, 2), (2, 3)))
    reals = [ElementRealization(e, tv(0.91 - 0.1 * k, 0.5, e), tv(0.3 - 0.1 * k, 0.25, e))
             for k, e in enumerate(ids)]
    with pytest.raises(ValueError, match=re.escape(f"got ids {list(ids)}")):
        verify_lemma("match-sufficient", fs, reals)


# A forest (the walk's shortcut) and a cycle (the relabel loop).
STAR = Instance("star", Graphic(5, tuple((0, v) for v in range(1, 5))),
                {e: uniform(0.0, 1.0) for e in range(4)})
CYCLE = Instance("cycle", Graphic(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))),
                 {e: point_mass(0.0) if e == 2 else uniform(0.0, 1.0) for e in range(5)})


def _assert_free_tables(fs, path, table_of, columns):
    """`table_of(side)` against the scalar path walk, per (column, mask)."""
    for side in "HT":
        table = table_of(side)
        for col, mask in columns:
            free = path_walk(fs, path, mask, side).free
            for j in range(path.length):
                assert bool(table[j, col]) == free[j], (
                    side, mask, j,
                )


def test_free_tables_match_scalar_path_walk(rng):
    drawn = (random_instance(kind, int(rng.integers(1, 6)), rng)
             for kind in ALL_KINDS for _ in range(6))
    for inst in chain(drawn, (STAR, CYCLE)):
        reals = inst.draw_realizations(rng)
        ens = ConfigEnsemble(inst.structure, reals)
        columns = [(mask, mask) for mask in range(ens.num_configs)]
        _assert_free_tables(inst.structure, build_sample_path(reals), ens.free, columns)


@pytest.mark.parametrize("inst", [STAR, CYCLE], ids=["star", "cycle"])
def test_trial_free_tables_match_scalar_path_walk(inst):
    n = inst.ground_size
    batch = TrialBatch(inst.structure, draw_trials([inst.distributions[e] for e in range(n)],
                                                   5, range(40)))
    for t in range(batch.num_configs):
        rewards, samples = batch.tagged(t)
        reals = [ElementRealization(e, *sorted((rewards[e], samples[e]), reverse=True))
                 for e in range(n)]
        path = build_sample_path(reals)
        assert batch.elem[:, t].tolist() == [x.element for x in path.entries]
        mask = sum(1 << e for e in range(n) if rewards[e] == reals[e].y)
        _assert_free_tables(inst.structure, path, batch.free, [(t, mask)])


def test_reward_and_sample_indices(rng):
    # Path indices stand in for tagged values: index order is the reverse of
    # TaggedValue order, and an index precedes `absent` iff its value is > 0.
    for kind in ALL_KINDS:
        for _ in range(4):
            inst = random_instance(kind, int(rng.integers(1, 6)), rng)
            dists = dict(inst.distributions)
            dists[int(rng.integers(0, len(dists)))] = point_mass(0.0)
            inst = replace(inst, distributions=dists)
            reals = inst.draw_realizations(rng)
            path = build_sample_path(reals)
            ens = ConfigEnsemble(inst.structure, reals)
            ridx, sidx = ens.ridx, ens.sidx
            assert (np.minimum(ridx, sidx) == ens.y_idx).all()
            for mask in range(ens.num_configs):
                rewards, samples = {}, {}
                for r in reals:
                    if (mask >> r.element) & 1:
                        rewards[r.element], samples[r.element] = r.y, r.z
                    else:
                        rewards[r.element], samples[r.element] = r.z, r.y
                for e in range(ens.n):
                    i = int(ridx[e, mask])
                    assert path.entries[i].value == rewards[e]
                    assert path.entries[int(sidx[e, mask])].value == samples[e]
                    assert (i < ens.absent) == beats(rewards[e], None)
                    for f in range(ens.n):
                        j = int(ridx[f, mask])
                        assert (i < j) == (rewards[e] > rewards[f])
                        s = int(sidx[f, mask])
                        assert (i < s) == (rewards[e] > samples[f])


def test_greedy_totals_match_flag_tables(rng):
    # The accepted set of the scalar path greedy is exactly parse & free.
    for kind in ALL_KINDS:
        inst = random_instance(kind, int(rng.integers(1, 6)), rng)
        reals = inst.draw_realizations(rng)
        path = build_sample_path(reals)
        ens = ConfigEnsemble(inst.structure, reals)
        for side in "HT":
            table = ens.free(side)
            side_flags = ens.heads if side == "H" else ~ens.heads
            for mask in range(ens.num_configs):
                sol = path_walk(inst.structure, path, mask, side).solution
                picked = {
                    path.entries[j].element
                    for j in range(path.length)
                    if side_flags[j, mask] and table[j, mask]
                }
                assert picked == set(sol.chosen)


def test_matching_exceeds_flags(rng):
    from sspilab.feasibility import greedy_prophet

    inst = random_instance("matching", 4, rng)
    reals = inst.draw_realizations(rng)
    ens = ConfigEnsemble(inst.structure, reals)
    flags = ens.matching_exceeds()
    for mask in range(ens.num_configs):
        rewards, samples = {}, {}
        for r in reals:
            if (mask >> r.element) & 1:
                rewards[r.element], samples[r.element] = r.y, r.z
            else:
                rewards[r.element], samples[r.element] = r.z, r.y
        offline = greedy_prophet(inst.structure, samples)
        thr = {u: None for u in range(inst.structure.vertex_count)}
        for e in offline.chosen:
            u, v = inst.structure.edges[e]
            thr[u] = thr[v] = samples[e]
        for e in range(4):
            u, v = inst.structure.edges[e]
            want = beats(rewards[e], thr[u]) and beats(rewards[e], thr[v])
            assert bool(flags[e, mask]) == want


def test_transversal_targets_match_policy_scan(rng):
    from sspilab.feasibility import greedy_prophet

    inst = random_instance("transversal", 4, rng)
    t = inst.structure
    reals = inst.draw_realizations(rng)
    ens = ConfigEnsemble(t, reals)
    targets = ens.transversal_targets
    for mask in range(ens.num_configs):
        rewards, samples = {}, {}
        for r in reals:
            if (mask >> r.element) & 1:
                rewards[r.element], samples[r.element] = r.y, r.z
            else:
                rewards[r.element], samples[r.element] = r.z, r.y
        offline = greedy_prophet(t, samples)
        thr = {r: None for r in range(t.right_count)}
        for l, r in offline.assignment.items():
            thr[r] = samples[l]
        for l in range(4):
            want = -1
            if beats(rewards[l], samples[l]):
                for r in t.sorted_neighbors(l):
                    if beats(rewards[l], thr[r]):
                        want = r
                        break
            assert int(targets[l, mask]) == want


def test_exact_opt_matches_config_brute_force(rng):
    for kind, policy in (("matching", "matching"), ("transversal", "transversal")):
        inst = random_instance(kind, 4, rng)
        seed = 11
        rep = estimate_ratio(inst, policy, adversary="fixed", mode="exact", seed=seed)
        reals = inst.draw_realizations(trial_rng(seed, 0))
        n = len(reals)
        total = Fraction(0)
        for mask in range(1 << n):
            rewards = {
                r.element: (r.y if (mask >> r.element) & 1 else r.z) for r in reals
            }
            best = Fraction(0)
            for size in range(n + 1):
                for sub in combinations(range(n), size):
                    if is_independent(inst.structure, sub):
                        value = sum(
                            (Fraction(rewards[e].value) for e in sub), Fraction(0)
                        )
                        best = max(best, value)
            total += best
        assert rep.e_opt == total / (1 << n)


def test_subset_tables_match_is_independent(rng):
    def matching_table(s):
        return np.isin(np.arange(1 << s.ground_size), s.matchings[0])

    for kind, table_of in (("matching", matching_table),
                           ("transversal", lambda s: s.matchable)):
        for _ in range(12):
            structure = random_instance(kind, int(rng.integers(1, 11)), rng).structure
            table = table_of(structure)
            n = structure.ground_size
            assert table.shape == (1 << n,)
            for mask in range(1 << n):
                subset = [e for e in range(n) if (mask >> e) & 1]
                assert bool(table[mask]) == is_independent(structure, subset), (kind, mask)


def test_best_matchings_settle_float_ties():
    # Path 0-1-2-3: the maximal matchings are {0, 2} and {1}. The float sum
    # 1 + 2**-53 rounds to 1.0, a tie with edge 1, but exactly {1} is lighter.
    g = GeneralMatching(4, ((0, 1), (1, 2), (2, 3)))
    tiny = 2.0**-53
    ens = ConfigEnsemble(g, make_realizations([(1.0, 1.0), (1.0, 1.0), (tiny, tiny)]))
    live = np.ones((3, ens.num_configs), dtype=bool)
    assert element_masks(min_maximal_accepts(ens, live)).tolist() == [0b010] * ens.num_configs
    assert element_masks(optimum_accepts(ens)).tolist() == [0b101] * ens.num_configs


@pytest.mark.parametrize("cells", [1 << 20, 1])
def test_best_matchings_settle_ties_across_wide_exponents(cells, monkeypatch):
    # A subnormal point mass beside two of 1e308: the float totals of {0, 2}
    # and {1} tie, and their exact totals need 2,098 bits, past int64. With
    # one cell per block, every tied row is settled in a block of its own.
    monkeypatch.setattr(exact_module, "CHUNK_CELLS", cells)
    g = GeneralMatching(4, ((0, 1), (1, 2), (2, 3)))
    big, tiny = 1e308, 5e-324
    ens = ConfigEnsemble(g, make_realizations([(big, big), (big, big), (tiny, tiny)]))
    assert exact_module.exact_table(ens.w_val, 3)[0].dtype == object  # python ints
    live = np.ones((3, ens.num_configs), dtype=bool)
    assert element_masks(min_maximal_accepts(ens, live)).tolist() == [0b010] * ens.num_configs
    assert element_masks(optimum_accepts(ens)).tolist() == [0b101] * ens.num_configs


def test_min_maximal_matchings_do_not_depend_on_the_block_size(monkeypatch):
    # With one column per block, every block holds one live set.
    inst = random_instance("matching", 8, np.random.default_rng(7))
    ens = ConfigEnsemble(inst.structure, inst.draw_realizations(trial_rng(7, 0)))
    live = ens.matching_exceeds()
    assert len(np.unique(element_masks(live))) > 1
    whole = min_maximal_accepts(ens, live)
    monkeypatch.setattr(exact_module, "CHUNK_CELLS", 1)
    assert (min_maximal_accepts(ens, live) == whole).all()


def test_matching_search_memory_is_bounded_with_distinct_live_sets():
    # 13 disjoint edges: each edge is live on its own coin, so all 8,192
    # configurations have distinct live sets, and all 8,192 edge subsets are
    # matchings. A (live sets, matchings) table would take 64 MB.
    k = 13
    fs = GeneralMatching(2 * k, tuple((2 * i, 2 * i + 1) for i in range(k)))
    inst = Instance("disjoint", fs, {e: uniform(0.0, 1.0 + e) for e in range(k)})
    tracemalloc.start()
    try:
        worst = estimate_ratio(inst, "matching", adversary="exhaustive-min", mode="exact", seed=1)
        report = verify_lemma("match-sufficient", fs, inst.draw_realizations(trial_rng(1, 0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    # Every arrival order accepts every live edge.
    inc = estimate_ratio(inst, "matching", adversary="increasing", mode="exact", seed=1)
    assert worst.e_alg == inc.e_alg
    assert report.passed


def test_ensemble_constructor_memory_is_bounded_by_its_coin_table():
    # The (36, 2^18) coin table is 9 MiB of booleans. Filled row by row, the
    # constructor peaked at 13.3 MiB; one shifted (36, 2^18) int64 table took
    # it to 83 MiB.
    n = 18
    inst = random_instance("matching", n, np.random.default_rng(5))
    reals = inst.draw_realizations(trial_rng(5, 0))
    tracemalloc.start()
    try:
        ens = ConfigEnsemble(inst.structure, reals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20
    cols = np.random.default_rng(1).integers(0, 1 << n, size=500)
    for j, e in enumerate(ens.elem):
        assert np.array_equal(ens.heads[j, cols], ((cols >> e) & 1 == 1) == ens.is_y[j])


def _traced_exact_alg(inst, policy, adversary, seed):
    """E_ALG and z-violations from the traced policies, one configuration
    and one partition at a time, summed as exact fractions."""
    reals = inst.draw_realizations(trial_rng(seed, 0))
    n = len(reals)
    if policy == "reduction-graphic":
        g = inst.structure
        partitions = [
            graphic_partition(g, sigma=sigma)[0]
            for sigma in permutations(range(g.edge_ends[0]))
        ]
    else:
        partitions = [inst.partition]
    total = Fraction(0)
    z_violations = 0
    for mask in range(1 << n):
        rewards, samples = {}, {}
        for r in reals:
            high = (mask >> r.element) & 1
            rewards[r.element], samples[r.element] = (r.y, r.z) if high else (r.z, r.y)
        order = adversarial_order(policy, inst.structure, samples, rewards, adversary).order
        for partition in partitions:
            name = "reduction-custom" if partition is not None else policy
            trace = run_policy(name, inst.structure, samples, rewards, order, partition=partition)
            chosen = trace.chosen.chosen
            total += sum((Fraction(rewards[e].value) for e in chosen), Fraction(0))
            z_violations += sum(rewards[e] < samples[e] for e in chosen)
    return total / ((1 << n) * len(partitions)), z_violations


@pytest.mark.parametrize("kind, policy", [
    ("matching", "matching"),
    ("transversal", "transversal"),
    ("truncated-partition", "laminar"),
    ("rank1", "rank1"),
    ("graphic", "reduction-graphic"),
    ("simple-partition", "reduction-custom"),
])
def test_batched_alg_matches_traced_policies(kind, policy, rng):
    for i in range(5):
        inst = random_instance(kind, int(rng.integers(1, 8)), rng)
        n = inst.ground_size
        if i % 2 == 0:  # point masses at 0 on some elements
            dists = dict(inst.distributions)
            for e in rng.choice(n, size=1 + n // 3, replace=False):
                dists[int(e)] = point_mass(0.0)
            inst = replace(inst, distributions=dists)
        if policy == "reduction-custom":
            labels = rng.integers(0, n + 1, size=n)  # label n leaves an element out
            groups = (tuple(int(e) for e in np.flatnonzero(labels == g)) for g in range(n))
            inst = replace(
                inst, partition=SimplePartition(tuple(g for g in groups if g)),
                partition_alpha=2.0,
            )
        seed = int(rng.integers(0, 100))
        for adversary in ("fixed", "increasing", "exhaustive-min"):
            report = estimate_ratio(inst, policy, adversary=adversary, mode="exact", seed=seed)
            want = _traced_exact_alg(inst, policy, adversary, seed)
            assert (report.e_alg, report.z_violations) == want, (i, adversary)


def test_rank1_on_several_groups_matches_traced_policy(rng):
    # Batched rank1 runs as one group of capacity 1; the traced rank1_policy
    # reads the groups of the truncated partition not at all.
    for i in range(6):
        inst = several_group_rank1(int(rng.integers(2, 8)), rng, zeros=i % 2 == 0)
        seed = int(rng.integers(0, 100))
        for adversary in ("fixed", "increasing", "exhaustive-min"):
            report = estimate_ratio(inst, "rank1", adversary=adversary, mode="exact", seed=seed)
            want = _traced_exact_alg(inst, "rank1", adversary, seed)
            assert (report.e_alg, report.z_violations) == want, (i, adversary)


def test_group_thresholds_are_tagged_largest_samples():
    # Every sample is worth 0. Where both rewards are the larger values,
    # element 0's reward (0, tiebreak 0.9) beats the largest sample (0, 0.2)
    # in the tagged order, arrives first in increasing order and fills the
    # rank-1 group, so element 1's reward 1.0 is rejected, as in the traced
    # policy.
    fs = TruncatedPartition(((0, 1),), (1,), 1)
    reals = [
        ElementRealization(0, tv(0.0, 0.9, 0), tv(0.0, 0.1, 0)),
        ElementRealization(1, tv(1.0, 0.5, 1), tv(0.0, 0.2, 1)),
    ]
    ens = ConfigEnsemble(fs, reals)
    ((grouping, _),) = reduction_partitions(Instance("two", fs, {}), "rank1")
    run = policy_run(ens, "rank1", np.argsort(-ens.ridx, axis=0), grouping)
    acc = run.accepted
    for mask in range(4):
        rewards, samples = {}, {}
        for r in reals:
            high = (mask >> r.element) & 1
            rewards[r.element], samples[r.element] = (r.y, r.z) if high else (r.z, r.y)
        order = adversarial_order("rank1", fs, samples, rewards, "increasing").order
        chosen = run_policy("rank1", fs, samples, rewards, order).chosen.chosen
        assert set(np.flatnonzero(acc[:, mask]).tolist()) == chosen, mask
    assert acc[:, 0b11].tolist() == [True, False]
