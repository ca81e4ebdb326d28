"""The vectorized configuration tables must agree cell-for-cell with the
scalar reference implementations."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from sspilab.core import Configuration, build_sample_path, point_mass, trial_rng
from sspilab.exact import ConfigEnsemble, bitmask_rows
from sspilab.feasibility import (
    Transversal,
    free_index,
    greedy_on_path,
    is_independent,
)
from sspilab.generators import random_instance
from sspilab.harness import estimate_ratio
from sspilab.policies import beats, run_policy

ALL_KINDS = (
    "matching", "transversal", "truncated-partition", "simple-partition", "graphic",
)


def test_heads_table_matches_configurations(rng):
    inst = random_instance("matching", 4, rng)
    reals = inst.draw_realizations(rng)
    path = build_sample_path(reals)
    ens = ConfigEnsemble(inst.structure, reals)
    for mask in range(ens.num_configs):
        config = Configuration.from_heads_mask(path, mask)
        for j in range(path.length):
            assert bool(ens.heads[j, mask]) == (config.coins[j] == "H")


def test_free_tables_match_scalar_free_index(rng):
    for kind in ALL_KINDS:
        for _ in range(6):
            inst = random_instance(kind, int(rng.integers(1, 6)), rng)
            reals = inst.draw_realizations(rng)
            path = build_sample_path(reals)
            ens = ConfigEnsemble(inst.structure, reals)
            for side in "HT":
                table = ens.free(side)
                for mask in range(ens.num_configs):
                    config = Configuration.from_heads_mask(path, mask)
                    for j in range(path.length):
                        assert bool(table[j, mask]) == free_index(
                            inst.structure, path, config, j, side
                        ), (kind, side, mask, j)


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
            ridx = ens.reward_indices()
            for e in ens.elements:
                assert (ridx[ens.bit_of[e]] == ens.reward_index(e)).all()
            for mask in range(ens.num_configs):
                rewards, samples = {}, {}
                for r in reals:
                    if (mask >> r.element) & 1:
                        rewards[r.element], samples[r.element] = r.y, r.z
                    else:
                        rewards[r.element], samples[r.element] = r.z, r.y
                for e in ens.elements:
                    i = int(ens.reward_index(e)[mask])
                    assert path.entries[i].value == rewards[e]
                    assert path.entries[int(ens.sample_index(e)[mask])].value == samples[e]
                    assert (i < ens.absent) == beats(rewards[e], None)
                    for f in ens.elements:
                        j = int(ridx[ens.bit_of[f], mask])
                        assert (i < j) == (rewards[e] > rewards[f])
                        s = int(ens.sample_index(f)[mask])
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
                config = Configuration.from_heads_mask(path, mask)
                sol = greedy_on_path(inst.structure, path, config, side)
                picked = {
                    path.entries[j].element
                    for j in range(path.length)
                    if side_flags[j, mask] and table[j, mask]
                }
                assert picked == set(sol.chosen)


def test_matching_exceeds_flags(rng):
    from sspilab.feasibility import maximal_matching

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
        offline = maximal_matching(inst.structure, samples)
        thr = {u: None for u in range(inst.structure.vertex_count)}
        for e in offline.chosen:
            u, v = inst.structure.edges[e]
            thr[u] = thr[v] = samples[e]
        for e in range(4):
            u, v = inst.structure.edges[e]
            want = beats(rewards[e], thr[u]) and beats(rewards[e], thr[v])
            assert bool(flags[e, mask]) == want


def test_transversal_targets_match_policy_scan(rng):
    from sspilab.feasibility import ordered_maximal_matching

    inst = random_instance("transversal", 4, rng)
    t = inst.structure
    reals = inst.draw_realizations(rng)
    ens = ConfigEnsemble(t, reals)
    targets = ens.transversal_targets()
    for mask in range(ens.num_configs):
        rewards, samples = {}, {}
        for r in reals:
            if (mask >> r.element) & 1:
                rewards[r.element], samples[r.element] = r.y, r.z
            else:
                rewards[r.element], samples[r.element] = r.z, r.y
        offline = ordered_maximal_matching(t, samples)
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
