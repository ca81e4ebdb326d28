import json
import math
import multiprocessing
import os
import tracemalloc
from collections import Counter
from concurrent.futures import Future
from fractions import Fraction
from itertools import permutations
from math import comb
from pathlib import Path

import numpy as np
import pytest

import sspilab.exact as exact_module
import sspilab.feasibility as feasibility
from sspilab import harness
from sspilab.cli import main
from sspilab.core import (
    CapExceededError,
    InputError,
    build_sample_path,
    discrete,
    trial_rng,
    uniform,
)
from sspilab.feasibility import Graphic, SimplePartition, TruncatedPartition, graphic_partition
from sspilab.generators import random_instance, star_graphic_instance
from sspilab.harness import (
    CSV_HEADER,
    WORKERS_ENV,
    estimate_ratio,
    report_fields,
    tight_example,
)
from sspilab.instances import Instance, instance_to_document, load_instance
from sspilab.policies import reduction_policy, run_policy

from conftest import tv

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

RANK1_TWO_POINT = Instance(
    "rank1-two-point",
    TruncatedPartition(((0,),), (1,), 1),
    {0: discrete([2.0, 5.0], [0.5, 0.5])},
)


class TestExactMode:
    def test_rank1_two_point_example(self):
        # Seed 0 draws the two distinct atoms, giving the textbook numbers.
        reals = RANK1_TWO_POINT.draw_realizations(trial_rng(0, 0))
        assert sorted([reals[0].y.value, reals[0].z.value]) == [2.0, 5.0]
        report = estimate_ratio(
            RANK1_TWO_POINT, "rank1", adversary="increasing", mode="exact", seed=0
        )
        assert report.e_alg == Fraction(5, 2)
        assert report.e_opt == Fraction(7, 2)
        assert report.e_opt_prime == Fraction(7, 2)
        assert report.ratio == pytest.approx(1.4)
        assert report.ratio <= 2
        assert report.ci is None

    def test_exact_matches_brute_force_over_orders(self, rng):
        # Against a per-configuration full-order minimization running the
        # traced policies.
        cases = [
            ("matching", "matching"),
            ("transversal", "transversal"),
            ("truncated-partition", "laminar"),
            ("rank1", "rank1"),
        ]
        for kind, policy in cases:
            for _ in range(4):
                n = int(rng.integers(1, 5))
                inst = random_instance(kind, n, rng)
                seed = int(rng.integers(0, 100))
                reals = inst.draw_realizations(trial_rng(seed, 0))
                path = build_sample_path(reals)
                total = Fraction(0)
                for mask in range(1 << n):
                    rewards, samples = {}, {}
                    for r in reals:
                        if (mask >> r.element) & 1:
                            rewards[r.element], samples[r.element] = r.y, r.z
                        else:
                            rewards[r.element], samples[r.element] = r.z, r.y
                    best = None
                    for perm in permutations(range(n)):
                        t = run_policy(policy, inst.structure, samples, rewards, perm)
                        value = sum(
                            (Fraction(rewards[e].value) for e in t.chosen.chosen),
                            Fraction(0),
                        )
                        if best is None or value < best:
                            best = value
                    total += best
                want = total / (1 << n)
                got = estimate_ratio(
                    inst, policy, adversary="exhaustive-min", mode="exact", seed=seed
                ).e_alg
                assert got == want

    def test_exact_reduction_graphic_sigma_average(self, rng):
        # Engine average over all vertex orders equals the per-sigma average
        # of custom reductions pinned to each order.
        inst = random_instance("graphic", 3, rng)
        g = inst.structure
        seed = 7
        got = estimate_ratio(
            inst, "reduction-graphic", adversary="increasing", mode="exact", seed=seed
        )
        acc = Fraction(0)
        count = 0
        for sigma in permutations(range(g.vertex_count)):
            partition, _ = graphic_partition(g, sigma=sigma)
            pinned = Instance(inst.name, g, inst.distributions, partition, 2.0)
            rep = estimate_ratio(
                pinned, "reduction-custom", adversary="increasing",
                mode="exact", seed=seed,
            )
            acc += rep.e_alg
            count += 1
        assert got.e_alg == acc / count

    def test_exact_reduction_graphic_replays_each_partition_once(self, monkeypatch):
        # Groups have capacity 1, so only the edge partition matters, not its
        # labels: the 3! vertex orders of a triangle give 3 partitions (the
        # first vertex's two edges, and the third edge), each twice.
        edges = ((0, 1), (1, 2), (0, 2))
        inst = Instance("triangle", Graphic(3, edges), {e: uniform(0.0, 1.0 + e) for e in range(3)})
        partitions = exact_module.reduction_partitions(inst, "reduction-graphic")
        assert [weight for _, weight in partitions] == [2, 2, 2]
        assert sorted(
            sorted(np.bincount(group).tolist()) for (group, _), _ in partitions
        ) == [[1, 2]] * 3
        runs = []
        policy_run = harness.policy_run
        monkeypatch.setattr(harness, "policy_run", lambda *a: runs.append(a) or policy_run(*a))
        got = estimate_ratio(inst, "reduction-graphic", adversary="increasing", mode="exact", seed=2)
        assert len(runs) == 3
        acc = Fraction(0)
        for sigma in permutations(range(3)):
            partition, _ = graphic_partition(inst.structure, sigma=sigma)
            pinned = Instance(inst.name, inst.structure, inst.distributions, partition, 2.0)
            acc += estimate_ratio(
                pinned, "reduction-custom", adversary="increasing", mode="exact", seed=2
            ).e_alg
        assert got.e_alg == acc / 6

    def test_exact_reduction_graphic_keeps_one_vertex_order_alive(self):
        # 720 vertex orders of (11, 2048) flags each: about 16 MB when all
        # of them are held at once, about 1 MB when each is summed as made.
        edges = ((3, 5), (2, 5), (0, 4), (1, 3), (3, 4), (0, 4), (3, 1), (0, 4), (2, 4),
                 (3, 5), (4, 2))
        inst = Instance("g6", Graphic(6, edges), {e: uniform(0.0, 1.0 + e) for e in range(11)})
        tracemalloc.start()
        try:
            report = estimate_ratio(
                inst, "reduction-graphic", adversary="increasing", mode="exact", seed=1
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert report.e_alg == Fraction(9660997568636604071, 864691128455135232)
        assert report.z_violations == 0

    @pytest.mark.parametrize("vertices, edges", [
        (10, ((2, 5), (5, 9), (2, 9), (9, 7))),  # 4 of 10 vertices touched
        (7, ((0, 1), (1, 2), (2, 3), (3, 5), (5, 6), (0, 6), (1, 5))),  # vertex 4 isolated
    ], ids=["10-declared-4-touched", "7-declared-6-touched"])
    def test_exact_reduction_graphic_ignores_isolated_vertices(self, vertices, edges):
        # An isolated vertex owns no edge, so every vertex-order partition
        # keeps its probability: the Fractions are those of the graph
        # relabelled onto its touched vertices, and the enumeration cap
        # counts touched vertices (7 declared ones exited 3 once).
        touched = sorted({v for edge in edges for v in edge})
        label = {v: i for i, v in enumerate(touched)}
        relabelled = tuple((label[u], label[v]) for u, v in edges)
        laws = {e: uniform(0.0, 1.0 + e) for e in range(len(edges))}
        for adversary in ("fixed", "increasing", "exhaustive-min"):
            got, want = (
                estimate_ratio(Instance("g", g, laws), "reduction-graphic",
                               adversary=adversary, mode="exact", seed=5)
                for g in (Graphic(vertices, edges), Graphic(len(touched), relabelled))
            )
            assert (got.e_alg, got.e_opt, got.e_opt_prime, got.z_violations) == (
                want.e_alg, want.e_opt, want.e_opt_prime, want.z_violations)
        seven = Instance("g7", Graphic(7, ((0, 1), (2, 3), (4, 5), (5, 6))), laws)
        with pytest.raises(CapExceededError, match="touched vertices"):
            estimate_ratio(seven, "reduction-graphic", mode="exact", seed=5)

    def test_vertex_ids_past_int16_are_their_own_vertices(self, tmp_path, capsys, monkeypatch):
        # Vertex 65,536 once took vertex 0's int16 component label, which
        # closed a cycle that is not there: exact E_OPT read 0.739 and
        # Monte Carlo E_ALG exceeded E_OPT. Vertices are numbered among the
        # touched ones, so the reports are those of the relabelled graph.
        monkeypatch.setenv(WORKERS_ENV, "1")
        rows = []
        for vertices, far in ((70_000, 65_536), (4, 3)):
            edges = [[0, 1], [1, 2], [0, 2], [0, far]]
            doc = {"name": "wrap", "structure": {"kind": "graphic", "vertices": vertices,
                                                 "edges": edges},
                   "distributions": {str(e): {"kind": "uniform", "a": 0.0, "b": 1.0}
                                     for e in range(4)},
                   "partition": {"alpha": 2.0, "groups": [[e] for e in range(4)]}}
            path = tmp_path / f"wrap-{vertices}.json"
            path.write_text(json.dumps(doc))
            for mode in ("exact", "mc"):
                assert main(["--seed", "3", "--trials", "2000", "--format", "csv", "simulate",
                             "--instance", str(path), "--policy", "reduction-custom",
                             "--mode", mode]) == 0
                rows.append(capsys.readouterr().out.strip().split("\n")[-1].rsplit(",", 1)[0])
        assert rows[:2] == rows[2:]
        e_opt = Fraction(rows[0].split(",")[4])
        assert e_opt == Fraction(5618368661442455, 4503599627370496)

    def test_exact_mode_caps(self, rng, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        inst = random_instance("rank1", 17, rng)
        with pytest.raises(CapExceededError):
            estimate_ratio(inst, "rank1", mode="exact", seed=0)
        # Only matching still searches, so only matching is capped, at the
        # subset-table limit in both modes.
        match17 = random_instance("matching", 17, rng)
        for mode in ("exact", "mc"):
            with pytest.raises(CapExceededError):
                estimate_ratio(
                    match17, "matching", adversary="exhaustive-min", mode=mode,
                    trials=4, seed=0,
                )
        inst9 = random_instance("rank1", 9, rng)
        worst, inc = (
            estimate_ratio(inst9, "rank1", adversary=a, mode="exact", seed=0)
            for a in ("exhaustive-min", "increasing")
        )
        assert worst.e_alg == inc.e_alg

    def test_exact_rejects_random_adversary(self, rng):
        inst = random_instance("rank1", 3, rng)
        with pytest.raises(InputError, match="--adversary"):
            estimate_ratio(inst, "rank1", adversary="random", mode="exact", seed=0)

    def test_reduction_custom_needs_partition(self, rng):
        inst = random_instance("simple-partition", 3, rng)
        for mode in ("exact", "mc"):
            with pytest.raises(InputError, match="partition block"):
                estimate_ratio(inst, "reduction-custom", mode=mode, trials=5, seed=0)

    def test_policy_structure_mismatch(self, rng):
        inst = random_instance("matching", 3, rng)
        with pytest.raises(InputError, match="--policy"):
            estimate_ratio(inst, "laminar", mode="exact", seed=0)


class TestMonteCarlo:
    def test_exact_and_mc_agree_within_three_se(self, rng, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        for kind, policy in (
            ("matching", "matching"),
            ("truncated-partition", "laminar"),
        ):
            inst = random_instance(kind, 4, rng)
            mc = estimate_ratio(
                inst, policy, adversary="increasing", trials=4000, seed=9,
                mode="mc",
            )
            # Expectation over fresh realizations: average exact runs over
            # several drawn realization sets.
            exact_vals = [
                float(
                    estimate_ratio(
                        inst, policy, adversary="increasing", mode="exact", seed=s
                    ).e_alg
                )
                for s in range(40)
            ]
            anchor = float(np.mean(exact_vals))
            spread = float(np.std(exact_vals) / math.sqrt(len(exact_vals)))
            se = (mc.ci or 0.0) / 1.96
            assert abs(mc.e_alg - anchor) <= 3 * (se + spread) + 1e-9

    def test_reproducible_across_workers(self, rng, monkeypatch):
        inst = random_instance("matching", 4, rng)
        fields = []
        for workers in ("1", "2"):
            monkeypatch.setenv(WORKERS_ENV, workers)
            rep = estimate_ratio(inst, "matching", adversary="random", trials=3000,
                                 seed=3, mode="mc")
            fields.append({**report_fields(rep), "wall_ms": None})
        assert fields[0] == fields[1]

    def test_z_violations_counted(self, rng, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        inst = random_instance("matching", 4, rng)
        rep = estimate_ratio(inst, "matching", adversary="random", trials=500,
                             seed=3, mode="mc")
        assert rep.z_violations == 0

    def test_reduction_graphic_exhaustive_min_is_increasing(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        # The adversary and the policy must see the same random partition:
        # the minimizing order is the increasing one, so both runs coincide.
        inst = load_instance(FIXTURES / "graphic-star.json")
        worst, inc = (
            estimate_ratio(inst, "reduction-graphic", adversary=a, trials=600,
                           seed=1, mode="mc")
            for a in ("exhaustive-min", "increasing")
        )
        assert worst.e_alg == inc.e_alg


# (k, trials, seed, E_ALG, E_OPT, E_OPT', ci) of tight_example with one
# stream per per-trial count and per kind of reward (`harness._tight_trials`),
# each trial drawing k + 3 values and ceil(k/64) raw words. 20,001 trials is a
# multiple of neither the tile nor the block; k = 10,000 has 3-trial tiles.
TIGHT_PINS = [
    (2, 20_001, 1,
     0.7038125076944156, 1.5016703572344337, 1.5016703572344337, 0.008056621620863309),
    (200, 20_001, 0,
     50.49324307416565, 199.49991429838929, 199.49991429838929, 0.4082214298239461),
    (200, 45_000, 3,
     50.54373462587874, 199.49988284206034, 199.49988284206034, 0.27158335114981746),
    (210, 40_000, 2,
     52.78578141658031, 209.50002963605422, 209.50002963605422, 0.30300670894240994),
    (10_000, 1_000, 5,
     2464.2238529285464, 9999.499962174476, 9999.499962174476, 88.66355099235825),
    (7, 5_000, 4,
     2.0887226518528466, 6.500161363701303, 6.500161363701303, 0.03957144550520947),
    (50, 20_001, 5,
     12.952831142775292, 49.49997078915123, 49.49997078915123, 0.10706791345755856),
]


def star_e_alg(k: int) -> Fraction:
    """Exact E_ALG of the star tight example with k leaf edges.

    L ~ U{0..k} leaves precede the center. A leaf edge collects its reward
    when it beats its sample: probability 1/2, mean u of 2/3. Among the 2m
    sorted u-values of the center's m = k - L edges every value after the
    last sample is a reward, so the pick is the value just after it: the last
    sample sits at rank p with probability C(p-1, m-1)/C(2m, m), and
    E[U_(p+1)] = (p+1)/(2m+1); p = 2m picks nothing. A value is lo + u/k."""
    lo = 1 - Fraction(1, k)
    total = Fraction(0)
    for leaves in range(k + 1):
        total += Fraction(leaves, 2) * (lo + Fraction(2, 3 * k))
        m = k - leaves
        if m:
            ranks = range(m, 2 * m)  # the last sample's rank, below 2m
            ways = sum(comb(p - 1, m - 1) for p in ranks)
            rank_sum = sum(comb(p - 1, m - 1) * (p + 1) for p in ranks)
            total += (Fraction(ways) * lo + Fraction(rank_sum, (2 * m + 1) * k)) / comb(2 * m, m)
    return total / (k + 1)


def brute_star_e_alg(k: int) -> Fraction:
    """Exact E_ALG of the star tight example by brute force over orders.

    The k rewards and k samples are IID, so each of their (2k)! relative
    orders is equally likely, and given the order the draw of rank r (1 the
    least) has mean u r/(2k + 1), a value lo + r/((2k + 1)k). The policy
    only compares draws, so given the order its mean total is its total at
    those means. The center's place in the vertex order is uniform, so L
    leaves, for each L in 0..k, own an edge each, and the center owns the
    rest. The traced reduction runs with those groups and increasing
    rewards."""
    lo = 1 - Fraction(1, k)
    mean = [lo + Fraction(r, (2 * k + 1) * k) for r in range(2 * k + 1)]
    total, runs = Fraction(0), 0
    for rank in permutations(range(1, 2 * k + 1)):  # rewards, then samples
        rewards = {e: tv(float(mean[rank[e]]), 0.5, e) for e in range(k)}
        samples = {e: tv(float(mean[rank[k + e]]), 0.5, e) for e in range(k)}
        arrivals = sorted(rewards.items(), key=lambda item: item[1])
        for leaves in range(k + 1):
            groups = (*((e,) for e in range(leaves)), tuple(range(leaves, k)))
            trace = reduction_policy(SimplePartition(groups), samples, arrivals)
            total += sum(mean[rank[e]] for e in trace.chosen.chosen)
            runs += 1
    return total / runs


class TestTightExample:
    @pytest.mark.parametrize("k", [2, 3])
    def test_exact_e_alg_equals_a_brute_force_over_orders(self, k):
        assert brute_star_e_alg(k) == star_e_alg(k)

    def test_vectorized_rule_matches_traced_policy(self, rng):
        # Hand-built rewards and samples fed to the traced reduction policy,
        # and, sorted into the kernel's kinds, to the kernel. In trial t the
        # policy's vertex order puts the leaves of the first leaves[t] edges
        # before the center.
        k = 4
        g = Graphic(k + 1, tuple((0, i + 1) for i in range(k)))
        lo = 1.0 - 1.0 / k
        leaves = np.arange(40) % (k + 1)  # every count from 0 to k
        rewards = rng.random((len(leaves), k))
        samples = rng.random((len(leaves), k))
        lead = np.arange(k) < leaves[:, None]
        beats = rewards > samples
        threshold = np.where(lead, -np.inf, samples).max(axis=1)
        high = ~lead & (rewards > threshold[:, None])
        kinds = (lead & beats, lead & ~beats, high, ~lead & ~high)
        counts = np.array([kind.sum(axis=1) for kind in kinds])
        alg, opt = harness.tight_tile(
            counts, np.concatenate([lo + rewards[kind] / k for kind in kinds])
        )
        for t, p in enumerate(leaves.tolist()):
            sigma = (*range(1, p + 1), 0, *range(p + 1, k + 1))
            partition, _ = graphic_partition(g, sigma=sigma)
            values = lo + rewards[t] / k
            reward = {e: tv(values[e], 0.5, e) for e in range(k)}
            sample = {e: tv(lo + samples[t, e] / k, 0.5, e) for e in range(k)}
            order = sorted(range(k), key=lambda e: reward[e].key)
            trace = run_policy(
                "reduction-custom", g, sample, reward, order, partition=partition,
            )
            assert alg[t] == pytest.approx(trace.chosen.total, rel=1e-12, abs=1e-12)
            assert opt[t] == pytest.approx(values.sum(), rel=1e-12)

    def test_draws_follow_the_star_law(self):
        # The order statistics each trial draws, against brute-force draws of
        # every reward and sample (two-sample KS tests, fixed seeds): how many
        # of L leaf edges beat their sample (Bin(L, ½), with L past one raw
        # word), a leaf edge's reward when it beats its sample (√V) and when
        # not (1 - √V); for m center edges the largest sample T (V^(1/m)),
        # how many rewards exceed it (Bin(m, 1 - T)), where the rewards above
        # and below it fall in (T, 1) and (0, T), and the smallest reward
        # above it and the sum of the rewards as the kernel reads them.
        # k = 1 keeps the values in u-space (lo = 0).
        stats = pytest.importorskip("scipy.stats")
        n = 4_000
        brute = np.random.default_rng(71)
        pairs = brute.random((2 * n, 2))
        won = pairs[:, 0] > pairs[:, 1]
        for leaves in (1, 70):
            count = harness._winners(np.random.default_rng(70 + leaves), np.full(n, leaves), 100)
            rewards, samples = brute.random((2, n, leaves))
            assert stats.kstest(count, (rewards > samples).sum(axis=1),
                                method="asymp").pvalue > 0.01
        drawn = np.random.default_rng(72).random(2 * n)
        harness._as_values(drawn, np.array([[n], [n], [0], [0]]), np.zeros(1), 1)
        assert stats.kstest(drawn[:n], pairs[won, 0]).pvalue > 0.01
        assert stats.kstest(drawn[n:], pairs[~won, 0]).pvalue > 0.01
        for m in (1, 5, 40):
            samples, rewards = brute.random((2, n, m))
            top = samples.max(axis=1)
            above = rewards > top[:, None]
            threshold, count = harness._center_draws(
                np.random.default_rng(73 + m), np.random.default_rng(74 + m), np.full(n, m)
            )
            assert stats.kstest(threshold, top).pvalue > 0.01
            assert stats.kstest(count, above.sum(axis=1), method="asymp").pvalue > 0.01
            counts = np.array([np.zeros(n, int), np.zeros(n, int), count, m - count])
            drawn = np.random.default_rng(75 + m).random(n * m)
            harness._as_values(drawn, counts, threshold, 1)
            high = count.sum()
            top_drawn = np.repeat(threshold, count), np.repeat(threshold, m - count)
            assert stats.kstest((drawn[:high] - top_drawn[0]) / (1.0 - top_drawn[0]),
                                ((rewards - top[:, None]) / (1.0 - top[:, None]))[above]
                                ).pvalue > 0.01
            assert stats.kstest(drawn[high:] / top_drawn[1],
                                (rewards / top[:, None])[~above]).pvalue > 0.01
            alg, opt = harness.tight_tile(counts, drawn)
            brute_alg = np.where(above, rewards, np.inf).min(axis=1)
            assert stats.kstest(alg[count > 0], brute_alg[above.any(axis=1)]).pvalue > 0.01
            assert stats.kstest(opt, rewards.sum(axis=1)).pvalue > 0.01

    @pytest.mark.parametrize("k, seed", [(3, 31), (8, 38)])
    def test_agrees_with_the_general_path(self, k, seed):
        # Drawing the vertex order (estimate_ratio) and drawing only the
        # number of leaves before the center give the same expectations.
        trials = 20_000
        fast = tight_example(k, trials=trials, seed=seed)
        general = estimate_ratio(star_graphic_instance(k), "reduction-graphic",
                                 "increasing", trials=trials, seed=seed, mode="mc")
        assert abs(fast.e_alg - general.e_alg) <= 4 * math.hypot(fast.ci, general.ci)
        assert abs(general.e_alg - float(star_e_alg(k))) <= 4 * general.ci
        # E_OPT sums k uniforms on an interval of width 1/k.
        opt_half = 1.96 * math.sqrt(k / 12) / k / math.sqrt(trials)
        assert abs(fast.e_opt - general.e_opt) <= 4 * math.sqrt(2) * opt_half

    @pytest.mark.parametrize(
        "k, trials, seed, e_alg, e_opt, e_opt_prime, ci", TIGHT_PINS,
        ids=[f"k{k}-trials{t}-seed{s}" for k, t, s, *_ in TIGHT_PINS],
    )
    def test_outputs_are_pinned(self, k, trials, seed, e_alg, e_opt,
                                e_opt_prime, ci):
        rep = tight_example(k, trials=trials, seed=seed)
        assert (rep.e_alg, rep.e_opt, rep.e_opt_prime, rep.ci) == (
            e_alg, e_opt, e_opt_prime, ci
        )

    def test_outputs_do_not_depend_on_the_tile(self, monkeypatch):
        k = 50
        want = tight_example(k, trials=2_001, seed=9)
        for cells in (1, 7 * k, 1 << 22):
            monkeypatch.setattr(harness, "TIGHT_TILE_CELLS", cells)
            rep = tight_example(k, trials=2_001, seed=9)
            assert (rep.e_alg, rep.e_opt, rep.ci) == (want.e_alg, want.e_opt, want.ci)

    def test_outputs_do_not_depend_on_the_block(self, monkeypatch):
        # Every trial's totals are the same for any block size; only the
        # float sums over the blocks are added in another order.
        k = 50

        def run():
            totals = harness._tight_trials(k, 2_001, 9)
            return [np.concatenate(kind) for kind in zip(*totals)], tight_example(
                k, trials=2_001, seed=9
            )

        want, want_rep = run()
        for block in (1, 7 * k, 1 << 20):
            monkeypatch.setattr(harness, "TIGHT_BLOCK", block)
            got, rep = run()
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert (rep.e_alg, rep.e_opt, rep.ci) == pytest.approx(
                (want_rep.e_alg, want_rep.e_opt, want_rep.ci), rel=1e-12
            )

    @pytest.mark.parametrize("k, seed", [(2, 41), (3, 42), (8, 43), (50, 44), (200, 45)])
    def test_matches_the_exact_expectations(self, k, seed):
        trials = 20_000
        rep = tight_example(k, trials=trials, seed=seed)
        assert abs(rep.e_alg - float(star_e_alg(k))) <= 4 * rep.ci
        # E_OPT sums k uniforms on an interval of width 1/k: k - 1/2.
        opt_half = 1.96 * math.sqrt(k / 12) / k / math.sqrt(trials)
        assert abs(rep.e_opt - (k - 0.5)) <= 4 * opt_half

    def test_exact_e_alg_values(self):
        assert star_e_alg(2) == Fraction(7, 10)
        for k, value in ((3, 1.007738), (8, 2.350717), (50, 12.906247), (200, 50.414123)):
            assert round(float(star_e_alg(k)), 6) == value

    @pytest.mark.parametrize("k, trials", [(200, 60_000), (10_000, 3)])
    def test_memory_is_bounded_by_the_tile(self, k, trials):
        tracemalloc.start()
        try:
            tight_example(k, trials=trials, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("seed", [0, 1])
    def test_memory_at_the_k_cap(self, seed):
        # One trial of 2**22 leaves: one float buffer of k cells (32 MiB)
        # for all its rewards, mapped in place. One more float array of the
        # larger group would exceed the bound: the leaf-owned edges are 80%
        # of the row at seed 0, and the center's are 98.5% at seed 1.
        tracemalloc.start()
        try:
            tight_example(harness.TIGHT_K_CAP, trials=1, seed=seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20

    def test_small_k_bracket(self):
        rep = tight_example(2, trials=20_000, seed=1)
        assert 1.0 < rep.ratio < 4.0

    def test_k_must_be_at_least_two(self):
        with pytest.raises(InputError, match="--k"):
            tight_example(1)


class TestReports:
    def test_csv_header_and_shape(self, capsys):
        assert main(["--trials", "500", "--format", "csv", "tight-example", "--k", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 2

    def test_json_field_order(self, tmp_path, capsys):
        path = tmp_path / "rank1.json"
        path.write_text(json.dumps(instance_to_document(RANK1_TWO_POINT)))
        assert main(["simulate", "--instance", str(path), "--policy", "rank1",
                     "--mode", "exact"]) == 0
        text = capsys.readouterr().out
        keys = [line.split('"')[1] for line in text.splitlines() if '":' in line]
        assert keys == [
            "policy", "adversary", "mode", "E_ALG", "E_OPT", "E_OPT_PRIME",
            "ratio", "ci", "seed", "wall_ms",
        ]
        assert '"E_ALG": "5/2"' in text

    def test_exact_rationals_rendered_as_fractions(self):
        rep = estimate_ratio(RANK1_TWO_POINT, "rank1", mode="exact", seed=0)
        fields = report_fields(rep)
        assert fields["E_ALG"] == "5/2"
        assert fields["ci"] == ""

    def test_unknown_mode_is_a_fault_of_the_program(self):
        # argparse restricts --mode, so only a fault of the program gets
        # here; RuntimeError exits 4, not 2.
        inst = random_instance("rank1", 3, np.random.default_rng(1))
        with pytest.raises(RuntimeError, match="unknown mode"):
            estimate_ratio(inst, "rank1", mode="exhaustive")


def test_worker_count_env(monkeypatch):
    from sspilab.harness import worker_count

    monkeypatch.setenv("SSPILAB_WORKERS", "5")
    assert worker_count() == 5
    monkeypatch.setenv("SSPILAB_WORKERS", "0")
    assert worker_count() == 1
    monkeypatch.delenv("SSPILAB_WORKERS")
    assert worker_count() == harness.usable_cpus()


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records the pool size it is asked
    for, runs the initializer once and each chunk when it is submitted, so
    no process starts."""

    def __init__(self, sizes: list, max_workers: int, initializer, initargs) -> None:
        sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def submit(self, fn, arg) -> Future:
        future = Future()
        future.set_result(fn(arg))
        return future


@pytest.mark.parametrize("cpus, pool", [(1, None), (2, 2), (64, 3)])
def test_pool_is_bounded_by_the_chunks_and_the_cpus(monkeypatch, cpus, pool):
    # A pool starts all its workers at once: 10**6 asked for over 3 chunks
    # get at most 3, and no more than the CPUs this process may use.
    inst = random_instance("matching", 4, np.random.default_rng(8))
    monkeypatch.setenv(WORKERS_ENV, "1")
    want = report_fields(estimate_ratio(inst, "matching", "random", 3 * harness.MC_CHUNK, 6))
    sizes = []
    monkeypatch.setattr(harness, "ProcessPoolExecutor", lambda **kw: _InlinePool(sizes, **kw))
    monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
    monkeypatch.setenv(WORKERS_ENV, "1000000")
    got = report_fields(estimate_ratio(inst, "matching", "random", 3 * harness.MC_CHUNK, 6))
    assert sizes == ([] if pool is None else [pool])
    assert {**got, "wall_ms": None} == {**want, "wall_ms": None}


@pytest.mark.skipif(harness.usable_cpus() < 2, reason="needs two CPUs")
@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patch reaches the workers only when they fork")
def test_pool_workers_receive_the_command_once(monkeypatch, tmp_path):
    # Each worker gets the instance once, so it builds the structure's
    # subset tables once, not once per chunk. The patch is made before the
    # pool forks; a fresh instance keeps the tables of the 1-worker run out
    # of the workers.
    trials = 8 * harness.MC_CHUNK
    monkeypatch.setenv(WORKERS_ENV, "1")
    args = ("matching", "fixed", trials, 31)

    def report():
        inst = random_instance("matching", 16, np.random.default_rng(31))
        return report_fields(estimate_ratio(inst, *args))

    want = report()
    log = tmp_path / "builds"
    union = feasibility._subset_union

    def logged(masks):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        return union(masks)

    monkeypatch.setattr(feasibility, "_subset_union", logged)
    monkeypatch.setenv(WORKERS_ENV, "2")
    got = report()
    builds = Counter(log.read_text().split())
    assert builds and max(builds.values()) == 1 and len(builds) <= 2
    assert str(os.getpid()) not in builds
    assert {**got, "wall_ms": None} == {**want, "wall_ms": None}


class _ChunkLimit(Exception):
    pass


def _stop_after_three_chunks(args):
    start, stop = args
    if start >= 3 * harness.MC_CHUNK:
        raise _ChunkLimit(start)
    return np.array([stop - start, 0.0])


@pytest.mark.parametrize("workers", ["1", "2"])
def test_run_chunks_memory_does_not_grow_with_the_chunks(monkeypatch, workers):
    # 10**6 chunks: the chunks are made and folded as they come, so the
    # fold reaches the fourth chunk's error with little memory in use.
    monkeypatch.setenv(WORKERS_ENV, workers)
    tracemalloc.start()
    try:
        with pytest.raises(_ChunkLimit):
            harness.mc_summary(
                harness.run_chunks(_stop_after_three_chunks, 2048 * 10**6, ()), 2048 * 10**6
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
