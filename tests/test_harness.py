import math
import tracemalloc
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import sspilab.exact as exact_module
from sspilab import harness
from sspilab.core import (
    CapExceededError,
    Configuration,
    build_sample_path,
    discrete,
    trial_rng,
    uniform,
)
from sspilab.feasibility import Graphic, TruncatedPartition, graphic_partition
from sspilab.generators import random_instance, star_graphic_instance
from sspilab.harness import (
    CSV_HEADER,
    WORKERS_ENV,
    RatioReport,
    estimate_ratio,
    render_report,
    report_fields,
    tight_example,
)
from sspilab.instances import Instance, load_instance
from sspilab.policies import run_policy

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
        _, partitions = exact_module.reduction_partitions(inst, "reduction-graphic")
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
        with pytest.raises(ValueError):
            estimate_ratio(inst, "rank1", adversary="random", mode="exact", seed=0)

    def test_reduction_custom_needs_partition(self, rng):
        inst = random_instance("simple-partition", 3, rng)
        for mode in ("exact", "mc"):
            with pytest.raises(ValueError, match="partition block"):
                estimate_ratio(inst, "reduction-custom", mode=mode, trials=5, seed=0)

    def test_policy_structure_mismatch(self, rng):
        inst = random_instance("matching", 3, rng)
        with pytest.raises(TypeError):
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


# (k, trials, seed, E_ALG, E_OPT, E_OPT', ci) of tight_example as it was when
# it drew and evaluated each block as four whole arrays. 20,001 trials is a
# multiple of neither the tile nor the block; k = 210 has 19,972-trial blocks
# and k = 10,000 has 419-trial blocks.
TIGHT_PINS = [
    (2, 20_001, 1,
     0.6953197101554435, 1.499344192359512, 1.499344192359512, 0.008069080921818926),
    (200, 20_001, 0,
     50.34755195209542, 199.5000109861865, 199.5000109861865, 0.4065096478855893),
    (200, 45_000, 3,
     50.61184727153543, 199.50015213377887, 199.50015213377887, 0.2724412910585794),
    (210, 40_000, 2,
     53.05435574572549, 209.50013493675877, 209.50013493675877, 0.30227357800851984),
    (10_000, 1_000, 5,
     2579.560038507188, 9999.500082135315, 9999.500082135315, 90.60117452220756),
    (7, 5_000, 4,
     2.0814946190236907, 6.49994777900633, 6.49994777900633, 0.038913987055815495),
    (50, 20_001, 5,
     12.792058735254269, 49.500327679546174, 49.500327679546174, 0.1067249269431656),
]


class TestTightExample:
    def test_vectorized_rule_matches_traced_policy(self, rng):
        # Same draws fed to both the vectorized simulator's rule and the
        # traced reduction policy with the partition pinned to the same
        # vertex ranks.
        k = 4
        g = Graphic(k + 1, tuple((0, i + 1) for i in range(k)))
        lo = 1.0 - 1.0 / k
        for trial in range(40):
            rewards_f = rng.uniform(lo, 1.0, size=k)
            samples_f = rng.uniform(lo, 1.0, size=k)
            ranks = rng.uniform(size=k + 1)  # position 0 is the center
            sigma = tuple(int(v) for v in np.argsort(ranks))
            partition, _ = graphic_partition(g, sigma=sigma)
            rewards = {e: tv(rewards_f[e], 0.5, e) for e in range(k)}
            samples = {e: tv(samples_f[e], 0.5, e) for e in range(k)}
            order = sorted(range(k), key=lambda e: rewards[e].key)
            trace = run_policy(
                "reduction-custom", g, samples, rewards, order,
                partition=partition,
            )
            leaf_owned = ranks[1:] < ranks[0]
            alg = float((rewards_f * (leaf_owned & (rewards_f > samples_f))).sum())
            center = ~leaf_owned
            if center.any():
                thr = samples_f[center].max()
                exceed = center & (rewards_f > thr)
                if exceed.any():
                    alg += rewards_f[exceed].min()
            assert trace.chosen.total == pytest.approx(alg, rel=1e-12, abs=1e-12)

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

    @pytest.mark.parametrize("k, trials", [(200, 60_000), (10_000, 3)])
    def test_memory_is_bounded_by_the_tile(self, k, trials):
        tracemalloc.start()
        try:
            tight_example(k, trials=trials, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_small_k_bracket(self):
        rep = tight_example(2, trials=20_000, seed=1)
        assert 1.0 < rep.ratio < 4.0

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            tight_example(1)


class TestReports:
    def test_csv_header_and_shape(self):
        rep = tight_example(3, trials=500, seed=0)
        text = render_report(rep, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 2

    def test_json_field_order(self):
        rep = estimate_ratio(RANK1_TWO_POINT, "rank1", mode="exact", seed=0)
        text = render_report(rep, "json")
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

    def test_unknown_format(self):
        rep = tight_example(3, trials=200, seed=0)
        with pytest.raises(RuntimeError):
            render_report(rep, "xml")

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
    assert worker_count() >= 1
