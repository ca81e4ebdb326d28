from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from sspilab.core import CapExceededError, InputError
from sspilab.feasibility import (
    GeneralMatching,
    Graphic,
    SimplePartition,
    Transversal,
    TruncatedPartition,
    graphic_partition,
    is_independent,
)
from sspilab.generators import random_instance
from sspilab.policies import (
    adversarial_order,
    laminar_policy,
    matching_policy,
    rank1_policy,
    reduction_policy,
    run_policy,
    transversal_policy,
)

from conftest import make_realizations, tv


def arrivals(rewards, order):
    return [(e, rewards[e]) for e in order]


class TestRank1:
    def test_first_exceeder_wins(self):
        samples = {0: tv(3, 0.5, 0), 1: tv(1, 0.5, 1)}
        rewards = {0: tv(10, 0.6, 0), 1: tv(7, 0.6, 1)}
        trace = rank1_policy(samples, arrivals(rewards, (1, 0)))
        assert trace.chosen.chosen == frozenset({1})
        assert trace.chosen.total == 7

    def test_nothing_exceeds(self):
        samples = {0: tv(3, 0.5, 0), 1: tv(1, 0.5, 1)}
        rewards = {0: tv(2, 0.6, 0), 1: tv(2, 0.6, 1)}
        trace = rank1_policy(samples, arrivals(rewards, (0, 1)))
        assert trace.chosen.total == 0

    def test_two_configuration_expectation(self):
        # n=1, Y=5, Z=2: the policy collects 5 on heads and nothing on tails,
        # while the prophet collects 5 or 2.
        reals = make_realizations([(5, 2)])
        alg = Fraction(0)
        best = Fraction(0)
        for heads in (True, False):
            rewards = {0: reals[0].y if heads else reals[0].z}
            samples = {0: reals[0].z if heads else reals[0].y}
            trace = rank1_policy(samples, arrivals(rewards, (0,)))
            alg += Fraction(trace.chosen.total)
            best += Fraction(rewards[0].value)
        alg /= 2
        best /= 2
        assert alg == Fraction(5, 2)
        assert best == Fraction(7, 2)
        assert best <= 2 * alg


class TestMatchingPolicy:
    TRIANGLE = GeneralMatching(3, ((0, 1), (1, 2), (0, 2)))

    def test_triangle_hand_trace(self):
        samples = {0: tv(5, 0.5, 0), 1: tv(4, 0.5, 1), 2: tv(1, 0.5, 2)}
        rewards = {0: tv(6, 0.6, 0), 1: tv(2, 0.6, 1), 2: tv(3, 0.6, 2)}
        trace = matching_policy(self.TRIANGLE, samples, arrivals(rewards, (1, 2, 0)))
        assert [d.accepted for d in trace.decisions] == [False, False, True]
        assert trace.chosen.chosen == frozenset({0})
        assert trace.chosen.total == 6
        # Sample matching is edge 0, so its endpoints carry threshold 5.
        assert trace.thresholds[0].value == 5 and trace.thresholds[1].value == 5
        assert trace.thresholds[2] is None

    def test_single_edge_reject(self):
        g = GeneralMatching(2, ((0, 1),))
        trace = matching_policy(g, {0: tv(3, 0.5, 0)}, [(0, tv(2, 0.6, 0))])
        assert trace.chosen.total == 0

    def test_single_edge_accept(self):
        g = GeneralMatching(2, ((0, 1),))
        trace = matching_policy(g, {0: tv(3, 0.5, 0)}, [(0, tv(4, 0.6, 0))])
        assert trace.chosen.total == 4
        assert trace.decisions[0].critical_value == 3


class TestTransversalPolicy:
    def test_hand_trace_skip_on_taken(self):
        t = Transversal(2, 1, ((0,), (0,)))
        samples = {0: tv(5, 0.5, 0), 1: tv(2, 0.5, 1)}
        rewards = {0: tv(7, 0.6, 0), 1: tv(6, 0.6, 1)}
        trace = transversal_policy(t, samples, arrivals(rewards, (1, 0)))
        assert trace.chosen.chosen == frozenset({1})
        assert trace.chosen.total == 6

    def test_own_sample_gate(self):
        t = Transversal(1, 1, ((0,),))
        trace = transversal_policy(t, {0: tv(3, 0.5, 0)}, [(0, tv(2, 0.6, 0))])
        assert trace.chosen.total == 0
        assert trace.decisions[0].reason == "below own sample"

    def test_isolated_left_node_skipped(self):
        t = Transversal(1, 1, ((),))
        trace = transversal_policy(t, {0: tv(1, 0.5, 0)}, [(0, tv(9, 0.6, 0))])
        assert trace.chosen.total == 0

    def test_literal_rule_skips_taken_node(self):
        # Node 0 carries no threshold; both elements designate it first. The
        # literal rule skips the second element rather than rerouting it.
        t = Transversal(2, 2, ((0, 1), (0, 1)))
        samples = {0: tv(1, 0.5, 0), 1: tv(1, 0.5, 1)}
        rewards = {0: tv(5, 0.6, 0), 1: tv(4, 0.6, 1)}
        literal = transversal_policy(t, samples, arrivals(rewards, (0, 1)))
        assert literal.chosen.chosen == frozenset({0})

    def test_matching_built_online_is_independent(self, rng):
        for _ in range(10):
            inst = random_instance("transversal", int(rng.integers(1, 7)), rng)
            reals = inst.draw_realizations(rng)
            rewards = {r.element: r.y for r in reals}
            samples = {r.element: r.z for r in reals}
            order = rng.permutation(len(reals))
            trace = transversal_policy(inst.structure, samples, arrivals(rewards, order))
            assert is_independent(inst.structure, trace.chosen.chosen)


class TestLaminarPolicy:
    FS = TruncatedPartition(((0, 1), (2,)), (1, 1), 1)
    SAMPLES = {0: tv(4, 0.5, 0), 1: tv(2, 0.5, 1), 2: tv(3, 0.5, 2)}

    def test_accept_improving_element(self):
        trace = laminar_policy(self.FS, self.SAMPLES, [(1, tv(5, 0.6, 1))])
        assert trace.chosen.chosen == frozenset({1})
        assert trace.thresholds["sample-optimum"] == 4

    def test_reject_non_improving_element(self):
        trace = laminar_policy(self.FS, self.SAMPLES, [(0, tv(1, 0.6, 0))])
        assert trace.chosen.total == 0

    def test_z_values_never_accepted(self, rng):
        # A reward below its own sample cannot raise the sample optimum.
        for _ in range(20):
            inst = random_instance("truncated-partition", int(rng.integers(1, 6)), rng)
            reals = inst.draw_realizations(rng)
            samples = {r.element: r.y for r in reals}  # reward is the smaller
            rewards = {r.element: r.z for r in reals}
            order = rng.permutation(len(reals))
            trace = laminar_policy(inst.structure, samples, arrivals(rewards, order))
            assert trace.chosen.total == 0


class TestReductionPolicy:
    def test_star_hand_trace(self):
        g = Graphic(3, ((0, 1), (0, 2)))
        partition, _ = graphic_partition(g, sigma=(1, 2, 0))
        samples = {0: tv(3, 0.5, 0), 1: tv(1, 0.5, 1)}
        rewards = {0: tv(5, 0.6, 0), 1: tv(2, 0.6, 1)}
        trace = reduction_policy(partition, samples, arrivals(rewards, (0, 1)))
        assert trace.chosen.chosen == frozenset({0, 1})
        assert is_independent(g, trace.chosen.chosen)

    def test_outside_ground_set_never_observed(self):
        sp = SimplePartition(((0,),))
        samples = {0: tv(1, 0.5, 0), 1: tv(1, 0.5, 1)}
        rewards = {0: tv(2, 0.6, 0), 1: tv(9, 0.6, 1)}
        trace = reduction_policy(sp, samples, arrivals(rewards, (1, 0)))
        outside = trace.decisions[0]
        assert outside.element == 1 and not outside.accepted
        assert outside.reward is None
        assert trace.chosen.chosen == frozenset({0})

    def test_empty_group_threshold_accepts_first_positive(self):
        sp = SimplePartition(((0,), ()))
        trace = reduction_policy(sp, {0: tv(0, 0.5, 0)}, [(0, tv(1, 0.6, 0))])
        assert trace.chosen.chosen == frozenset({0})

    def test_thresholds_ignore_rewards(self, rng):
        inst = random_instance("graphic", 5, rng)
        reals = inst.draw_realizations(rng)
        samples = {r.element: r.z for r in reals}
        partition, _ = graphic_partition(inst.structure, rng=np.random.default_rng(3))
        base = None
        for perm in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
            rewards = {r.element: r.y for r in reals}
            trace = reduction_policy(partition, samples, arrivals(rewards, perm))
            if base is None:
                base = trace.thresholds
            assert trace.thresholds == base


class TestAdversarialOrder:
    def test_increasing(self):
        rewards = {0: tv(3, 0.5, 0), 1: tv(1, 0.5, 1), 2: tv(2, 0.5, 2)}
        fs = TruncatedPartition(((0, 1, 2),), (1,), 1)
        samples = {e: tv(0.5, 0.5, e) for e in range(3)}
        order = adversarial_order("rank1", fs, samples, rewards, "increasing")
        assert order.order == (1, 2, 0)

    def test_single_element(self):
        fs = TruncatedPartition(((0,),), (1,), 1)
        order = adversarial_order(
            "rank1", fs, {0: tv(1, 0.4, 0)}, {0: tv(2, 0.5, 0)}, "exhaustive-min"
        )
        assert order.order == (0,)

    def test_fixed_order(self):
        fs = TruncatedPartition(((0, 1),), (1,), 1)
        samples = {e: tv(1, 0.4, e) for e in range(2)}
        rewards = {e: tv(2, 0.5, e) for e in range(2)}
        assert adversarial_order("rank1", fs, samples, rewards, "fixed").order == (0, 1)

    def test_exhaustive_cap(self):
        # Only matching still searches, so only matching is capped, at the
        # subset-table limit.
        n = 17
        samples = {e: tv(1, 0.4, e) for e in range(n)}
        rewards = {e: tv(2, 0.5, e) for e in range(n)}
        g = GeneralMatching(n + 1, tuple((e, e + 1) for e in range(n)))
        with pytest.raises(CapExceededError):
            adversarial_order("matching", g, samples, rewards, "exhaustive-min")
        fs = TruncatedPartition((tuple(range(n)),), (1,), 1)
        worst = adversarial_order("rank1", fs, samples, rewards, "exhaustive-min")
        inc = adversarial_order("rank1", fs, samples, rewards, "increasing")
        assert worst.order == inc.order

    def test_matching_minimum_beats_increasing(self):
        # Path 0-1-2-3 with every edge live: the middle edge alone is the
        # minimum-weight maximal matching, while the increasing order
        # collects both outer edges.
        g = GeneralMatching(4, ((0, 1), (1, 2), (2, 3)))
        samples = {e: tv(0.1, 0.5, e) for e in range(3)}
        rewards = {0: tv(2, 0.6, 0), 1: tv(3, 0.6, 1), 2: tv(2, 0.6, 2)}

        def total(mode):
            order = adversarial_order("matching", g, samples, rewards, mode).order
            return run_policy("matching", g, samples, rewards, order).chosen.total

        assert total("increasing") == 4
        assert total("exhaustive-min") == 3

    def test_laminar_exhaustive_min_matches_increasing(self, rng):
        # Full permutation search never beats the increasing order.
        for _ in range(6):
            inst = random_instance("truncated-partition", int(rng.integers(2, 6)), rng)
            reals = inst.draw_realizations(rng)
            rewards = {}
            samples = {}
            for r in reals:
                if rng.random() < 0.5:
                    rewards[r.element], samples[r.element] = r.y, r.z
                else:
                    rewards[r.element], samples[r.element] = r.z, r.y

            def total(order):
                return run_policy(
                    "laminar", inst.structure, samples, rewards, order
                ).chosen.total

            best = min(total(p) for p in permutations(range(len(reals))))
            inc = adversarial_order(
                "laminar", inst.structure, samples, rewards, "increasing"
            )
            assert total(inc.order) == pytest.approx(best, abs=1e-12)


class TestTraceInvariants:
    CASES = (
        ("rank1", "rank1"),
        ("matching", "matching"),
        ("transversal", "transversal"),
        ("truncated-partition", "laminar"),
        ("graphic", "reduction-graphic"),
    )

    def test_feasible_and_never_below_sample(self, rng):
        for kind, policy in self.CASES:
            for _ in range(12):
                inst = random_instance(kind, int(rng.integers(1, 7)), rng)
                reals = inst.draw_realizations(rng)
                rewards = {}
                samples = {}
                for r in reals:
                    if rng.random() < 0.5:
                        rewards[r.element], samples[r.element] = r.y, r.z
                    else:
                        rewards[r.element], samples[r.element] = r.z, r.y
                order = [int(x) for x in rng.permutation(len(reals))]
                trace = run_policy(
                    policy, inst.structure, samples, rewards, order,
                    rng=np.random.default_rng(7),
                )
                assert is_independent(inst.structure, trace.chosen.chosen)
                for e in trace.chosen.chosen:
                    assert rewards[e] > samples[e], "collected a below-sample reward"
                # Accepted decisions carry the critical value they beat.
                for d in trace.decisions:
                    if d.accepted:
                        assert d.critical_value is not None
                        assert d.critical_value <= rewards[d.element].value + 1e-9

    def test_exhaustive_min_is_brute_force_minimum(self, rng):
        # The order exhaustive-min returns collects the least traced total
        # over all n! arrival orders, for every policy.
        cases = self.CASES + (("simple-partition", "reduction-custom"),)
        for kind, policy in cases:
            for _ in range(30):
                n = int(rng.integers(1, 7))
                inst = random_instance(kind, n, rng)
                if kind == "matching":
                    # Few vertices make dense graphs, where the increasing
                    # order can miss the minimum.
                    verts = int(rng.integers(3, 5))
                    edges = tuple(
                        tuple(int(v) for v in rng.choice(verts, 2, replace=False))
                        for _ in range(n)
                    )
                    inst = replace(inst, structure=GeneralMatching(verts, edges))
                reals = inst.draw_realizations(rng)
                rewards = {r.element: (r.y if rng.random() < 0.5 else r.z) for r in reals}
                samples = {
                    r.element: (r.z if rewards[r.element] is r.y else r.y)
                    for r in reals
                }
                partition = None
                if policy == "reduction-custom":
                    groups = [[] for _ in range(int(rng.integers(1, n + 1)))]
                    for e in range(n):
                        if rng.random() < 0.8:  # some elements stay outside
                            groups[int(rng.integers(0, len(groups)))].append(e)
                    partition = SimplePartition(tuple(tuple(g) for g in groups))
                sigma_seed = int(rng.integers(0, 100))

                def total(order):
                    return run_policy(
                        policy, inst.structure, samples, rewards, order,
                        partition=partition, rng=np.random.default_rng(sigma_seed),
                    ).chosen.total

                best = min(total(p) for p in permutations(range(len(reals))))
                worst = adversarial_order(
                    policy, inst.structure, samples, rewards, "exhaustive-min"
                )
                assert total(worst.order) == pytest.approx(best, rel=1e-12, abs=1e-12)


class TestRunPolicyPartitions:
    def test_reduction_graphic_draws_graphic_partition_from_rng(self, rng):
        # run_policy's reduction-graphic is reduction_policy on the vertex-
        # order partition drawn from the same rng, call for call.
        for s in range(12):
            inst = random_instance("graphic", int(rng.integers(1, 7)), rng)
            fs = inst.structure
            reals = inst.draw_realizations(rng)
            rewards = {r.element: r.y for r in reals}
            samples = {r.element: r.z for r in reals}
            order = [int(x) for x in rng.permutation(len(reals))]
            got = run_policy(
                "reduction-graphic", fs, samples, rewards, order,
                rng=np.random.default_rng(s),
            )
            partition, _ = graphic_partition(fs, rng=np.random.default_rng(s))
            want = reduction_policy(partition, samples, arrivals(rewards, order))
            assert got.decisions == want.decisions
            assert got.thresholds == want.thresholds
            assert got.chosen == want.chosen

    def test_structure_table_checked(self):
        samples = {0: tv(1, 0.5, 0)}
        rewards = {0: tv(2, 0.6, 0)}
        g = GeneralMatching(2, ((0, 1),))
        with pytest.raises(InputError, match="--policy"):
            run_policy("laminar", g, samples, rewards, (0,))
        with pytest.raises(InputError, match="--policy"):
            run_policy("rank1", g, samples, rewards, (0,))
        with pytest.raises(InputError, match="partition block"):
            run_policy("reduction-custom", Graphic(2, ((0, 1),)), samples, rewards, (0,))
        with pytest.raises(InputError, match="unknown policy"):
            run_policy("no-such-policy", g, samples, rewards, (0,))
