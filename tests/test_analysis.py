import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sspilab.analysis as analysis
from sspilab.analysis import (
    GAME_RB_CAP,
    GAME_RR_CAP,
    LEMMA_IDS,
    b_first_strategy,
    candidate_node,
    exhaustive_game_value,
    game_monte_carlo,
    play_coin_game,
    saturation_index,
    supporting_event_laminar,
    supporting_event_matching,
    supporting_event_transversal,
    verify_lemma,
)
from sspilab.cli import main
from sspilab.core import (
    CapExceededError,
    InputError,
    build_sample_path,
    point_mass,
    trial_rng,
)
from sspilab.exact import ConfigEnsemble
from sspilab.feasibility import (
    GeneralMatching,
    Transversal,
    TruncatedPartition,
    path_walk,
)
from sspilab.generators import random_instance

from conftest import make_realizations


SINGLE_EDGE = GeneralMatching(2, ((0, 1),))


class TestSupportingEventMatching:
    def test_single_edge_heads_holds(self):
        path = build_sample_path(make_realizations([(5, 2)]))
        mask = 0b1
        report = supporting_event_matching(SINGLE_EDGE, path, mask, 0)
        assert report.holds and report.witnesses["l1"] == 1

    def test_single_edge_tails_fails(self):
        path = build_sample_path(make_realizations([(5, 2)]))
        mask = 0b0
        assert not supporting_event_matching(SINGLE_EDGE, path, mask, 0).holds

    def test_triangle_probability_bound(self):
        # Count over all 8 configurations at the top Y-index: the supporting
        # event happens at least a quarter as often as heads-and-free-heads.
        g = GeneralMatching(3, ((0, 1), (1, 2), (0, 2)))
        reals = make_realizations([(6, 3), (5, 2), (4, 1)])
        path = build_sample_path(reals)
        support = 0
        baseline = 0
        for mask in range(8):
            support += supporting_event_matching(g, path, mask, 0).holds
            baseline += path.heads(mask)[0]  # index 0 is always free
        assert 4 * support >= baseline


class TestCandidateNode:
    def test_first_index_gets_first_node(self):
        t = Transversal(1, 1, ((0,),))
        path = build_sample_path(make_realizations([(5, 2)]))
        mask = 0b1
        assert candidate_node(t, path, mask, 0) == 0

    def test_none_when_blocked(self):
        t = Transversal(2, 1, ((0,), (0,)))
        # Element 0 (larger) takes the single node on the tails side.
        path = build_sample_path(make_realizations([(9, 4), (7, 3)]))
        mask = 0b00  # both Y coins tails
        j_small_y = path.y_index(1)
        assert candidate_node(t, path, mask, j_small_y) is None

    def test_ordered_rule_picks_smallest_free(self):
        t = Transversal(2, 2, ((0, 1), (0,)))
        path = build_sample_path(make_realizations([(9, 4), (7, 3)]))
        # Element 0's Y-coin heads leaves node 0 free for element 1's Y-index.
        mask = 0b01
        assert candidate_node(t, path, mask, path.y_index(1)) == 0
        # Element 0's Y-coin tails occupies node 0 first.
        mask = 0b10
        assert candidate_node(t, path, mask, path.y_index(0)) == 0


class TestSupportingEventTransversal:
    def test_single_pair_heads(self):
        t = Transversal(1, 1, ((0,),))
        path = build_sample_path(make_realizations([(5, 2)]))
        assert supporting_event_transversal(
            t, path, 0b1, 0, 0
        ).holds
        assert not supporting_event_transversal(
            t, path, 0b0, 0, 0
        ).holds

    def test_two_left_one_right_uniqueness_and_bound(self):
        t = Transversal(2, 1, ((0,), (0,)))
        reals = make_realizations([(9, 4), (7, 3)])
        path = build_sample_path(reals)
        support_counts = [0] * path.length
        baseline = [0] * path.length
        for mask in range(4):
            per_config = 0
            for j in range(path.length):
                rep = supporting_event_transversal(t, path, mask, j, 0)
                per_config += rep.holds
                support_counts[j] += rep.holds
                if path.entries[j].label == "Y":
                    baseline[j] += path.heads(mask)[j] and path_walk(
                        t, path, mask, "H"
                    ).free[j]
            assert per_config <= 1
        for j in range(path.length):
            if path.entries[j].label == "Y":
                assert 2 * support_counts[j] >= baseline[j]


class TestSaturationIndex:
    FS = TruncatedPartition(((0, 1, 2),), (1,), 1)

    def test_next_qualifying_index(self):
        reals = make_realizations([(9, 4), (7, 3), (6, 2)])
        path = build_sample_path(reals)
        # All Y coins heads: after index 0, the first heads-free Y-index in
        # the group saturates it (capacity 1).
        mask = 0b111
        got = saturation_index(self.FS, path, mask, 0, 0, "H")
        assert got == path.y_index(1)

    def test_infinite_when_never_reached(self):
        reals = make_realizations([(9, 4)])
        fs = TruncatedPartition(((0,),), (1,), 1)
        path = build_sample_path(reals)
        mask = 0b1
        assert saturation_index(fs, path, mask, 0, 0, "H") == math.inf

    def test_matches_independent_rescan(self, rng):
        # Second implementation: gather qualifying indices, then take the
        # capacity-th one.
        for _ in range(12):
            inst = random_instance("truncated-partition", int(rng.integers(1, 6)), rng)
            fs = inst.structure
            reals = inst.draw_realizations(rng)
            path = build_sample_path(reals)
            mask = int(rng.integers(0, 1 << path.n))
            j = int(rng.integers(0, path.length))
            for gid, members, cap in [
                (None, set(range(path.n)), fs.total_capacity)
            ] + [
                (i, set(g), fs.group_capacities[i]) for i, g in enumerate(fs.groups)
            ]:
                for side in "HT":
                    qualifying = [
                        i
                        for i in range(j + 1, path.length)
                        if path.entries[i].label == "Y"
                        and path.entries[i].element in members
                        and path.heads(mask)[i] == (side == "H")
                        and path_walk(fs, path, mask, "T").free[i]
                    ]
                    want = qualifying[cap - 1] if len(qualifying) >= cap else math.inf
                    assert saturation_index(fs, path, mask, j, gid, side) == want


class TestSupportingEventLaminar:
    def test_single_element_holds_on_heads(self):
        fs = TruncatedPartition(((0,),), (1,), 1)
        path = build_sample_path(make_realizations([(5, 2)]))
        rep = supporting_event_laminar(fs, path, 0b1, 0)
        assert rep.holds
        assert rep.witnesses["group_sat_T"] == math.inf

    def test_single_element_fails_on_tails(self):
        fs = TruncatedPartition(((0,),), (1,), 1)
        path = build_sample_path(make_realizations([(5, 2)]))
        assert not supporting_event_laminar(
            fs, path, 0b0, 0
        ).holds

    def test_three_element_probability_bound(self):
        fs = TruncatedPartition(((0, 1), (2,)), (1, 1), 2)
        reals = make_realizations([(9, 4), (7, 3), (6, 2)])
        path = build_sample_path(reals)
        for j in range(path.length):
            if path.entries[j].label != "Y":
                continue
            support = 0
            baseline = 0
            for mask in range(8):
                support += supporting_event_laminar(fs, path, mask, j).holds
                baseline += path.heads(mask)[j] and path_walk(fs, path, mask, "H").free[j]
            assert 4 * support >= baseline


class TestEngineAgreesWithScalarOps:
    @staticmethod
    def _matching_reports(fs, reals):
        """The scalar matching reports of every (configuration, index),
        each checked against the engine's table."""
        path = build_sample_path(reals)
        ens = ConfigEnsemble(fs, reals)
        table = ens.support_matching()
        reports = []
        for mask in range(ens.num_configs):
            for j in range(path.length):
                got = supporting_event_matching(fs, path, mask, j)
                assert got.holds == bool(table[j, mask])
                reports.append(got)
        return reports

    def test_matching(self, rng):
        for _ in range(8):
            inst = random_instance("matching", int(rng.integers(1, 6)), rng)
            self._matching_reports(inst.structure, inst.draw_realizations(rng))
        # Edges (0, 1) and (0, 2) meet but are not parallel: where the first
        # conflicting index after one's Y-value is the other's tails, the
        # scalar event looks for a second witness.
        reports = self._matching_reports(
            GeneralMatching(4, ((0, 1), (0, 2), (1, 3))),
            make_realizations([(10, 1), (9, 0.5), (8, 0.2)]),
        )
        assert any(r.witnesses.get("l2") is not None for r in reports)
        # Edge (1, 2) meets edge (0, 1) after the latter's Z index, which is
        # the first conflicting index and closes the race on its own.
        reports = self._matching_reports(
            GeneralMatching(3, ((0, 1), (1, 2))), make_realizations([(10, 9), (8, 1)])
        )
        assert any(r.index == 0 and r.holds and r.witnesses["l1"] == 1 for r in reports)

    def test_transversal(self, rng):
        cases = []
        for _ in range(8):
            inst = random_instance("transversal", int(rng.integers(1, 5)), rng)
            cases.append((inst.structure, inst.draw_realizations(rng)))
        # No later Y-value wants element 0's node: its event holds with no
        # competitor.
        cases.append((Transversal(2, 2, ((0,), (1,))), make_realizations([(5, 2), (4, 1)])))
        reports = []
        for fs, reals in cases:
            path = build_sample_path(reals)
            ens = ConfigEnsemble(fs, reals)
            table, cand = ens.support_transversal()
            for mask in range(ens.num_configs):
                for j in range(path.length):
                    cand_scalar = candidate_node(fs, path, mask, j)
                    if cand_scalar is not None:
                        assert int(cand[j, mask]) == cand_scalar
                    for r in range(fs.right_count):
                        got = supporting_event_transversal(fs, path, mask, j, r)
                        expect = bool(table[j, mask]) and int(cand[j, mask]) == r
                        assert got.holds == expect
                        reports.append(got)
        assert any(r.holds and r.witnesses["l"] is None for r in reports)

    def test_laminar(self, rng):
        cases = []
        for _ in range(8):
            inst = random_instance("truncated-partition", int(rng.integers(1, 6)), rng)
            cases.append((inst.structure, inst.draw_realizations(rng)))
        # One element: no competitor after its Y-value. Three elements under
        # capacities 2 and 3: fewer than 2r - 1 later Y-values in each scope.
        cases.append((TruncatedPartition(((0,),), (1,), 1), make_realizations([(5, 2)])))
        cases.append((
            TruncatedPartition(((0, 1, 2),), (2,), 3),
            make_realizations([(9, 4), (7, 3), (6, 2)]),
        ))
        for fs, reals in cases:
            path = build_sample_path(reals)
            ens = ConfigEnsemble(fs, reals)
            table = ens.support_laminar()
            for mask in range(ens.num_configs):
                for j in range(path.length):
                    got = supporting_event_laminar(fs, path, mask, j)
                    assert got.holds == bool(table[j, mask])


support_cases = st.fixed_dictionaries({
    "kind": st.sampled_from(("matching", "transversal", "truncated-partition")),
    "n": st.integers(1, 7),
    "seed": st.integers(0, 2**32 - 1),
    "point_masses": st.booleans(),
    "parallel": st.booleans(),
})


def _support_instance(kind, n, seed, point_masses, parallel):
    """A generated structure and its realizations: with `parallel`, matching
    graphs copy earlier edges into parallel ones; truncated partitions take
    capacities 2-3 (races of 3-5 competitors), and point masses make ties.
    A parallel edge at the first conflicting index decides the matching
    event alone, so only half the matching graphs get them: a plain graph
    more often needs the second witness."""
    rng = np.random.default_rng(seed)
    inst = random_instance(kind, n, rng)
    fs = inst.structure
    if kind == "matching" and parallel:
        edges = list(fs.edges)
        for e in range(1, n):
            if rng.random() < 0.5:
                u, v = edges[int(rng.integers(e))]
                edges[e] = (u, v) if rng.random() < 0.5 else (v, u)
        fs = GeneralMatching(fs.vertex_count, tuple(edges))
    elif kind == "truncated-partition":
        caps = tuple(int(c) for c in rng.integers(2, 4, size=len(fs.groups)))
        fs = TruncatedPartition(fs.groups, caps, int(rng.integers(2, 4)))
    if point_masses:
        inst = replace(inst, distributions={
            e: point_mass(float(rng.integers(0, 3))) for e in range(n)
        })
    return fs, inst.draw_realizations(trial_rng(seed, 0))


def _transversal_event(fs, path, mask, j):
    r = candidate_node(fs, path, mask, j)
    return r is not None and supporting_event_transversal(fs, path, mask, j, r).holds


SUPPORT_ORACLES = {
    "matching": (
        lambda ens: ens.support_matching(),
        lambda *args: supporting_event_matching(*args).holds,
    ),
    "transversal": (lambda ens: ens.support_transversal()[0], _transversal_event),
    "truncated-partition": (
        lambda ens: ens.support_laminar(),
        lambda *args: supporting_event_laminar(*args).holds,
    ),
}


@settings(max_examples=100)
@given(support_cases)
# Generated cases where the matching event needs its second witness: a race
# that stops at the first competitor gets them wrong.
@example({"kind": "matching", "n": 3, "seed": 54, "point_masses": False, "parallel": False})
@example({"kind": "matching", "n": 3, "seed": 190, "point_masses": False, "parallel": True})
@example({"kind": "matching", "n": 4, "seed": 9, "point_masses": True, "parallel": True})
def test_support_tables_equal_the_scalar_events(case):
    table_of, event = SUPPORT_ORACLES[case["kind"]]
    fs, reals = _support_instance(**case)
    path = build_sample_path(reals)
    table = table_of(ConfigEnsemble(fs, reals))
    for mask in range(1 << len(reals)):
        for j in range(path.length):
            assert bool(table[j, mask]) == event(fs, path, mask, j), (mask, j)


class TestVerifyLemma:
    def test_symmetry_single_element_counts(self):
        fs = TruncatedPartition(((0,),), (1,), 1)
        reals = make_realizations([(5, 2)])
        report = verify_lemma("symmetry", fs, reals)
        assert report.passed
        # Index 0 and index 1 each contribute one configuration per side.
        assert report.lhs == report.rhs == 2

    def test_all_lemmas_on_matched_structures(self, rng):
        structure_for = {
            "match": "matching",
            "trans": "transversal",
            "laminar": "truncated-partition",
        }
        for lemma in LEMMA_IDS:
            if lemma == "game-value":
                assert verify_lemma(lemma).passed
                continue
            kind = next(
                (v for k, v in structure_for.items() if lemma.startswith(k)),
                "matching",
            )
            inst = random_instance(kind, int(rng.integers(1, 6)), rng)
            reals = inst.draw_realizations(rng)
            report = verify_lemma(lemma, inst.structure, reals)
            assert report.passed, (lemma, report.detail)

    def test_generic_lemmas_on_every_structure(self, rng):
        for kind in (
            "matching", "transversal", "truncated-partition",
            "simple-partition", "graphic",
        ):
            inst = random_instance(kind, int(rng.integers(1, 7)), rng)
            reals = inst.draw_realizations(rng)
            for lemma in ("symmetry", "forget-z", "greedy-objective"):
                assert verify_lemma(lemma, inst.structure, reals).passed

    def test_trans_unique_reports_the_worst_count(self, monkeypatch):
        # All three Y indices support right node 0 in configuration 5: the
        # report counts three, not just that two indices share the node.
        def support(ens):
            table = np.zeros((ens.length, ens.num_configs), dtype=bool)
            table[ens.is_y, 5] = True
            return table, np.zeros(table.shape, dtype=np.int8)

        monkeypatch.setattr(ConfigEnsemble, "support_transversal", support)
        t = Transversal(3, 1, ((0,), (0,), (0,)))
        report = verify_lemma("trans-unique", t, make_realizations([(9, 4), (7, 3), (6, 2)]))
        assert not report.passed and report.lhs == 3
        assert report.detail == "right node 0 supported by 3 indices in one configuration"

    def test_unknown_lemma(self):
        with pytest.raises(InputError, match="--lemma"):
            verify_lemma("not-a-lemma")

    def test_structure_mismatch(self, rng):
        inst = random_instance("matching", 2, rng)
        reals = inst.draw_realizations(rng)
        with pytest.raises(InputError, match="--lemma"):
            verify_lemma("trans-prob", inst.structure, reals)

    def test_sufficiency_order_cap(self, rng):
        # match-sufficient uses the matching subset table (n <= 16).
        inst = random_instance("matching", 17, rng)
        reals = inst.draw_realizations(rng)
        with pytest.raises(CapExceededError):
            verify_lemma("match-sufficient", inst.structure, reals)


class TestCoinGame:
    def test_forced_tails_trace(self):
        winner, state = play_coin_game(1, 2, b_first_strategy, iter("TTT"))
        assert winner == "P2"
        assert state.saturated == {"B": "T", "R": "T"}
        assert [t for t, _, _ in state.toss_log] == [1, 2, 3]

    def test_heads_ends_immediately(self):
        winner, state = play_coin_game(1, 2, b_first_strategy, iter("HH"))
        assert winner == "P1"
        assert state.saturated["B"] == "H" and "R" not in state.saturated

    def test_r_tosses_land_in_both_bins(self):
        def r_first(state):
            return "R"

        winner, state = play_coin_game(1, 3, r_first, iter("TTTT"))
        # First toss lands in R (and B); R saturates with one tail.
        assert state.saturated["R"] == "T"
        assert state.tails["B"] >= state.tails["R"]
        assert state.r_toss_log[0][1] == "T"

    def test_saturated_choice_coerced(self):
        def stubborn_r(state):
            return "R"

        winner, state = play_coin_game(1, 2, stubborn_r, iter("TTT"))
        # After R saturates, the choice is coerced to B and the game ends.
        assert winner == "P2"

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            play_coin_game(2, 2, b_first_strategy, iter("TT"))
        with pytest.raises(ValueError):
            play_coin_game(1, 2, lambda s: "X", iter("TT"))

    def test_exact_value_quarter_everywhere(self):
        for r_r in range(1, GAME_RR_CAP + 1):
            for r_b in range(r_r + 1, GAME_RB_CAP + 1):
                assert exhaustive_game_value(r_r, r_b) == Fraction(1, 4)
                assert exhaustive_game_value(r_r, r_b, "b-first") == Fraction(1, 4)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            exhaustive_game_value(3, 5)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="'greedy'"):
            exhaustive_game_value(1, 2, "greedy")

    def test_b_first_value_is_the_played_probability(self):
        # Every B-first game ends within 2*r_b + 2*r_r - 2 tosses, so the
        # equally likely sequences of that length give its exact P2-win odds.
        for r_r in range(1, GAME_RR_CAP + 1):
            for r_b in range(r_r + 1, GAME_RB_CAP + 1):
                length = 2 * r_b + 2 * r_r - 2
                wins = sum(
                    play_coin_game(r_r, r_b, b_first_strategy, seq)[0] == "P2"
                    for seq in itertools.product("HT", repeat=length)
                )
                assert Fraction(wins, 2**length) == exhaustive_game_value(
                    r_r, r_b, "b-first"
                ), (r_r, r_b)

    def test_quarter_past_the_shipped_caps(self, monkeypatch):
        monkeypatch.setattr(analysis, "GAME_RR_CAP", 7)
        monkeypatch.setattr(analysis, "GAME_RB_CAP", 8)
        pairs = [(r_r, r_b) for r_r in range(1, 8) for r_b in range(r_r + 1, 9)]
        assert len(pairs) == 28
        for r_r, r_b in pairs:
            for strategy in ("optimal", "b-first"):
                assert exhaustive_game_value(r_r, r_b, strategy) == Fraction(1, 4)

    def test_a_toss_at_r_also_lands_in_b(self):
        # The root value is 1/4 whether or not a toss at R also counts in B,
        # and so is every state's; the move values tell the two games
        # apart. Nested, a first toss at R is strictly worse for player one
        # than one at B; if R's tosses skipped B, both would be worth 1/4.
        first_r = {}
        for r_r in range(1, GAME_RR_CAP + 1):
            for r_b in range(r_r + 1, GAME_RB_CAP + 1):
                value, moves = analysis._game_table(r_r, r_b)
                assert moves[0, 0, 0, 0]["B"] / 2 == value[0, 0, 0, 0] == Fraction(1, 4)
                first_r[r_r, r_b] = moves[0, 0, 0, 0]["R"] / 2
        assert first_r == {
            (1, 2): Fraction(3, 8), (1, 3): Fraction(11, 32), (1, 4): Fraction(21, 64),
            (2, 3): Fraction(19, 64), (2, 4): Fraction(37, 128),
        }

    def test_verify_reports_the_first_failing_pair(self, monkeypatch):
        def value(r_r, r_b, strategy="optimal"):
            return Fraction(0) if (r_r, r_b) in ((1, 3), (2, 4)) else Fraction(1, 4)

        monkeypatch.setattr(analysis, "exhaustive_game_value", value)
        report = verify_lemma("game-value")
        assert not report.passed
        assert report.detail.startswith("(r_r=1, r_b=3)")

    def test_monte_carlo_close(self):
        freq = game_monte_carlo(1, 2, 40_000, seed=21)
        assert abs(freq - 0.25) < 0.01

    def test_monte_carlo_needs_a_game(self):
        with pytest.raises(ValueError):
            game_monte_carlo(1, 2, 0, seed=0)


def test_b_first_game_is_two_races():
    # Under B-first, B's first 2*r_b - 1 coins decide it, and after B's
    # saturating toss R's next 2*r_r - 1 coins decide R: P2 wins exactly when
    # both races go to tails.
    for r_b in range(2, 5):
        for r_r in range(1, r_b):
            for seq in itertools.product("HT", repeat=2 * r_b + 2 * r_r - 2):
                saturating = next(
                    k for k in range(len(seq))
                    if max(seq[:k + 1].count("H"), seq[:k + 1].count("T")) == r_b
                )
                r_race = seq[saturating + 1:saturating + 2 * r_r]
                want = seq[:2 * r_b - 1].count("T") >= r_b and r_race.count("T") >= r_r
                winner, _ = play_coin_game(r_r, r_b, b_first_strategy, iter(seq))
                assert (winner == "P2") == want, (r_r, r_b, seq)


@pytest.mark.parametrize("r_r, r_b", [(1, 2), (3, 40)])
def test_game_block_changes_no_result(r_r, r_b, monkeypatch):
    results = []
    for block in (1, 7, 1 << 20):
        monkeypatch.setattr(analysis, "GAME_BLOCK", block)
        results.append([game_monte_carlo(r_r, r_b, trials, seed)
                         for seed in range(3) for trials in (1, 9, 61)])
    assert results[0] == results[1] == results[2]


def test_game_capacity_past_int64_exits_2(capsys):
    # 2 * r - 1 must be an int64 for the race draws.
    assert main(["--trials", "5", "game", "--rr", "1", "--rb", str(2**62), "--mode", "mc"]) == 0
    capsys.readouterr()
    argv = ["game", "--rr", "1", "--rb", "100000000000000000000", "--mode", "mc"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --rb: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestAllTiesStress:
    """Identical point masses force every comparison through tie tokens."""

    def _tied_instance(self, kind, n, rng):
        from sspilab.core import point_mass
        from sspilab.instances import Instance

        inst = random_instance(kind, n, rng)
        dists = {e: point_mass(3.0) for e in range(inst.ground_size)}
        return Instance(inst.name + "-tied", inst.structure, dists)

    def test_lemmas_under_total_ties(self, rng):
        suites = {
            "matching": ("symmetry", "forget-z", "greedy-objective",
                         "match-unique", "match-sufficient", "match-prob"),
            "transversal": ("symmetry", "forget-z", "greedy-objective",
                            "trans-unique", "trans-sufficient", "trans-prob"),
            "truncated-partition": ("symmetry", "forget-z", "greedy-objective",
                                    "laminar-sufficient", "laminar-prob"),
        }
        for kind, lemmas in suites.items():
            for trial in range(12):
                n = int(rng.integers(1, 6))
                inst = self._tied_instance(kind, n, rng)
                reals = inst.draw_realizations(trial_rng(trial, 0))
                for lemma in lemmas:
                    report = verify_lemma(lemma, inst.structure, reals)
                    assert report.passed, (kind, lemma, report.detail)

    def test_bounds_under_total_ties(self, rng):
        from sspilab.harness import estimate_ratio

        for kind, policy, adversary, bound in (
            ("matching", "matching", "exhaustive-min", 32),
            ("transversal", "transversal", "exhaustive-min", 8),
            ("truncated-partition", "laminar", "increasing", 8),
            ("rank1", "rank1", "increasing", 2),
        ):
            for trial in range(8):
                inst = self._tied_instance(kind, int(rng.integers(1, 6)), rng)
                rep = estimate_ratio(
                    inst, policy, adversary=adversary, mode="exact", seed=trial
                )
                assert rep.e_opt <= bound * rep.e_alg, (kind, rep.instance)
                assert rep.z_violations == 0
