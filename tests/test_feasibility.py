from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sspilab.core import (
    CapExceededError,
    Configuration,
    TaggedValue,
    build_sample_path,
    draw_realization,
    uniform,
)
from sspilab.feasibility import (
    GeneralMatching,
    Graphic,
    SimplePartition,
    Transversal,
    TruncatedPartition,
    contraction_optimum,
    exact_optimum,
    free_index,
    graphic_partition,
    greedy_on_path,
    greedy_prophet,
    greedy_rule,
    is_independent,
    optimal_matching,
    optimal_transversal,
)
from sspilab.policies import min_maximal_matching
from sspilab.generators import random_instance

from conftest import make_realizations, tv

TRIANGLE = GeneralMatching(3, ((0, 1), (1, 2), (0, 2)))


def weights(vals):
    return {e: tv(v, 0.5, e) for e, v in enumerate(vals)}


class TestIsIndependent:
    def test_matching_shared_vertex(self):
        assert not is_independent(TRIANGLE, {0, 1})
        assert is_independent(TRIANGLE, {0})
        assert is_independent(TRIANGLE, set())

    def test_truncated_global_capacity(self):
        fs = TruncatedPartition(((0, 1), (2,)), (1, 1), 1)
        assert is_independent(fs, {0})
        assert not is_independent(fs, {0, 2})

    def test_transversal_too_small_right_side(self):
        t = Transversal(2, 1, ((0,), (0,)))
        assert not is_independent(t, {0, 1})
        assert is_independent(t, {1})

    def test_graphic_cycle(self):
        g = Graphic(3, ((0, 1), (1, 2), (0, 2)))
        assert is_independent(g, {0, 1})
        assert not is_independent(g, {0, 1, 2})

    def test_simple_partition(self):
        sp = SimplePartition(((0, 1), (2,)))
        assert is_independent(sp, {0, 2})
        assert not is_independent(sp, {0, 1})

    def test_unknown_element(self):
        with pytest.raises(KeyError):
            is_independent(TRIANGLE, {7})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            GeneralMatching(2, ((1, 1),))
        with pytest.raises(ValueError):
            Graphic(2, ((0, 0),))

    def test_parallel_edges_allowed(self):
        g = GeneralMatching(2, ((0, 1), (0, 1)))
        assert not is_independent(g, {0, 1})


class TestGreedyOnPath:
    def test_rank1_both_sides(self):
        fs = TruncatedPartition(((0,),), (1,), 1)
        path = build_sample_path(make_realizations([(5, 2)]))
        config = Configuration(("H", "T"))
        assert greedy_on_path(fs, path, config, "H").total == 5
        assert greedy_on_path(fs, path, config, "T").total == 2

    def test_matching_triangle_hand_trace(self):
        # Y-values 6,5,4; Z-values 3,2,1; all Y coins heads: greedy on the
        # heads side takes edge 0 (value 6) and rejects the other two.
        reals = make_realizations([(6, 3), (5, 2), (4, 1)])
        path = build_sample_path(reals)
        config = Configuration.from_heads_mask(path, 0b111)
        sol = greedy_on_path(TRIANGLE, path, config, "H")
        assert sol.chosen == frozenset({0}) and sol.total == 6

    def test_transversal_assignment_recorded(self):
        t = Transversal(2, 2, ((0, 1), (0,)))
        path = build_sample_path(make_realizations([(5, 1), (4, 2)]))
        config = Configuration.from_heads_mask(path, 0b11)
        sol = greedy_on_path(t, path, config, "H")
        assert sol.assignment == {0: 0, 1: 1} or sol.assignment == {0: 0}
        assert is_independent(t, sol.chosen)

    def test_output_always_independent(self, rng):
        for kind in ("matching", "transversal", "truncated-partition", "graphic"):
            for _ in range(10):
                inst = random_instance(kind, int(rng.integers(1, 7)), rng)
                reals = inst.draw_realizations(rng)
                path = build_sample_path(reals)
                mask = int(rng.integers(0, 1 << path.n))
                config = Configuration.from_heads_mask(path, mask)
                for side in "HT":
                    sol = greedy_on_path(inst.structure, path, config, side)
                    assert is_independent(inst.structure, sol.chosen)


class TestFreeIndex:
    def test_first_index_always_free(self):
        path = build_sample_path(make_realizations([(5, 2)]))
        fs = TruncatedPartition(((0,),), (1,), 1)
        config = Configuration(("H", "T"))
        assert free_index(fs, path, config, 0, "H")
        assert free_index(fs, path, config, 0, "T")

    def test_rank1_sample_fills_capacity(self):
        fs = TruncatedPartition(((0,),), (1,), 1)
        path = build_sample_path(make_realizations([(5, 2)]))
        config = Configuration(("T", "H"))
        assert not free_index(fs, path, config, 1, "T")

    def test_matching_triangle_tails_block(self):
        # Edge 0's Y-coin tails puts it in the tails-side matching, blocking
        # edge 1's Y-index for tails.
        reals = make_realizations([(6, 3), (5, 2), (4, 1)])
        path = build_sample_path(reals)
        config = Configuration.from_heads_mask(path, 0b110)  # element 0 tails
        j = path.y_index(1)
        assert not free_index(TRIANGLE, path, config, j, "T")

    def test_out_of_range(self):
        path = build_sample_path(make_realizations([(5, 2)]))
        fs = TruncatedPartition(((0,),), (1,), 1)
        with pytest.raises(IndexError):
            free_index(fs, path, Configuration(("H", "T")), 2, "H")

    def test_suffix_coin_invariance(self, rng):
        # The free flag at j may depend only on coins before j: flipping the
        # coins of elements whose Y-index is at or after j never changes it.
        for kind in ("matching", "transversal", "truncated-partition", "graphic"):
            for _ in range(8):
                inst = random_instance(kind, int(rng.integers(2, 7)), rng)
                reals = inst.draw_realizations(rng)
                path = build_sample_path(reals)
                mask = int(rng.integers(0, 1 << path.n))
                config = Configuration.from_heads_mask(path, mask)
                j = int(rng.integers(0, path.length))
                late = [e for e in range(path.n) if path.y_index(e) >= j]
                if not late:
                    continue
                flip = 0
                for e in late:
                    if rng.random() < 0.5:
                        flip |= 1 << e
                flipped = Configuration.from_heads_mask(path, mask ^ flip)
                for side in "HT":
                    assert free_index(inst.structure, path, config, j, side) == (
                        free_index(inst.structure, path, flipped, j, side)
                    )


def brute_force_matching(g, w):
    best = 0.0
    n = len(g.edges)
    for r in range(n + 1):
        for sub in combinations(range(n), r):
            if is_independent(g, sub):
                best = max(best, sum(w[e].value for e in sub))
    return best


class TestMatchingOracles:
    def test_maximal_path_graph(self):
        g = GeneralMatching(3, ((0, 1), (1, 2)))
        sol = greedy_prophet(g, weights([3, 2]))
        assert sol.chosen == frozenset({0}) and sol.total == 3

    def test_maximal_half_of_optimal_on_path4(self):
        g = GeneralMatching(4, ((0, 1), (1, 2), (2, 3)))
        w = weights([2, 3, 2])
        sol = greedy_prophet(g, w)
        assert sol.chosen == frozenset({1}) and sol.total == 3
        opt = optimal_matching(g, w)
        assert opt.chosen == frozenset({0, 2}) and opt.total == 4
        assert sol.total >= opt.total / 2

    def test_single_edge(self):
        g = GeneralMatching(2, ((0, 1),))
        assert greedy_prophet(g, weights([7])).total == 7

    def test_optimal_triangle(self):
        assert optimal_matching(TRIANGLE, weights([6, 5, 4])).total == 6

    def test_optimal_empty(self):
        g = GeneralMatching(2, ())
        assert optimal_matching(g, {}).total == 0

    def test_optimal_cap(self):
        g = GeneralMatching(30, tuple((2 * i % 29, (2 * i + 1) % 29) for i in range(25)))
        with pytest.raises(CapExceededError):
            optimal_matching(g, weights(range(1, 26)))

    def test_optimal_matches_brute_force(self, rng):
        for _ in range(40):
            inst = random_instance("matching", int(rng.integers(1, 9)), rng)
            w = {e: tv(float(rng.integers(0, 12)), rng.random(), e)
                 for e in range(inst.ground_size)}
            opt = optimal_matching(inst.structure, w)
            assert abs(opt.total - brute_force_matching(inst.structure, w)) < 1e-9
            assert is_independent(inst.structure, opt.chosen)

    def test_scalar_oracles_settle_float_near_ties(self):
        # The four-edge point mass of the CLI near-tie test: summed in
        # floats, {0, 3} looks heavier than {0, 1, 2}; exactly it is lighter
        # by 2**-54. The optimum is {0, 1, 2}, the minimum maximal matching
        # {0, 3}.
        tiny = 2.0**-53
        g = GeneralMatching(6, ((0, 1), (2, 3), (4, 5), (3, 4)))
        w = {e: tv(v, 0.1 * (e + 1), e) for e, v in enumerate((1.0, tiny, tiny, 1.5 * tiny))}
        assert optimal_matching(g, w).chosen == frozenset({0, 1, 2})
        vmasks = [(1 << u) | (1 << v) for u, v in g.edges]
        xvals = [w[e].value for e in range(4)]
        assert min_maximal_matching(0b1111, vmasks, xvals) == 0b1001

    def test_optimal_matches_networkx(self, rng):
        nx = pytest.importorskip("networkx")
        for _ in range(60):
            inst = random_instance("matching", int(rng.integers(1, 13)), rng)
            g = inst.structure
            # Small integer values make tied weights and tied totals common.
            w = {e: tv(float(rng.integers(0, 6)), rng.random(), e)
                 for e in range(g.ground_size)}
            graph = nx.Graph()
            for e, (u, v) in enumerate(g.edges):  # parallel edges: keep the heaviest
                if not graph.has_edge(u, v) or graph[u][v]["weight"] < w[e].value:
                    graph.add_edge(u, v, weight=w[e].value)
            want = sum(graph[u][v]["weight"] for u, v in nx.max_weight_matching(graph))
            opt = optimal_matching(g, w)
            assert abs(opt.total - want) < 1e-9
            assert is_independent(g, opt.chosen)


class TestTransversalOracles:
    def test_ordered_maximal_hand_trace(self):
        t = Transversal(2, 2, ((0, 1), (0,)))
        w = weights([5, 4])
        sol = greedy_prophet(t, w)
        assert sol.assignment == {0: 0} and sol.total == 5
        opt = optimal_transversal(t, w)
        assert opt.total == 9
        assert sol.total >= opt.total / 2

    def test_singletons(self):
        t = Transversal(1, 1, ((0,),))
        assert greedy_prophet(t, weights([3])).total == 3
        lonely = Transversal(1, 1, ((),))
        assert greedy_prophet(lonely, weights([3])).total == 0

    def test_optimal_matches_brute_force(self, rng):
        for _ in range(40):
            inst = random_instance("transversal", int(rng.integers(1, 7)), rng)
            t = inst.structure
            w = {e: tv(float(rng.integers(0, 12)), rng.random(), e)
                 for e in range(t.left_count)}
            best = 0.0
            for r in range(t.left_count + 1):
                for sub in combinations(range(t.left_count), r):
                    if is_independent(t, sub):
                        best = max(best, sum(w[e].value for e in sub))
            got = optimal_transversal(t, w)
            assert abs(got.total - best) < 1e-9
            assert is_independent(t, got.chosen)

    def test_optimal_matches_linear_assignment(self, rng):
        optimize = pytest.importorskip("scipy.optimize")
        for _ in range(60):
            inst = random_instance("transversal", int(rng.integers(1, 13)), rng)
            t = inst.structure
            w = {e: tv(float(rng.integers(0, 6)), rng.random(), e)
                 for e in range(t.left_count)}
            # Zero-weight dummy columns let any left node stay unmatched.
            cost = np.zeros((t.left_count, t.right_count + t.left_count))
            for l in range(t.left_count):
                cost[l, list(t.adjacency[l])] = w[l].value
            rows, cols = optimize.linear_sum_assignment(cost, maximize=True)
            got = optimal_transversal(t, w)
            assert abs(got.total - cost[rows, cols].sum()) < 1e-9
            assert is_independent(t, got.chosen)
            assert got.total == sum(w[l].value for l in sorted(got.chosen))
            for l, r in got.assignment.items():
                assert r in t.adjacency[l]
            assert sorted(got.assignment) == sorted(got.chosen)


class TestMatroidGreedy:
    def test_truncated_hand_trace(self):
        fs = TruncatedPartition(((0, 1), (2,)), (1, 1), 2)
        sol = greedy_prophet(fs, weights([4, 2, 3]))
        assert sol.chosen == frozenset({0, 2}) and sol.total == 7

    def test_simple_partition(self):
        sp = SimplePartition(((0, 1),))
        assert greedy_prophet(sp, weights([1, 5])).chosen == frozenset({1})

    def test_graphic_triangle(self):
        g = Graphic(3, ((0, 1), (1, 2), (0, 2)))
        sol = greedy_prophet(g, weights([6, 5, 4]))
        assert sol.total == 11 and len(sol.chosen) == 2

    def test_matches_exhaustive_maximum(self, rng):
        for kind in ("truncated-partition", "simple-partition", "graphic"):
            for _ in range(25):
                inst = random_instance(kind, int(rng.integers(1, 8)), rng)
                fs = inst.structure
                w = {e: tv(float(rng.integers(0, 10)), rng.random(), e)
                     for e in range(fs.ground_size)}
                n = fs.ground_size
                best = 0.0
                for r in range(n + 1):
                    for sub in combinations(range(n), r):
                        if is_independent(fs, sub):
                            best = max(best, sum(w[e].value for e in sub))
                got = greedy_prophet(fs, w)
                assert abs(got.total - best) < 1e-9

    def test_contraction_optimum_is_acceptance_threshold(self, rng):
        for _ in range(25):
            inst = random_instance("truncated-partition", int(rng.integers(1, 7)), rng)
            fs = inst.structure
            w = {e: tv(float(rng.integers(1, 10)), rng.random(), e)
                 for e in range(fs.ground_size)}
            v0 = greedy_prophet(fs, w).total
            for e in range(fs.ground_size):
                k_e = contraction_optimum(fs, e, w)
                for x in (0.5, 4.5, 11.0):
                    swapped = dict(w)
                    swapped[e] = tv(x, 0.99, e)
                    replaced = greedy_prophet(fs, swapped).total
                    assert (replaced > v0) == (x + k_e > v0)


class TestGraphicPartition:
    def test_star_center_first(self):
        g = Graphic(3, ((0, 1), (0, 2)))  # center 0, leaves 1, 2
        partition, _ = graphic_partition(g, sigma=(0, 1, 2))
        assert partition.groups[0] == (0, 1)

    def test_star_leaves_first(self):
        g = Graphic(3, ((0, 1), (0, 2)))
        partition, _ = graphic_partition(g, sigma=(1, 2, 0))
        assert partition.groups[1] == (0,) and partition.groups[2] == (1,)

    def test_triangle_all_orders_all_transversals_acyclic(self):
        g = Graphic(3, ((0, 1), (1, 2), (0, 2)))
        for sigma in permutations(range(3)):
            partition, _ = graphic_partition(g, sigma=sigma)
            sizes = sorted(len(grp) for grp in partition.groups)
            assert sizes == [0, 1, 2]
            nonempty = [grp for grp in partition.groups if grp]
            for pick in _transversals(nonempty):
                assert is_independent(g, pick)

    def test_random_graphs_exhaustive(self, rng):
        for _ in range(15):
            inst = random_instance("graphic", int(rng.integers(1, 7)), rng)
            g = inst.structure
            if g.vertex_count > 6:
                continue
            for sigma in permutations(range(g.vertex_count)):
                partition, _ = graphic_partition(g, sigma=sigma)
                nonempty = [grp for grp in partition.groups if grp]
                for pick in _transversals(nonempty):
                    assert is_independent(g, pick)

    def test_needs_rng_or_sigma(self):
        g = Graphic(2, ((0, 1),))
        with pytest.raises(ValueError):
            graphic_partition(g)
        with pytest.raises(ValueError):
            graphic_partition(g, sigma=(0, 0))


def _transversals(groups):
    if not groups:
        yield ()
        return
    head, *rest = groups
    for pick in head:
        for tail in _transversals(rest):
            yield (pick, *tail)


class TestDispatchers:
    def test_prophet_and_optimum_by_structure(self, rng):
        for kind in ("matching", "transversal", "truncated-partition", "graphic"):
            inst = random_instance(kind, 4, rng)
            w = {e: tv(float(rng.integers(0, 9)), rng.random(), e)
                 for e in range(inst.ground_size)}
            prophet = greedy_prophet(inst.structure, w)
            opt = exact_optimum(inst.structure, w)
            assert prophet.total <= opt.total + 1e-12
            assert prophet.total >= opt.total / 2 - 1e-9
            assert is_independent(inst.structure, prophet.chosen)
            assert is_independent(inst.structure, opt.chosen)


# ---------------------------------------------------------------------------
# The one greedy walk against plain reference greedies on generated instances
# ---------------------------------------------------------------------------

_values = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 10.0))


@st.composite
def _greedy_cases(draw):
    """A generated structure with tagged weights on its ground set; values
    repeat often, so ties are left to the tiebreak tokens."""
    kind = draw(st.sampled_from(
        ["matching", "transversal", "truncated-partition", "simple-partition", "graphic"]
    ))
    n = draw(st.integers(1, 7))
    if kind in ("matching", "graphic"):
        vertices = draw(st.integers(2, 5))
        edge = st.tuples(
            st.integers(0, vertices - 1), st.integers(0, vertices - 1)
        ).filter(lambda uv: uv[0] != uv[1])
        edges = tuple(draw(st.lists(edge, min_size=n, max_size=n)))
        fs = (GeneralMatching if kind == "matching" else Graphic)(vertices, edges)
    elif kind == "transversal":
        right = draw(st.integers(1, 4))
        nbrs = st.lists(st.integers(0, right - 1), unique=True, max_size=right)
        adjacency = tuple(tuple(a) for a in draw(st.lists(nbrs, min_size=n, max_size=n)))
        fs = Transversal(n, right, adjacency)
    else:
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        groups = tuple(tuple(e for e in range(n) if labels[e] == g) for g in range(n))
        if kind == "simple-partition":
            fs = SimplePartition(groups)  # empty groups allowed
        else:
            groups = tuple(g for g in groups if g)
            caps = tuple(draw(st.integers(1, len(g))) for g in groups)
            fs = TruncatedPartition(groups, caps, draw(st.integers(1, n)))
    w = {
        e: TaggedValue(draw(_values), draw(st.floats(0.0, 1.0)), e)
        for e in range(n)
    }
    return fs, w


def _reference_greedy(fs, w):
    """Admit each element in decreasing tagged order when the selection stays
    independent; a transversal left node takes its smallest free right node."""
    chosen, assignment, total = [], {}, 0.0
    for e in sorted(w, key=lambda e: w[e].key, reverse=True):
        if isinstance(fs, Transversal):
            free = [r for r in sorted(fs.adjacency[e]) if r not in assignment.values()]
            if not free:
                continue
            assignment[e] = free[0]
        elif not is_independent(fs, chosen + [e]):
            continue
        chosen.append(e)
        total += w[e].value
    return frozenset(chosen), total, assignment if isinstance(fs, Transversal) else None


@given(_greedy_cases())
@settings(max_examples=150)
def test_greedy_walk_matches_reference_greedy(case):
    fs, w = case
    want = _reference_greedy(fs, w)
    sol = greedy_prophet(fs, w)
    assert (sol.chosen, sol.total, sol.assignment) == want
    if isinstance(fs, Transversal):
        assert is_independent(fs, sol.chosen)


@given(_greedy_cases(), st.data())
@settings(max_examples=150)
def test_rule_admits_what_the_oracle_accepts(case, data):
    # Walk the kind's rule over a random element sequence (repeats and
    # skipped elements included) and, at every state, ask it about each
    # element not yet admitted. The ordered transversal rule admits a subset
    # of the matchable extensions: its earlier nodes are fixed.
    fs, w = case
    rule = greedy_rule(fs)
    state, admitted = rule.start, []
    for e in data.draw(st.lists(st.sampled_from(sorted(w)), max_size=2 * len(w))):
        hash(state)
        for x in sorted(set(w) - set(admitted)):
            can, ok = rule.can_add(state, x), is_independent(fs, admitted + [x])
            assert (not can or ok) if isinstance(fs, Transversal) else can == ok
        if e not in admitted and rule.can_add(state, e):
            state = rule.add(state, e)
            admitted.append(e)
