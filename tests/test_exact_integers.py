"""Exact totals of the best matchings against a `Fraction` brute force.

Point masses from a set of floats whose sums round (0.1 + 0.2, 1 + 2**-53)
or overflow (1e308 + 1e308), beside subnormal and zero values, so that the
float scores tie or order wrongly and only exact sums pick the right set.
The brute force sums `Fraction`s, independent of `core.exact_integers`.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
from hypothesis import given, settings, strategies as st

from sspilab.core import exact_integers
from sspilab.exact import (
    ConfigEnsemble, element_masks, exact_table, min_maximal_accepts, optimum_accepts,
)
from sspilab.feasibility import GeneralMatching

from conftest import make_realizations

VALUES = (0.0, 5e-324, 2.0**-53, 0.1, 0.2, 0.3, 1.0, 1e308)


@st.composite
def matching_cases(draw):
    vertices = draw(st.integers(2, 5))
    pair = st.tuples(st.integers(0, vertices - 1), st.integers(0, vertices - 1)).filter(
        lambda uv: uv[0] != uv[1]
    )
    edges = draw(st.lists(pair, min_size=1, max_size=6))
    values = draw(st.lists(st.sampled_from(VALUES), min_size=len(edges), max_size=len(edges)))
    live = draw(st.lists(st.integers(0, (1 << len(edges)) - 1),
                         min_size=1 << len(edges), max_size=1 << len(edges)))
    return GeneralMatching(vertices, tuple(edges)), values, live


def _matchings(g: GeneralMatching) -> list[int]:
    """Every edge mask of g that is a matching."""
    found = []
    for k in range(len(g.edges) + 1):
        for subset in combinations(range(len(g.edges)), k):
            ends = [x for e in subset for x in g.edges[e]]
            if len(ends) == len(set(ends)):
                found.append(sum(1 << e for e in subset))
    return found


def _total(mask: int, values) -> Fraction:
    return sum((Fraction(v) for e, v in enumerate(values) if (mask >> e) & 1), Fraction(0))


def _meets(g: GeneralMatching, mask: int, e: int) -> bool:
    return any(set(g.edges[e]) & set(g.edges[f]) for f in range(len(g.edges)) if (mask >> f) & 1)


@settings(max_examples=200)
@given(matching_cases())
def test_best_matchings_have_the_exact_extreme_totals(case):
    g, values, live = case
    ints, scale = exact_integers(values)
    assert [Fraction(i, 1 << scale) for i in ints] == [Fraction(v) for v in values]

    ens = ConfigEnsemble(g, make_realizations([(v, v) for v in values]))
    matchings = _matchings(g)
    best = max(_total(m, values) for m in matchings)
    chosen = element_masks(optimum_accepts(ens)).tolist()
    assert all(m in matchings and _total(m, values) == best for m in chosen)

    n = len(values)
    flags = ((np.array(live) >> np.arange(n)[:, None]) & 1) != 0
    chosen = element_masks(min_maximal_accepts(ens, flags)).tolist()
    for within, m in zip(live, chosen):
        maximal = [s for s in matchings if s & ~within == 0 and all(
            _meets(g, s, e) for e in range(n) if (within >> e) & 1)]
        assert m in maximal
        assert _total(m, values) == min(_total(s, values) for s in maximal)


def test_exact_table_leaves_int64_before_a_sum_can_overflow():
    values = np.array([1.0, 2.0**-60])  # 2**60 and 1 over 2**60
    assert exact_table(values, 3)[0].tolist() == [1 << 60, 1]
    assert exact_table(values, 3)[0].dtype == np.int64
    assert exact_table(values, 4)[0].dtype == object  # 4 * 2**60 reaches 2**62
