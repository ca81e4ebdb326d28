from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from sspilab.core import ElementRealization, TaggedValue, point_mass
from sspilab.feasibility import TruncatedPartition
from sspilab.generators import random_instance

# No per-example deadline (a loaded machine can stall any example) and a
# fixed example sequence, so property tests draw the same cases every run.
# `pytest --hypothesis-profile=explore --hypothesis-seed=N` draws new cases
# for each seed N.
settings.register_profile("sspilab", deadline=None, derandomize=True)
settings.register_profile("explore", deadline=None)
settings.load_profile("sspilab")


def tv(value, tiebreak=0.5, element=0):
    return TaggedValue(float(value), float(tiebreak), int(element))


def make_realizations(pairs):
    """pairs: list of (y_value, z_value) per element id 0..n-1, with distinct
    deterministic tiebreaks so paths are reproducible."""
    out = []
    for e, (y, z) in enumerate(pairs):
        hi, lo = (y, z) if y >= z else (z, y)
        out.append(ElementRealization(e, tv(hi, 0.75, e), tv(lo, 0.25, e)))
    return out


def several_group_rank1(n, rng, zeros):
    """A rank1 instance whose truncated partition has several groups, some of
    capacity 2, under a total capacity of 1; with `zeros`, point masses at 0
    on some elements."""
    k = int(rng.integers(2, n + 1))
    labels = rng.permutation(np.arange(n) % k)
    groups = tuple(tuple(int(e) for e in np.flatnonzero(labels == g)) for g in range(k))
    caps = tuple(int(c) for c in rng.integers(1, 3, size=k))
    inst = random_instance("rank1", n, rng)
    dists = dict(inst.distributions)
    if zeros:
        for e in rng.choice(n, size=1 + n // 3, replace=False):
            dists[int(e)] = point_mass(0.0)
    return replace(inst, structure=TruncatedPartition(groups, caps, 1), distributions=dists)


def vertex_order(ranks):
    """The order of the touched vertices, by their numbers in the graph's
    `edge_ends`, that gives each one its rank in `ranks`, as a scalar oracle
    takes it (`graphic_partition(g, sigma=...)`)."""
    return np.argsort(ranks).tolist()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
