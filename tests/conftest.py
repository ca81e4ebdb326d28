import numpy as np
import pytest
from hypothesis import settings

from sspilab.core import ElementRealization, TaggedValue

# No per-example deadline (a loaded machine can stall any example) and a
# fixed example sequence, so property tests draw the same cases every run.
settings.register_profile("sspilab", deadline=None, derandomize=True)
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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
