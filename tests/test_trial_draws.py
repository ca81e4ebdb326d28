"""Bulk trial draws against the generators' own calls.

`core.draw_trials` computes the raw 64-bit draws of every trial's stream as
one numpy table and reads the doubles and exponentials off it instead of
calling a generator per trial; the reference is the generator of
`trial_rng(seed, t)` itself, called draw by draw in stream order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sspilab.core as core
from sspilab.core import discrete, draw_trials, exponential, point_mass, trial_rng, uniform


def _scalar_draws(distributions, seed, trials, layout):
    """draw_trials with the raw-draw decoding switched off."""
    saved = core._ziggurat
    core._ziggurat = lambda: None
    try:
        return draw_trials(distributions, seed, trials, layout)
    finally:
        core._ziggurat = saved


def test_ziggurat_tables_pass_their_check():
    assert core._ziggurat() is not None


STREAM_CASES = [
    (0, range(5)), (909, range(4000, 4004)), (2**40 + 3, range(2)),
    (7, range(2**32 - 1, 2**32 + 2)),  # indices past 32 bits: numpy's own seeding
    (2**96 + 5, range(3)), (2**200 + 1, range(2)),  # seeds of more than 4 words
]


@pytest.mark.parametrize("seed, trials", STREAM_CASES)
def test_trial_streams_equal_trial_rng(seed, trials):
    streams = core._TrialStreams(seed, trials)
    for i, t in enumerate(trials):
        want = trial_rng(seed, t).bit_generator.random_raw(12)
        assert streams.at(i, 0).bit_generator.random_raw(12).tolist() == want.tolist()
        assert streams.at(i, 5).bit_generator.random_raw() == want[5]


@pytest.mark.parametrize("width", [1, 7, 335])
@pytest.mark.parametrize("seed, trials", STREAM_CASES)
def test_raw_table_equals_random_raw(seed, trials, width):
    got = core._TrialStreams(seed, trials).raws(width)
    want = [trial_rng(seed, t).bit_generator.random_raw(width) for t in trials]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("width", [560, 510])
def test_decode_equals_draw_by_draw_calls(width):
    # 600 trials of 500 exponentials with doubles in between: a few thousand
    # draws off the fast path, some of them back to back. With 510 raw draws
    # most rows run out (-1); the rest must still end where the stream does.
    is_exp = np.array([True, False, True, True] * 125)
    trials = range(600)
    streams = core._TrialStreams(3, trials)
    raws = np.stack([streams.at(i, 0).bit_generator.random_raw(width) for i in trials])
    got, ends = core._decode_raw(raws, is_exp, streams, core._ziggurat())
    assert (ends >= 0).sum() >= 20
    for i, t in enumerate(trials):
        rng = trial_rng(3, t)
        want = [rng.standard_exponential() if k else rng.random() for k in is_exp]
        if ends[i] < 0:
            continue
        assert got[i].tolist() == want
        assert streams.at(i, int(ends[i])).random() == rng.random()


def test_decode_flags_rows_that_run_out_of_raw_draws():
    is_exp = np.ones(200, dtype=bool)
    streams = core._TrialStreams(1, range(64))
    raws = np.stack([streams.at(i, 0).bit_generator.random_raw(200) for i in range(64)])
    _, ends = core._decode_raw(raws, is_exp, streams, core._ziggurat())
    # 200 exponentials in 200 raw draws fit only when none is off the fast path.
    ri, level = raws >> 11, (raws >> 3) & 255
    ke = core._ziggurat()[0]
    assert ((ends == 200) == (ri < ke[level]).all(axis=1)).all()
    assert set(ends.tolist()) <= {200, -1}


LAWS = [uniform(0.0, 2.0), point_mass(0.0), discrete([0.0, 1.0, 3.0], [0.25, 0.25, 0.5]),
        exponential(1.0), exponential(0.3)]


@pytest.mark.parametrize("layout", ["vvtt", "vtvtvt"])
@pytest.mark.parametrize("laws", [LAWS, LAWS[:3]], ids=["with-exponential", "no-exponential"])
def test_draw_trials_equal_scalar_calls(layout, laws):
    rng = np.random.default_rng(11)
    dists = [laws[k] for k in rng.integers(len(laws), size=40)]
    got = draw_trials(dists, 5, range(3, 600), layout)
    want = _scalar_draws(dists, 5, range(3, 600), layout)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.tokens, want.tokens)
    assert (got.coins is None) == (want.coins is None)
    if got.coins is not None:
        assert np.array_equal(got.coins, want.coins)


@settings(max_examples=120)
@given(
    laws=st.lists(st.sampled_from(LAWS), min_size=1, max_size=12),
    seed=st.integers(0, 2**70),
    start=st.integers(0, 10**6),
    count=st.integers(1, 300),
    layout=st.sampled_from(["vvtt", "vtvtvt"]),
)
def test_draw_trials_equal_scalar_calls_property(laws, seed, start, count, layout):
    trials = range(start, start + count)
    got = draw_trials(laws, seed, trials, layout)
    want = _scalar_draws(laws, seed, trials, layout)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.tokens, want.tokens)
    assert (got.coins is None) == (want.coins is None)
    if got.coins is not None:
        assert np.array_equal(got.coins, want.coins)
