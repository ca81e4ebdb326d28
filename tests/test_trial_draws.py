"""Bulk trial draws against the generators' own calls.

`core.draw_trials` computes the raw 64-bit draws of every trial's stream as
one numpy table and reads the doubles, exponentials and permutations off it
instead of calling a generator per trial; the reference is the generator of
`trial_rng(seed, t)` itself, called draw by draw in stream order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sspilab.core as core
from sspilab.core import discrete, draw_trials, exponential, point_mass, trial_rng, uniform


def _scalar_draws(distributions, seed, trials, sizes, layout):
    """draw_trials with the raw-draw decoding switched off."""
    saved = core._ziggurat
    core._ziggurat = lambda: None
    try:
        return draw_trials(distributions, seed, trials, sizes, layout)
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


def _permutation_words(rng, count):
    """The next `count` 32-bit words numpy's `next_uint32` hands out from a
    fresh state of `rng`: each raw draw's low half, then its high half."""
    raws = rng.bit_generator.random_raw(-(-count // 2))
    return np.array([w for r in raws.tolist() for w in (r & 0xFFFFFFFF, r >> 32)][:count],
                    dtype=np.uint32)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 9, 33, 64, 65, 201])
def test_decoded_permutations_equal_generator(size):
    words = 2 * core._permutation_width([size]) or 2
    columns = np.stack([_permutation_words(trial_rng(8, t), words) for t in range(40)], axis=1)
    (perms,), done = core._decode_permutations(columns, [size])
    assert done.all()
    for t in range(40):
        assert perms[t].tolist() == trial_rng(8, t).permutation(size).tolist()


def test_decoded_permutations_carry_the_high_half():
    # An odd count of words per permutation leaves the high half of a raw
    # draw for the next one; numpy hands it out before drawing again.
    sizes = [3, 6, 2, 9]
    columns = np.stack([_permutation_words(trial_rng(4, t), 80) for t in range(64)], axis=1)
    perms, done = core._decode_permutations(columns, sizes)
    assert done.all()
    for t in range(64):
        rng = trial_rng(4, t)
        for perm, size in zip(perms, sizes):
            assert perm[t].tolist() == rng.permutation(size).tolist()


def test_rows_whose_words_run_out_are_flagged():
    # All ones mask to 3 at i = 2 of a 3-permutation and so are never taken.
    columns = np.stack([_permutation_words(trial_rng(2, 0), 40),
                        np.full(40, 0xFFFFFFFF, dtype=np.uint32)], axis=1)
    (perms,), done = core._decode_permutations(columns, [3])
    assert done.tolist() == [True, False]
    assert perms[0].tolist() == trial_rng(2, 0).permutation(3).tolist()


def test_permutations_past_the_table_come_from_the_generator(monkeypatch):
    # Room for two words holds none of the rows' 15 picks, so every row is
    # drawn again in full by its own generator. The decoding's check at first
    # use must have run before the width is cut, or it fails and is cached.
    assert core._ziggurat() is not None
    monkeypatch.setattr(core, "_permutation_width", lambda sizes: 1)
    dists = [exponential(1.0), uniform(0.0, 1.0)] * 4
    got = draw_trials(dists, 6, range(40), [8, 9])
    want = _scalar_draws(dists, 6, range(40), [8, 9], core.REALIZATION_LAYOUT)
    for a, b in zip(got.permutations, want.permutations):
        assert np.array_equal(a, b)


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
    for sizes in ([], [40, 9]):
        got = draw_trials(dists, 5, range(3, 600), sizes, layout)
        want = _scalar_draws(dists, 5, range(3, 600), sizes, layout)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.tokens, want.tokens)
        assert (got.coins is None) == (want.coins is None)
        if got.coins is not None:
            assert np.array_equal(got.coins, want.coins)
        for a, b in zip(got.permutations, want.permutations):
            assert np.array_equal(a, b)


@settings(max_examples=120)
@given(
    laws=st.lists(st.sampled_from(LAWS), min_size=1, max_size=12),
    seed=st.integers(0, 2**70),
    start=st.integers(0, 10**6),
    count=st.integers(1, 300),
    sizes=st.lists(st.integers(0, 40), max_size=3),
    layout=st.sampled_from(["vvtt", "vtvtvt"]),
)
def test_draw_trials_equal_scalar_calls_property(laws, seed, start, count, sizes, layout):
    trials = range(start, start + count)
    got = draw_trials(laws, seed, trials, sizes, layout)
    want = _scalar_draws(laws, seed, trials, sizes, layout)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.tokens, want.tokens)
    assert (got.coins is None) == (want.coins is None)
    if got.coins is not None:
        assert np.array_equal(got.coins, want.coins)
    for a, b in zip(got.permutations, want.permutations, strict=True):
        assert np.array_equal(a, b)
