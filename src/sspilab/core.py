"""Values with tie-breaking, reward/sample generation by deferred decisions,
greedy sample paths, and exact enumeration of coin configurations.

Every reward distribution is paired with a uniform tie-break token so that any
finite collection of draws is strictly totally ordered. Rewards and samples
are generated by the deferred-decision trick: draw two values per element,
relabel the larger one Y and the smaller one Z, and let an independent fair
coin decide which is the reward and which the sample. The 2n values of all
elements, sorted in decreasing order, form the sample path; the coin vector
over path positions is a configuration, and exactly 2**n configurations are
feasible, each equiprobable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterator, Sequence

import numpy as np

HEADS = "H"
TAILS = "T"

CONFIG_ENUMERATION_CAP = 20
EXACT_MODE_CAP = 16  # elements in a subset table (2**n entries)


class CapExceededError(Exception):
    """An exhaustive routine was asked to exceed its size cap."""


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Random stream derived from (seed, index).

    Exact mode and the lemma verifiers draw their one realization set from
    index 0; Monte Carlo trial t draws from index t (see `draw_trials`).
    Streams for distinct indices are independent, so trials can be executed
    in any order (or concurrently) with reproducible results.
    """
    return np.random.default_rng((seed, index))


def exact_integers(values: Sequence[float]) -> list[int]:
    """The values times one shared power of two, as exact python integers:
    sums and comparisons of them are exact where float ones round."""
    ratios = [float(v).as_integer_ratio() for v in values]
    shift = max((q.bit_length() for _, q in ratios), default=1)
    return [p << (shift - q.bit_length()) for p, q in ratios]


@dataclass(frozen=True, slots=True, order=True)
class TaggedValue:
    """A non-negative real value with a tie-break token and element identity.

    Comparison is lexicographic on (value, tiebreak, element). The uniform
    tiebreak almost surely breaks value ties; the element id is a last resort
    that makes unit tests deterministic without changing any almost-sure
    behavior.
    """

    value: float
    tiebreak: float
    element: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"value must be non-negative, got {self.value}")
        if not 0.0 <= self.tiebreak <= 1.0:
            raise ValueError(f"tiebreak must be in [0, 1], got {self.tiebreak}")

    @property
    def key(self) -> tuple[float, float, int]:
        return (self.value, self.tiebreak, self.element)


_DIST_KINDS = ("point-mass", "discrete", "uniform", "exponential")


@dataclass(frozen=True)
class Distribution:
    """A per-element reward law: point mass, finite discrete, uniform, or
    exponential. `mhr` asserts the monotone hazard rate condition and is
    consumed only by the mechanism estimators.
    """

    kind: str
    params: tuple[float, ...] = ()
    atoms: tuple[float, ...] = ()
    weights: tuple[float, ...] = ()
    mhr: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _DIST_KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        numbers = (*self.params, *self.atoms, *self.weights)
        if not all(math.isfinite(x) for x in numbers):
            raise ValueError(f"{self.kind} parameters must be finite numbers")
        if self.kind == "point-mass":
            (v,) = self.params
            if v < 0:
                raise ValueError("point-mass value must be non-negative")
        elif self.kind == "discrete":
            if len(self.atoms) != len(self.weights) or not self.atoms:
                raise ValueError("discrete needs matching, non-empty atoms and weights")
            if any(v < 0 for v in self.atoms):
                raise ValueError("discrete atoms must be non-negative")
            if any(w <= 0 for w in self.weights):
                raise ValueError("discrete weights must be positive")
            if abs(sum(self.weights) - 1.0) > 1e-12:
                raise ValueError("discrete weights must sum to 1 within 1e-12")
        elif self.kind == "uniform":
            a, b = self.params
            if not a < b:
                raise ValueError("uniform requires a < b")
            if a < 0:
                raise ValueError("uniform support must be non-negative")
        elif self.kind == "exponential":
            (rate,) = self.params
            if rate <= 0:
                raise ValueError("exponential requires rate > 0")

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "point-mass":
            return self.params[0]
        if self.kind == "discrete":
            # Inverse-CDF on the atom list keeps the draw a plain float.
            u = rng.random()
            acc = 0.0
            for v, w in zip(self.atoms, self.weights):
                acc += w
                if u < acc:
                    return v
            return self.atoms[-1]
        if self.kind == "uniform":
            a, b = self.params
            return a + (b - a) * rng.random()
        rate = self.params[0]
        return rng.exponential(1.0 / rate)

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """The draws `sample` makes from the uniform doubles `u`, for the
        kinds that take one double per draw: the discrete inverse-CDF rule
        `u < acc` on the running weight sums, or `a + (b - a) * u`."""
        if self.kind == "discrete":
            acc = np.cumsum(self.weights)  # sequential sums, as in `sample`
            pick = np.searchsorted(acc, u, side="right")
            return np.asarray(self.atoms)[np.minimum(pick, len(self.atoms) - 1)]
        if self.kind == "uniform":
            a, b = self.params
            return a + (b - a) * u
        raise ValueError(f"{self.kind} draws do not come from one uniform double")

    def prob_at_least(self, x) -> np.ndarray:
        """P[draw >= x] at each price of the array `x`, counting any atom at
        x itself."""
        x = np.asarray(x, dtype=float)
        if self.kind == "point-mass":
            return np.where(self.params[0] >= x, 1.0, 0.0)
        if self.kind == "discrete":
            total = np.zeros(x.shape)
            for v, w in zip(self.atoms, self.weights):  # summed in atom order
                total += np.where(v >= x, w, 0.0)
            return total
        if self.kind == "uniform":
            a, b = self.params
            return np.clip((b - x) / (b - a), 0.0, 1.0)
        # math.exp, as numpy's exp differs from it in the last bit on some
        # prices; a price at or below 0 gives exp(0) = 1.
        exponents = (-self.params[0] * np.maximum(x, 0.0)).ravel().tolist()
        return np.fromiter(map(math.exp, exponents), float, x.size).reshape(x.shape)


def point_mass(value: float, mhr: bool = False) -> Distribution:
    return Distribution("point-mass", params=(float(value),), mhr=mhr)


def discrete(atoms: Sequence[float], weights: Sequence[float], mhr: bool = False) -> Distribution:
    return Distribution(
        "discrete",
        atoms=tuple(float(v) for v in atoms),
        weights=tuple(float(w) for w in weights),
        mhr=mhr,
    )


def uniform(a: float, b: float, mhr: bool = False) -> Distribution:
    return Distribution("uniform", params=(float(a), float(b)), mhr=mhr)


def exponential(rate: float, mhr: bool = True) -> Distribution:
    return Distribution("exponential", params=(float(rate),), mhr=mhr)


@dataclass(frozen=True, slots=True)
class ElementRealization:
    """Two independent draws for one element, relabeled so that y > z."""

    element: int
    y: TaggedValue
    z: TaggedValue

    def __post_init__(self) -> None:
        if self.y.element != self.element or self.z.element != self.element:
            raise ValueError("realization draws must carry the element id")
        if not self.y > self.z:
            raise ValueError("y must exceed z in tagged-value order")


def draw_realization(dist: Distribution, element: int, rng: np.random.Generator) -> ElementRealization:
    """Draw two independent values with fresh tiebreak tokens and relabel."""
    v1, v2 = dist.sample(rng), dist.sample(rng)
    u1 = rng.random()
    u2 = rng.random()
    while u2 == u1:  # zero-probability guard; keeps the order strict
        u2 = rng.random()
    a = TaggedValue(v1, u1, element)
    b = TaggedValue(v2, u2, element)
    y, z = (a, b) if a > b else (b, a)
    return ElementRealization(element, y, z)


REALIZATION_LAYOUT = "vvtt"  # `draw_realization`: two values, then two tokens


@dataclass(frozen=True)
class TrialDraws:
    """The draws of a run of trials, per trial (last axis): the values and
    the tie-break tokens of every element, value slot d of element e in row
    d * n + e (and likewise for tokens); with the realization layout one
    coin per element (heads: the larger value is the reward), else None; and
    one permutation per requested size ((trials, size) each)."""

    values: np.ndarray
    tokens: np.ndarray
    coins: np.ndarray | None
    permutations: tuple[np.ndarray, ...]


_BLOCK_CELLS = 65536  # raw draws per block of trials: a 512 KiB table
# Fewer trials are drawn by their generators' calls: the table's numpy ops
# cost a few hundred us per call however few the trials. Measured crossover:
# 12-16 trials, and 20-48 with a 30-element order to decode.
_MIN_DECODED_TRIALS = 16
_LANE_CELLS = 4096  # (trial, lane) states stepped by one numpy op in `_TrialStreams.raws`
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # numpy PCG64's LCG step
_MULTIPLIER_WORDS = (np.uint64(_PCG_MULTIPLIER >> 64), np.uint64(_PCG_MULTIPLIER & (2**64 - 1)))
# Shift counts and masks as uint64 scalars: with a python int, numpy's ops on
# uint64 arrays of 256 KiB or more ran about ten times slower.
_U1, _U3, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 3, 11, 32, 58, 63, 64))
_WORD, _LEVEL = np.uint64(0xFFFFFFFF), np.uint64(255)


@cache
def _hash_constants(first: int, mult: int, calls: int) -> np.ndarray:
    """SeedSequence's successive hash constants, as a (calls + 1, 1) column."""
    out = [first]
    for _ in range(calls):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


def _seed_sequence_states(entropy: np.ndarray) -> np.ndarray:
    """numpy's `SeedSequence(entropy).generate_state(8)` for each row of
    `entropy` (uint32 words, all rows of one length): the pool mixing and
    the output hash run on all rows at once, since their hash constants do
    not depend on the data. Within one source word the three mixes into the
    other pool words are independent, so they run as one step."""
    count, width = entropy.shape
    mixing = _hash_constants(0x43B0D7E5, 0x931E8875, 16 + 4 * max(0, width - 4))
    calls = 0

    def hashmix(values: np.ndarray, n: int) -> np.ndarray:  # the next n calls
        nonlocal calls
        k, calls = calls, calls + n
        values = (values ^ mixing[k:calls]) * mixing[k + 1:calls + 1]
        return values ^ (values >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * 0xCA01F9DD - y * 0x4973F715
        return result ^ (result >> 16)

    pool = np.zeros((4, count), dtype=np.uint32)
    pool[:min(width, 4)] = entropy[:, :4].T
    pool = hashmix(pool, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 3))
    for src in range(4, width):
        pool = mix(pool, hashmix(entropy[:, src], 4))
    output = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
    words = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ output[:8]) * output[1:]
    return (words ^ (words >> 16)).T


def _uint32_words(value: int) -> list[int]:
    """An integer as numpy's SeedSequence reads it: 32-bit words, low first."""
    words = [value & 0xFFFFFFFF]
    while value >> 32:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def _words128(values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit integers as (high, low) uint64 word arrays."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & 0xFFFFFFFFFFFFFFFF for v in values], dtype=np.uint64))


def _mul128(xh, xl, ch, cl) -> tuple[np.ndarray, np.ndarray]:
    """x * c mod 2**128 on (high, low) uint64 words. numpy's uint64 products
    wrap mod 2**64, so only the high word of xl * cl is built from 32-bit
    halves."""
    x0, x1, c0, c1 = xl & _WORD, xl >> _U32, cl & _WORD, cl >> _U32
    low = x0 * c0
    mid = x1 * c0 + (low >> _U32)
    cross = x0 * c1 + (mid & _WORD)
    high = x1 * c1 + (mid >> _U32) + (cross >> _U32) + xl * ch + xh * cl
    return high, xl * cl


def _add128(xh, xl, yh, yl) -> tuple[np.ndarray, np.ndarray]:
    low = xl + yl
    return xh + yh + (low < yl), low


@cache
def _lcg_jump(steps: int) -> tuple[int, int]:
    """(M**steps, 1 + M + ... + M**(steps - 1)) mod 2**128: `steps` PCG64
    steps s -> M s + inc take a state s to M**steps * s + sum * inc."""
    if not steps:
        return 1, 0
    a, c = _lcg_jump(steps // 2)
    a, c = a * a % (1 << 128), c * (a + 1) % (1 << 128)
    if steps % 2:
        a, c = a * _PCG_MULTIPLIER % (1 << 128), (c * _PCG_MULTIPLIER + 1) % (1 << 128)
    return a, c


@cache
def _lane_starts(stride: int, lanes: int) -> tuple[np.ndarray, ...]:
    """The jumps to the first raw draw of each lane l (l * stride + 1
    steps), as the (high, low) words of their two factors."""
    step_a, step_c = _lcg_jump(stride)
    jumps = [_lcg_jump(1)]
    for _ in range(1, lanes):
        a, c = jumps[-1]
        jumps.append((step_a * a % (1 << 128), (step_a * c + step_c) % (1 << 128)))
    return (*_words128([a for a, _ in jumps]), *_words128([c for _, c in jumps]))


class _TrialStreams:
    """The streams trial_rng(seed, t) of a run of trials: each trial's
    initial PCG64 (state, inc) is computed as numpy seeds it (SeedSequence,
    then the PCG64 seeding steps), as (high, low) uint64 word arrays, and
    `raws` steps all the streams together as numpy arrays. `at` sets one
    shared generator to a trial's stream, for the few draws not read off
    the raw table."""

    def __init__(self, seed: int, trials: range):
        if len(trials) and max(trials[0], trials[-1]) >> 32:  # numpy's own seeding
            states = [trial_rng(seed, t).bit_generator.state["state"] for t in trials]
            self.state = _words128([st["state"] for st in states])
            self.inc = _words128([st["inc"] for st in states])
            return
        words = _uint32_words(seed)
        entropy = np.empty((len(trials), len(words) + 1), dtype=np.uint32)
        entropy[:, :-1] = words
        entropy[:, -1] = np.arange(trials.start, trials.stop, trials.step)
        state = _seed_sequence_states(entropy).astype(np.uint64)
        a, b, c, d = (state[:, 2 * k] | state[:, 2 * k + 1] << _U32 for k in range(4))
        # PCG64 seeding: inc = 2 (c, d) + 1, then one step from state inc + (a, b).
        self.inc = (c << _U1 | d >> _U63), (d << _U1 | _U1)
        self.state = _add128(*_mul128(*_add128(a, b, *self.inc), *_MULTIPLIER_WORDS), *self.inc)

    def raws(self, width: int) -> np.ndarray:
        """The first `width` raw draws of every trial's stream, one row per
        trial, as PCG64's `random_raw` makes them: a step s -> M s + inc,
        then the XSL-RR output of s. The columns are cut into lanes of
        `stride` columns that start from jumped states and step together,
        so that each numpy op spans about _LANE_CELLS states however few
        the trials."""
        count = len(self.inc[0])
        lanes = max(1, min(width, _LANE_CELLS // max(count, 1)))
        stride = -(-width // lanes)
        ih, il = (x[:, None] for x in self.inc)
        ah, al, ch, cl = _lane_starts(stride, lanes)
        sh, sl = _add128(*_mul128(self.state[0][:, None], self.state[1][:, None], ah, al),
                         *_mul128(ih, il, ch, cl))
        table = np.empty((count, lanes, stride), dtype=np.uint64)
        for k in range(stride):
            if k:
                sh, sl = _add128(*_mul128(sh, sl, *_MULTIPLIER_WORDS), ih, il)
            x, rot = sh ^ sl, sh >> _U58
            table[:, :, k] = x >> rot | x << (_U64 - rot & _U63)
        return table.reshape(count, -1)[:, :width]

    @cached_property
    def _rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(0))

    def at(self, i: int, position: int) -> np.random.Generator:
        """The shared generator at raw draw `position` of trial i's stream."""
        state = int(self.state[0][i]) << 64 | int(self.state[1][i])
        inc = int(self.inc[0][i]) << 64 | int(self.inc[1][i])
        a, c = _lcg_jump(position)
        self._rng.bit_generator.state = {
            "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": {"state": (a * state + c * inc) % (1 << 128), "inc": inc}}
        return self._rng


def _draw_runs(rng: np.random.Generator, plan: Sequence[Sequence[int]], row: np.ndarray) -> None:
    """A trial's draws made by its generator, one call per run of draws of
    one kind: [kind, first column, stop] (kind 1 standard exponential, 0 a
    double)."""
    for kind, lo, hi in plan:
        (rng.standard_exponential if kind else rng.random)(out=row[lo:hi])


def _decode_raw(raws: np.ndarray, is_exp: np.ndarray, streams: _TrialStreams, tables) -> tuple:
    """The draws of each trial (row) read from the first raw 64-bit draws of
    its stream, `raws`, one per entry of `is_exp` (a standard exponential,
    else a double), as `rng.standard_exponential` and `rng.random` make
    them. A double takes one raw draw u: (u >> 11) / 2**53. An exponential
    takes one on the ziggurat's fast path (`_ziggurat`); a row with one off
    it (about 2 % of draws) is read by `_decode_shifted`. Returns the draws
    and per trial the raw position after them, -1 when they need more raw
    draws than the row holds."""
    count, width = raws.shape
    draws = len(is_exp)
    ri = raws >> _U11
    out = ri[:, :draws] * 2.0**-53
    ends = np.full(count, draws)
    if not is_exp.any():
        return out, ends
    ke, we = tables
    (cols,) = np.nonzero(is_exp)
    level = (raws[:, cols] >> _U3 & _LEVEL).astype(np.intp)
    fast = ri[:, cols]
    out[:, cols] = fast * we[level]
    rows = np.flatnonzero((fast >= ke[level]).any(axis=1))
    if len(rows):
        out[rows], ends[rows] = _decode_shifted(raws[rows], rows, is_exp, streams, tables)
    return out, ends


def _decode_shifted(raws: np.ndarray, rows: np.ndarray, is_exp: np.ndarray,
                    streams: _TrialStreams, tables) -> tuple:
    """`_decode_raw` on rows (trials `rows` of `streams`) that hold an
    exponential off the ziggurat's fast path: the stream's generator makes
    that draw itself, and the draws after it move along by the raw draws it
    took."""
    ke, we = tables
    count, width = raws.shape
    draws = len(is_exp)
    ri = raws >> _U11
    level = (raws >> _U3 & _LEVEL).astype(np.intp)
    extra = np.zeros((count, draws), dtype=np.int64)  # raw draws taken beyond one
    ends = [draws] * count
    made = []  # (trial, column, draw) made by the generator
    slow = ri >= ke[level]
    # Up to a row's first exponential off the fast path each draw reads its
    # own column, so the raw draws off it before then start no exponential.
    slow &= np.logical_or.accumulate(slow & np.pad(is_exp, (0, width - draws)), axis=1)
    slow_rows, slow_at = np.nonzero(slow)
    columns = is_exp.tolist()
    i0 = rng_row = -1
    for i, p in zip(slow_rows.tolist(), slow_at.tolist()):
        c = p - (ends[i] - draws)  # the column that would read raw draw p
        if i != i0:
            i0, unread = i, 0  # raw draws before `unread` are taken
        if ends[i] < 0 or p < unread or c >= draws or not columns[c]:
            continue  # no exponential starts at p
        if rng_row != i:
            rng, row, rng_row, at = streams.at(rows[i], p), raws[i], i, p
        elif p != at:  # back one raw draw when p is the one read after the last
            rng.bit_generator.advance((p - at) % (1 << 128))
        made.append((i, c, rng.standard_exponential()))
        following = rng.bit_generator.random_raw()
        unread = p + 2
        while unread < width and row[unread] != following:
            unread += 1
        at = unread + 1
        extra[i, c] = unread - p - 1
        ends[i] += unread - p - 1
        if unread >= width or ends[i] > width:  # the row holds too few raw draws
            ends[i] = -1
    pos = np.arange(draws) + np.cumsum(extra, axis=1) - extra
    flat = (np.minimum(pos, width - 1) + np.arange(0, count * width, width)[:, None]).ravel()
    scale = np.where(is_exp, we[level.ravel()[flat]].reshape(count, draws), 2.0**-53)
    out = ri.ravel()[flat].reshape(count, draws) * scale
    for i, c, x in made:
        out[i, c] = x
    return out, np.array(ends)


def _permutation_width(sizes: Sequence[int]) -> int:
    """Raw draws kept per trial for `_decode_permutations`. Its steps take
    on average at most 1.47 words (32-bit halves) each, with a standard
    deviation below 0.9 sqrt(steps) words over all steps; the room is 1.5
    words a step plus 4 sqrt(steps) + 16. A row that needs more is drawn
    again in full by its generator."""
    steps = sum(max(size - 1, 0) for size in sizes)
    return (3 * steps // 2 + 4 * math.isqrt(steps) + 16) // 2 if steps else 0


def _window(raws: np.ndarray, ends: np.ndarray, width: int) -> np.ndarray:
    """Per row, the `width` raw draws from its position `ends` (0 for a row
    at -1) on, split into 32-bit halves, low half first."""
    at = np.maximum(ends, 0)[:, None] + np.arange(width)
    return np.take_along_axis(raws, at, axis=1).astype("<u8", copy=False).view("<u4")


def _decode_permutations(words: np.ndarray, sizes: Sequence[int]) -> tuple[list, np.ndarray]:
    """`rng.permutation(size)` for each of `sizes` in turn, per trial: a
    column of `words`, its 32-bit words in the order numpy's `next_uint32`
    hands them out (the low half of a raw draw, then its high half, which
    carries over into the next permutation). numpy shuffles arange(size) by
    Fisher-Yates from the last index i down to 1, swapping it with j =
    `random_interval(i)`: the next word masked to the bits of i, read again
    while it exceeds i. The picks of all trials are read one word (row) at
    a time, each trial at its own step. Returns the permutations ((trials,
    size) each) and per trial whether its words sufficed; the permutations
    of the other trials are garbage. `words` is overwritten."""
    bounds = [i for size in sizes for i in range(size - 1, 0, -1)]
    steps = len(bounds)
    bound = np.array(bounds + [-1])  # a row past its last step takes no word
    mask = np.array([(1 << i.bit_length()) - 1 for i in bounds] + [0], dtype=np.uint32)
    taken = np.zeros(words.shape, dtype=bool)
    count = words.shape[1]
    step = np.zeros(count, dtype=np.intp)
    for q, word in enumerate(words):
        word &= mask[step]  # the word becomes its masked pick
        np.less_equal(word, bound[step], out=taken[q])
        step += taken[q]
        if q >= steps and q % 16 == 15 and step.min() == steps:
            words, taken = words[:q + 1], taken[:q + 1]
            break
    done = step == steps
    j = words.T[done][taken.T[done]].reshape(done.sum(), steps)
    perms, at = [], 0
    for size in sizes:
        perm = np.empty((count, size), dtype=np.int64)
        shuffled = np.tile(np.arange(size), (len(j), 1))
        flat = shuffled.ravel()
        base = np.arange(len(j)) * size
        for i in range(size - 1, 0, -1):
            target = base + j[:, at]
            at += 1
            picked = flat[target]
            flat[target] = shuffled[:, i]
            shuffled[:, i] = picked
        perm[done] = shuffled
        perms.append(perm)
    return perms, done


@cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray] | None:
    """numpy's ziggurat for `standard_exponential`, as (ke, we): a raw draw
    u with ri = u >> 11 and level i = (u >> 3) & 255 gives the draw
    ri * we[i] by itself when ri < ke[i]; else the draw takes more raw
    draws. Both tables are read off a PCG64 set so that its next raw draw is
    a chosen one. None when draws read off `_TrialStreams.raws` with them
    (doubles, exponentials, then two permutations) differ from the scalar
    calls on trial_rng's streams, so `draw_trials` falls back to those."""
    bg = np.random.PCG64(0)
    rng = np.random.Generator(bg)
    inverse = pow(_PCG_MULTIPLIER, -1, 1 << 128)
    state = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 1},
             "has_uint32": 0, "uinteger": 0}

    def probe(ri: int, level: int) -> float | None:
        """The draw from raw draw (ri << 11) | (level << 3); None if it takes more."""
        raw = (ri << 11) | (level << 3)
        # A state below 2**64 outputs its low word: step back one LCG step.
        state["state"]["state"] = (raw - 1) * inverse % (1 << 128)
        bg.state = state
        x = rng.standard_exponential()
        return x if bg.state["state"]["state"] == raw else None

    we = np.array([probe(1, i) or 0.0 for i in range(256)])
    ke = np.zeros(256, dtype=np.uint64)
    for i in range(256):
        lo, hi = 0, 1 << 53  # ke[i] lies in [lo, hi]
        if i > 2 and we[i - 1] and we[i]:  # the ratio of strip widths, to a few units
            guess = int(we[i - 1] / we[i] * 2.0**53)
            if 4 <= guess < (1 << 53) - 4 and probe(guess - 4, i) is not None \
                    and probe(guess + 4, i) is None:
                lo, hi = guess - 3, guess + 4
        while lo < hi:
            mid = (lo + hi) // 2
            if probe(mid, i) is None:
                hi = mid
            else:
                lo = mid + 1
        ke[i] = lo

    is_exp = np.array([True, False] * 150 + [True] * 300)
    sizes = (9, 65)
    streams = _TrialStreams(0, range(4))
    raws = streams.raws(700 + _permutation_width(sizes))
    got, ends = _decode_raw(raws[:, :700], is_exp, streams, (ke, we))
    perms, done = _decode_permutations(_window(raws, ends, _permutation_width(sizes)).T, sizes)
    for t in range(4):
        r = trial_rng(0, t)
        want = [r.standard_exponential() if k else r.random() for k in is_exp]
        if ends[t] < 0 or got[t].tolist() != want or not done[t] or any(
                p[t].tolist() != r.permutation(size).tolist() for p, size in zip(perms, sizes)):
            return None
    return ke, we


def draw_trials(
    distributions: Sequence[Distribution], seed: int, trials: range,
    permutation_sizes: Sequence[int] = (), layout: str = REALIZATION_LAYOUT,
) -> TrialDraws:
    """Trial t's draws from its own stream trial_rng(seed, t), in the order
    of the scalar code. `layout` lists one element's draws in stream order:
    `v` a value (`Distribution.sample`), `t` a tie-break token (one double).
    The realization layout is followed by one coin per element
    (`assign_coins`); the mechanism's "vtvtvt" (pricing, reserve and
    valuation, each a value and its token) draws no coins. The permutations
    (`rng.permutation`) come last.

    Point masses take no draw, exponential values one standard exponential
    draw each and every other value or token one double. The raw 64-bit
    draws of a block of trials are one numpy table (`_TrialStreams.raws`):
    no generator is set to any trial's state. The draws are decoded off it
    for the whole block (`_decode_raw`), and the permutations off the raw
    draws after them (`_decode_permutations`). A trial whose draws outrun
    the table is made by its own generator, one call per run of draws of
    one kind, and so are all trials when the decoding's check at first use
    fails (`_ziggurat`). The draws become values for all trials at once.
    With the realization layout, a trial whose two tokens of an element tie
    is drawn again by the scalar code, which redraws the second token."""
    n = len(distributions)
    realization = layout == REALIZATION_LAYOUT
    # Per draw in stream order, its kind: 1 a standard exponential draw, 0 a
    # double. Per layout slot and element, the column of its draw in a
    # trial's row (-1: a point mass draws nothing).
    kinds: list[int] = []
    cols = np.full((len(layout), n), -1)
    for e, dist in enumerate(distributions):
        value_kind = None if dist.kind == "point-mass" else int(dist.kind == "exponential")
        for slot, kind in enumerate(layout):
            k = 0 if kind == "t" else value_kind
            if k is not None:
                cols[slot, e] = len(kinds)
                kinds.append(k)
    coin_cols = list(range(len(kinds), len(kinds) + n)) if realization else []
    kinds += [0] * len(coin_cols)
    # Per trial, the calls in stream order: [kind, first column, stop].
    plan: list[list[int]] = []
    for c, k in enumerate(kinds):
        if plan and plan[-1][0] == k:
            plan[-1][2] = c + 1
        else:
            plan.append([k, c, c + 1])

    count = len(trials)
    raw = np.empty((count, len(kinds)))
    perms = [np.empty((count, size), dtype=np.int64) for size in permutation_sizes]
    ends = np.full(count, -1)
    tables = _ziggurat() if count >= _MIN_DECODED_TRIALS else None
    if tables is not None:
        is_exp = np.array(kinds, dtype=bool)
        # room for exponentials off the fast path
        width = len(kinds) + (8 + len(kinds) // 8 if is_exp.any() else 0)
        perm_width = _permutation_width(permutation_sizes)
        words = np.empty((2 * perm_width, count), dtype=np.uint32)
        block = max(1, _BLOCK_CELLS // (width + perm_width))
        for start in range(0, count, block):
            rows = slice(start, min(start + block, count))
            streams = _TrialStreams(seed, trials[rows])
            raws = streams.raws(width + perm_width)
            raw[rows], ends[rows] = _decode_raw(raws[:, :width], is_exp, streams, tables)
            if perms:
                words[:, rows] = _window(raws, ends[rows], perm_width).T
        if perms:
            perms, done = _decode_permutations(words, permutation_sizes)
            ends[~done] = -1
    for i in np.flatnonzero(ends < 0):
        rng = trial_rng(seed, trials[i])
        _draw_runs(rng, plan, raw[i])
        for perm, size in zip(perms, permutation_sizes):
            perm[i] = rng.permutation(size)
    perms = tuple(perms)

    is_value = np.array([kind == "v" for kind in layout])
    values = np.ascontiguousarray(raw[:, cols[is_value].ravel()].T)
    for e, dist in enumerate(distributions):
        drawn = values[e::n]  # value slot d of element e is row d * n + e
        if dist.kind == "point-mass":
            drawn[:] = dist.params[0]
        elif dist.kind == "exponential":  # exponential(scale) is scale times the draw
            drawn *= 1.0 / dist.params[0]
        else:
            drawn[:] = dist.from_uniform(drawn)
    tokens = np.ascontiguousarray(raw[:, cols[~is_value].ravel()].T)
    if not realization:
        return TrialDraws(values, tokens, None, perms)

    coins = (raw[:, coin_cols] < 0.5).T
    for i in np.flatnonzero((tokens[:n] == tokens[n:]).any(axis=0)):
        rng = trial_rng(seed, trials[i])
        for e, dist in enumerate(distributions):
            r = draw_realization(dist, e, rng)
            values[[e, n + e], i] = r.y.value, r.z.value
            tokens[[e, n + e], i] = r.y.tiebreak, r.z.tiebreak
        coins[:, i] = [rng.random() < 0.5 for _ in range(n)]
        for perm, size in zip(perms, permutation_sizes):
            perm[i] = rng.permutation(size)
    return TrialDraws(values, tokens, coins, perms)


@dataclass(frozen=True, slots=True)
class PathEntry:
    value: TaggedValue
    element: int
    label: str  # "Y" or "Z"


@dataclass(frozen=True)
class SamplePath:
    """The 2n tagged values of all elements in strictly decreasing order.

    `partner[j]` is the index of the other value of the same element; the
    Y index of every element precedes its Z index.
    """

    entries: tuple[PathEntry, ...]
    partner: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.entries) // 2

    @property
    def length(self) -> int:
        return len(self.entries)

    def elements(self) -> tuple[int, ...]:
        return tuple(e.element for e in self.entries)

    def values(self) -> tuple[float, ...]:
        return tuple(e.value.value for e in self.entries)

    @cached_property
    def pairs(self) -> tuple[tuple[int, float], ...]:
        """(element, value) of every entry, built once for the path greedy."""
        return tuple(zip(self.elements(), self.values()))

    def y_index(self, element: int) -> int:
        for j, e in enumerate(self.entries):
            if e.element == element and e.label == "Y":
                return j
        raise KeyError(element)


def build_sample_path(realizations: Sequence[ElementRealization]) -> SamplePath:
    """Sort all Y/Z values into the decreasing path and wire up partners."""
    if not realizations:
        raise ValueError("need at least one realization")
    seen: set[int] = set()
    for r in realizations:
        if r.element in seen:
            raise ValueError(f"duplicate element id {r.element}")
        seen.add(r.element)

    tagged: list[PathEntry] = []
    for r in realizations:
        tagged.append(PathEntry(r.y, r.element, "Y"))
        tagged.append(PathEntry(r.z, r.element, "Z"))
    tagged.sort(key=lambda e: e.value.key, reverse=True)

    where: dict[tuple[int, str], int] = {}
    for j, e in enumerate(tagged):
        where[(e.element, e.label)] = j
    partner = tuple(
        where[(e.element, "Z" if e.label == "Y" else "Y")] for e in tagged
    )
    path = SamplePath(entries=tuple(tagged), partner=partner)
    for r in realizations:
        if where[(r.element, "Y")] >= where[(r.element, "Z")]:
            raise AssertionError("Y index must precede Z index")
    return path


@dataclass(frozen=True)
class Configuration:
    """One coin-flip outcome per path position; partners always differ."""

    coins: tuple[str, ...]

    def __post_init__(self) -> None:
        if any(c not in (HEADS, TAILS) for c in self.coins):
            raise ValueError("coins must be 'H' or 'T'")

    @classmethod
    def from_heads_mask(cls, path: SamplePath, mask: int) -> "Configuration":
        """Mask bit e set means element e's Y value is the reward (heads)."""
        coins = []
        for entry in path.entries:
            bit = (mask >> entry.element) & 1
            if entry.label == "Y":
                coins.append(HEADS if bit else TAILS)
            else:
                coins.append(TAILS if bit else HEADS)
        return cls(tuple(coins))


def validate_configuration(path: SamplePath, config: Configuration) -> None:
    if len(config.coins) != path.length:
        raise ValueError("configuration length does not match the path")
    for j, p in enumerate(path.partner):
        if config.coins[j] == config.coins[p]:
            raise ValueError(f"coins at partner indices {j},{p} must differ")


def assign_coins(
    realizations: Sequence[ElementRealization], rng: np.random.Generator
) -> tuple[dict[int, TaggedValue], dict[int, TaggedValue], Configuration]:
    """Flip one fair coin per element to split (Y, Z) into (reward, sample).

    Heads keeps the larger value as the reward. The returned configuration
    records the outcome at both path indices of every element.
    """
    path = build_sample_path(realizations)
    rewards: dict[int, TaggedValue] = {}
    samples: dict[int, TaggedValue] = {}
    mask = 0
    for r in realizations:
        if rng.random() < 0.5:
            mask |= 1 << r.element
            rewards[r.element], samples[r.element] = r.y, r.z
        else:
            rewards[r.element], samples[r.element] = r.z, r.y
    return rewards, samples, Configuration.from_heads_mask(path, mask)


def enumerate_configurations(path: SamplePath) -> Iterator[Configuration]:
    """Yield each of the 2**n feasible configurations exactly once."""
    n = path.n
    if n > CONFIG_ENUMERATION_CAP:
        raise CapExceededError(
            f"configuration enumeration capped at n <= {CONFIG_ENUMERATION_CAP}, got n = {n}"
        )
    for mask in range(1 << n):
        yield Configuration.from_heads_mask(path, mask)
