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


@dataclass(frozen=True, slots=True)
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

    def __lt__(self, other: "TaggedValue") -> bool:
        return self.key < other.key

    def __le__(self, other: "TaggedValue") -> bool:
        return self.key <= other.key

    def __gt__(self, other: "TaggedValue") -> bool:
        return self.key > other.key

    def __ge__(self, other: "TaggedValue") -> bool:
        return self.key >= other.key


def compare(a: TaggedValue, b: TaggedValue) -> int:
    """Strict total order on tagged values: -1 if a < b, +1 if a > b.

    Never reports equality: distinct element ids always order, and two tagged
    values with the same element id must differ in value or tiebreak.
    """
    if a.key == b.key:
        raise ValueError(f"cannot order identical tagged values: {a}")
    return -1 if a.key < b.key else 1


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

    def cdf(self, x: float) -> float:
        if self.kind == "point-mass":
            return 1.0 if x >= self.params[0] else 0.0
        if self.kind == "discrete":
            return sum(w for v, w in zip(self.atoms, self.weights) if v <= x)
        if self.kind == "uniform":
            a, b = self.params
            return min(1.0, max(0.0, (x - a) / (b - a)))
        rate = self.params[0]
        return 1.0 - math.exp(-rate * x) if x > 0 else 0.0

    def prob_at_least(self, x: float) -> float:
        """P[draw >= x], counting any atom at x itself."""
        if self.kind == "point-mass":
            return 1.0 if self.params[0] >= x else 0.0
        if self.kind == "discrete":
            return sum(w for v, w in zip(self.atoms, self.weights) if v >= x)
        if self.kind == "uniform":
            a, b = self.params
            return min(1.0, max(0.0, (b - x) / (b - a)))
        rate = self.params[0]
        return math.exp(-rate * x) if x > 0 else 1.0


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


_ROW_BLOCK = 256  # trials decoded from raw draws at once, to bound the temporaries
# Fewer trials are drawn by their generators' calls: a decoded block costs
# about 0.3 ms more up front, and saves about 20 us per trial.
_MIN_DECODED_TRIALS = 16


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


class _TrialStreams:
    """The streams trial_rng(seed, t) of a run of trials on one shared
    PCG64: each trial's initial (state, inc) is computed as numpy seeds it
    (SeedSequence, then the PCG64 seeding steps), which costs far less than
    creating a generator per trial."""

    MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # numpy PCG64's LCG step

    def __init__(self, seed: int, trials: Sequence[int]):
        self.bit_generator = np.random.PCG64(0)
        self.rng = np.random.Generator(self.bit_generator)
        self._state = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 1},
                       "has_uint32": 0, "uinteger": 0}
        if seed < 0 or (len(trials) and max(trials) >> 32):  # numpy's own seeding
            self.states = [(st["state"], st["inc"]) for st in (
                trial_rng(seed, t).bit_generator.state["state"] for t in trials)]
            return
        entropy = np.array([_uint32_words(seed) + [t] for t in trials], dtype=np.uint32)
        words = _seed_sequence_states(entropy.reshape(len(trials), -1)).astype(np.uint64)
        u64 = (words[:, 0::2] | words[:, 1::2] << 32).tolist()
        mask = (1 << 128) - 1
        self.states = []
        for a, b, c, d in u64:
            inc = ((c << 64 | d) << 1 | 1) & mask
            state = ((inc + (a << 64 | b)) * self.MULTIPLIER + inc) & mask
            self.states.append((state, inc))

    def at(self, i: int, position: int) -> np.random.Generator:
        """The shared generator at raw draw `position` of trial i's stream."""
        self._state["state"]["state"], self._state["state"]["inc"] = self.states[i]
        self.bit_generator.state = self._state
        if position:
            self.bit_generator.advance(position)
        return self.rng


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
    takes one on the ziggurat's fast path (`_ziggurat`); off it (about 2 %
    of draws) the stream's generator makes the draw itself, and the draws
    after it move along by the raw draws it took. Returns the draws and per
    trial the raw position after them, -1 when they need more raw draws than
    the row holds."""
    ke, we = tables
    count, width = raws.shape
    draws = len(is_exp)
    ri = raws >> 11
    level = ((raws >> 3) & 255).astype(np.intp)
    exps = ri * we[level]
    extra = np.zeros((count, draws), dtype=np.int64)  # raw draws taken beyond one
    ends = [draws] * count
    made = []  # (trial, column, draw) made by the generator
    slow_rows, slow_at = np.nonzero(ri >= ke[level])
    columns = is_exp.tolist()
    i0 = rng_row = -1
    for i, p in zip(slow_rows.tolist(), slow_at.tolist()):
        c = p - (ends[i] - draws)  # the column that would read raw draw p
        if i != i0:
            i0, unread = i, 0  # raw draws before `unread` are taken
        if ends[i] < 0 or p < unread or c >= draws or not columns[c]:
            continue  # no exponential starts at p
        if rng_row != i:
            rng, row, rng_row, at = streams.at(i, p), raws[i], i, p
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
    out = np.where(is_exp, exps.ravel()[flat].reshape(count, draws),
                   ri.ravel()[flat].reshape(count, draws) * 2.0**-53)
    for i, c, x in made:
        out[i, c] = x
    return out, np.array(ends)


@cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray] | None:
    """numpy's ziggurat for `standard_exponential`, as (ke, we): a raw draw
    u with ri = u >> 11 and level i = (u >> 3) & 255 gives the draw
    ri * we[i] by itself when ri < ke[i]; else the draw takes more raw
    draws. Both tables are read off a PCG64 set so that its next raw draw is
    a chosen one. None when draws decoded with them differ from the scalar
    calls on trial_rng's streams, so `draw_trials` falls back to those."""
    bg = np.random.PCG64(0)
    rng = np.random.Generator(bg)
    inverse = pow(_TrialStreams.MULTIPLIER, -1, 1 << 128)
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
    streams = _TrialStreams(0, range(4))
    raws = np.stack([streams.at(t, 0).bit_generator.random_raw(700) for t in range(4)])
    got, ends = _decode_raw(raws, is_exp, streams, (ke, we))
    for t in range(4):
        r = trial_rng(0, t)
        want = [r.standard_exponential() if k else r.random() for k in is_exp]
        if ends[t] < 0 or got[t].tolist() != want:
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
    draw each and every other value or token one double. Each trial's raw
    64-bit draws are one call on a shared generator (`_TrialStreams`), and
    are decoded for a block of trials at once (`_decode_raw`): creating a
    generator per trial costs about 14 us, and where exponentials and tokens
    alternate one call per draw costs about 1 us. A trial whose draws
    outrun its raw draws, and every trial of a run of fewer than
    _MIN_DECODED_TRIALS, is made by its own generator, one call per run of
    draws of one kind. The draws become values for all trials at once. With
    the realization layout, a trial whose two tokens of an element tie is
    drawn again by the scalar code, which redraws the second token."""
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
    perms = tuple(np.empty((count, size), dtype=np.int64) for size in permutation_sizes)
    tables = _ziggurat() if count >= _MIN_DECODED_TRIALS else None
    is_exp = np.array(kinds, dtype=bool)
    width = len(kinds) + 8 + len(kinds) // 8  # room for draws off the fast path
    for start in range(0, count, _ROW_BLOCK):
        block = trials[start:start + _ROW_BLOCK]
        if tables is None:
            ends = np.full(len(block), -1)
        else:
            streams = _TrialStreams(seed, block)
            raws = np.stack([streams.at(j, 0).bit_generator.random_raw(width)
                             for j in range(len(block))])
            raw[start:start + len(block)], ends = _decode_raw(raws, is_exp, streams, tables)
        for j, t in enumerate(block):
            if ends[j] < 0:
                rng = trial_rng(seed, t)
                _draw_runs(rng, plan, raw[start + j])
            elif perms:
                rng = streams.at(j, int(ends[j]))
            for perm, size in zip(perms, permutation_sizes):
                perm[start + j] = rng.permutation(size)

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

    def is_heads(self, j: int) -> bool:
        return self.coins[j] == HEADS

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

    def heads_mask(self, path: SamplePath) -> int:
        mask = 0
        for j, entry in enumerate(path.entries):
            if entry.label == "Y" and self.coins[j] == HEADS:
                mask |= 1 << entry.element
        return mask


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


def enumerate_configurations(
    path: SamplePath, cap: int = CONFIG_ENUMERATION_CAP
) -> Iterator[Configuration]:
    """Yield each of the 2**n feasible configurations exactly once."""
    n = path.n
    if n > cap:
        raise CapExceededError(
            f"configuration enumeration capped at n <= {cap}, got n = {n}"
        )
    for mask in range(1 << n):
        yield Configuration.from_heads_mask(path, mask)
