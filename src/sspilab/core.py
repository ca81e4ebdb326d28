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
from functools import cached_property
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


@dataclass(frozen=True)
class TrialDraws:
    """The draws of a run of trials: per trial (last axis) two values and
    two tie-break tokens per element (draw d of element e in row d * n + e),
    one coin per element (heads: the larger value is the reward) and one
    permutation per requested size ((trials, size) each)."""

    values: np.ndarray
    tokens: np.ndarray
    coins: np.ndarray
    permutations: tuple[np.ndarray, ...]


def draw_trials(
    distributions: Sequence[Distribution], seed: int, trials: range,
    permutation_sizes: Sequence[int] = (),
) -> TrialDraws:
    """Trial t's draws from its own stream trial_rng(seed, t), in the order
    of the scalar code: per element two values (`Distribution.sample`) and
    two tokens (`draw_realization`), then one coin per element
    (`assign_coins`), then the permutations (`rng.permutation`).

    Point masses take no double and the other laws but the exponential one
    double per value, so each stretch between exponential values is one
    `rng.random` call; the doubles become values for all trials at once. A
    trial whose two tokens of an element tie is drawn again by the scalar
    code, which redraws the second token."""
    n = len(distributions)
    # Per trial, the calls in stream order: (uniform?, first column, stop).
    plan: list[tuple[bool, int, int]] = []
    value_col, token_col = [], []  # per element, the column of its first value/token
    ucount = xcount = start = 0
    for dist in distributions:
        if dist.kind == "exponential":
            if ucount > start:
                plan.append((True, start, ucount))
            plan.append((False, xcount, xcount + 2))
            value_col.append(xcount)
            xcount += 2
            start = ucount
        elif dist.kind == "point-mass":
            value_col.append(-1)
        else:
            value_col.append(ucount)
            ucount += 2
        token_col.append(ucount)
        ucount += 2
    coin_col = ucount
    plan.append((True, start, ucount + n))

    count = len(trials)
    doubles = np.empty((count, ucount + n))
    exps = np.empty((count, xcount))
    perms = tuple(np.empty((count, size), dtype=np.int64) for size in permutation_sizes)
    for i, t in enumerate(trials):
        rng = trial_rng(seed, t)
        for uniform, lo, hi in plan:
            if uniform:
                rng.random(out=doubles[i, lo:hi])
            else:  # exponential(scale) is scale times this draw
                rng.standard_exponential(out=exps[i, lo:hi])
        for perm, size in zip(perms, permutation_sizes):
            perm[i] = rng.permutation(size)

    values = np.empty((2 * n, count))
    tokens = np.empty((2 * n, count))
    for e, dist in enumerate(distributions):
        rows = [e, n + e]
        c = value_col[e]
        if dist.kind == "exponential":
            values[rows] = (1.0 / dist.params[0]) * exps[:, c : c + 2].T
        elif dist.kind == "point-mass":
            values[rows] = dist.params[0]
        else:
            values[rows] = dist.from_uniform(doubles[:, c : c + 2].T)
        tokens[rows] = doubles[:, token_col[e] : token_col[e] + 2].T
    coins = (doubles[:, coin_col:] < 0.5).T

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
