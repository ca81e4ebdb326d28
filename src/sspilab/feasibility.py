"""Feasibility structures and their oracles.

Five structures are supported: general-graph matching (elements are edges),
transversal systems (elements are left nodes of a bipartite graph with a fixed
order on right nodes), truncated partition matroids (per-group plus global
capacities), simple partition matroids (at most one element per group), and
graphic matroids (elements are edges, independent sets are forests).

Each constructor is the one check of its structure's facts. It raises an
`InputError` naming its own field at fault (`edges[0]`, `groups[1]`, or empty
for the whole structure); the instance parser puts the document path in front.

Each frozen structure owns its facts as properties built once, on first
read, and read by every layer, scalar and batched:
- the graphs (matching and graphic): `touched_vertices`, the vertices
  some edge touches, `edge_ends`, the edges' endpoints numbered among
  them, and `vertex_masks`, the edges' endpoint bitmasks over those
  numbers; a declared `vertex_count` only bounds the endpoint ids;
- matching: the subset tables `matchings` and `maximal_matchings`;
- transversal: `neighbor_masks` and the subset table `matchable`;
- the partitions: `group_index` and `group_of`.
A subset table's entry S (a bitmask over the elements) answers one
question about the element set S; it is built in n doubling steps over its
2**n entries.

Alongside the independence checks this module houses one greedy rule per
structure kind, with hashable state values, and the one greedy walk over it.
The walk runs the greedy along a sample path (`path_walk`: per index the free
flag and the transversal target node, and the side's solution) and the
greedy-like offline solution (`greedy_prophet`: the greedy maximal matching,
the ordered-maximal bipartite matching or the matroid greedy). The
exact optima policies are measured against are here too: branch-and-bound for
general matching, the matroid greedy with augmenting paths for transversal
systems, and the matroid greedy itself for the other kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .core import (
    MASK_BITS,
    CapExceededError,
    InputError,
    SamplePath,
    TaggedValue,
    exact_integers,
)

MATCHING_EXACT_EDGE_CAP = 24


@dataclass(frozen=True)
class _Graph:
    """An undirected graph on the vertex ids 0..vertex_count-1; elements are
    edges. Parallel edges are allowed; self-loops are rejected.

    `vertex_count` only bounds the endpoint ids. Every per-vertex table
    counts the vertices some edge touches (`edge_ends`): an isolated vertex
    owns no edge and changes no result."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for i, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise InputError(f"edges[{i}]", f"dangling vertex in ({u},{v})")
            if u == v:
                raise InputError(f"edges[{i}]", "self-loops are not allowed")

    @property
    def ground_size(self) -> int:
        return len(self.edges)

    @cached_property
    def touched_vertices(self) -> tuple[int, ...]:
        """The ids of the vertices some edge touches, ascending."""
        return tuple(sorted({v for edge in self.edges for v in edge}))

    @cached_property
    def edge_ends(self) -> tuple[int, np.ndarray]:
        """(count, ends): the number of touched vertices, and per edge its
        two endpoints numbered 0..count-1 in the order of
        `touched_vertices`, (n, 2) in the smallest unsigned type that holds
        `count`. Every per-vertex table (bitmasks, component labels,
        thresholds, vertex orders) is over these numbers."""
        count = len(self.touched_vertices)
        number = {v: i for i, v in enumerate(self.touched_vertices)}
        ends = [number[v] for edge in self.edges for v in edge]
        return count, np.array(ends, dtype=np.min_scalar_type(count)).reshape(-1, 2)

    @cached_property
    def vertex_masks(self) -> list[int]:
        """Per edge, the bitmask of its two endpoints, bit v for vertex
        number v of `edge_ends`."""
        return [(1 << u) | (1 << v) for u, v in self.edge_ends[1].tolist()]


def _subset_union(masks) -> np.ndarray:
    """Entry S (S a bitmask over the elements): the OR of masks[e] over the
    elements e of S, built in one doubling step per element."""
    table = np.zeros(1 << len(masks), dtype=np.int64)
    for e, m in enumerate(masks):
        half = 1 << e
        table[half : 2 * half] = table[:half] | m
    return table


def _set_sizes(n: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << n, dtype=np.int64)).astype(np.int64)


@dataclass(frozen=True)
class GeneralMatching(_Graph):
    """Undirected graph; elements are edges, feasible sets are matchings."""

    @cached_property
    def matchings(self) -> tuple[np.ndarray, np.ndarray]:
        """The edge sets (element masks) that are matchings, and per set the
        mask of the edges it touches. Edges have two distinct endpoints, so
        S is a matching exactly when it covers 2|S| vertices."""
        covered = _subset_union(self.vertex_masks)
        sets = np.flatnonzero(np.bitwise_count(covered) == 2 * _set_sizes(len(self.edges)))
        covered = covered[sets]
        touched = np.zeros_like(covered)
        for e, m in enumerate(self.vertex_masks):
            touched |= ((covered & m) != 0).astype(np.int64) << e
        return sets, touched

    @cached_property
    def maximal_matchings(self) -> np.ndarray:
        """The edge sets that are maximal matchings of all edges."""
        sets, touched = self.matchings
        return sets[touched == (1 << len(self.edges)) - 1]


@dataclass(frozen=True)
class Transversal:
    """Bipartite system; elements are left nodes, feasible sets are the
    subsets of left nodes that can be perfectly matched into right nodes.

    Right nodes are identified with 0..right_count-1 and that index order is
    the fixed total order used by ordered-maximal matchings.
    """

    left_count: int
    right_count: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.adjacency) != self.left_count:
            raise InputError(
                "adjacency", f"need one neighbor list per left node ({self.left_count})"
            )
        for l, nbrs in enumerate(self.adjacency):
            for r in nbrs:
                if not 0 <= r < self.right_count:
                    raise InputError(f"adjacency[{l}]", f"unknown right node {r}")
            if len(set(nbrs)) != len(nbrs):
                raise InputError(f"adjacency[{l}]", "right node listed twice")

    @property
    def ground_size(self) -> int:
        return self.left_count

    def sorted_neighbors(self, l: int) -> tuple[int, ...]:
        return tuple(sorted(self.adjacency[l]))

    @cached_property
    def neighbor_masks(self) -> list[int]:
        """Per left node, the bitmask of its right neighbours."""
        return [sum(1 << r for r in nbrs) for nbrs in self.adjacency]

    @cached_property
    def matchable(self) -> np.ndarray:
        """Entry S (a bitmask over the left nodes): whether the left nodes S
        can be matched into right nodes.

        By Hall's condition, S can be matched iff every subset T of S has at
        least |T| neighbours; the count test per set is closed under
        subsets, one element at a time."""
        if self.right_count > MASK_BITS:
            raise CapExceededError(f"right-node bitmasks support up to {MASK_BITS} nodes")
        n = self.left_count
        table = np.bitwise_count(_subset_union(self.neighbor_masks)) >= _set_sizes(n)
        for e in range(n):
            half = 1 << e
            blocks = table.reshape(-1, 2 * half)  # second halves hold bit e
            blocks[:, half:] &= blocks[:, :half]
        return table


@dataclass(frozen=True)
class _Groups:
    """Disjoint groups of elements."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for i, g in enumerate(self.groups):
            for e in g:
                if e in seen:
                    raise InputError(f"groups[{i}]", f"element {e} in two groups")
                seen.add(e)

    @cached_property
    def group_index(self) -> dict[int, int]:
        """Element -> index of its group, built once per structure."""
        return {e: i for i, g in enumerate(self.groups) for e in g}

    def group_of(self, e: int) -> int:
        return self.group_index[e]


@dataclass(frozen=True)
class TruncatedPartition(_Groups):
    """Disjoint groups covering the ground set, each with a capacity, plus a
    global capacity on the whole selection (a two-layer laminar matroid)."""

    group_capacities: tuple[int, ...]
    total_capacity: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.group_capacities) != len(self.groups):
            raise InputError("group_capacities", "one capacity per group")
        if min(self.group_capacities, default=1) < 1 or self.total_capacity < 1:
            raise InputError("", "capacity must be >= 1")  # the whole structure
        if set(self.group_index) != set(range(len(self.group_index))):
            raise InputError("groups", "groups must partition 0..n-1")

    @property
    def ground_size(self) -> int:
        return sum(len(g) for g in self.groups)


@dataclass(frozen=True)
class SimplePartition(_Groups):
    """Disjoint groups; feasible sets take at most one element per group.

    The ground set is the union of the groups (empty groups are permitted,
    e.g. the vertex groups of a graphic-matroid partition)."""

    @property
    def ground_set(self) -> frozenset[int]:
        return frozenset(e for g in self.groups for e in g)

    @property
    def ground_size(self) -> int:
        return len(self.ground_set)


@dataclass(frozen=True)
class Graphic(_Graph):
    """Graphic matroid: elements are edges, independent sets are forests."""


FeasibilityStructure = Union[
    GeneralMatching, Transversal, TruncatedPartition, SimplePartition, Graphic
]

MATROID_KINDS = (TruncatedPartition, SimplePartition, Graphic)


@dataclass(frozen=True)
class Solution:
    """A feasible selection with its total value and, where meaningful, the
    assignment realizing it (transversal: element -> right node)."""

    chosen: frozenset[int]
    total: float
    assignment: dict[int, int] | None = None


def _check_elements(fs: FeasibilityStructure, s: Iterable[int]) -> list[int]:
    elems = list(s)
    if isinstance(fs, SimplePartition):
        ground = fs.ground_set
        for e in elems:
            if e not in ground:
                raise KeyError(f"unknown element id {e}")
    else:
        n = fs.ground_size
        for e in elems:
            if not 0 <= e < n:
                raise KeyError(f"unknown element id {e}")
    return elems


def _augment(t: Transversal, match_of_r: dict[int, int], l: int, visited: set[int]) -> bool:
    """Match left node l by an augmenting path, updating `match_of_r` only
    on success."""
    for r in t.adjacency[l]:
        if r in visited:
            continue
        visited.add(r)
        if r not in match_of_r or _augment(t, match_of_r, match_of_r[r], visited):
            match_of_r[r] = l
            return True
    return False


def _transversal_matchable(t: Transversal, s: Sequence[int]) -> bool:
    """Exact matchability of the left nodes `s` via augmenting paths."""
    if len(s) > t.right_count:
        return False
    match_of_r: dict[int, int] = {}
    return all(_augment(t, match_of_r, l, set()) for l in s)


def is_independent(fs: FeasibilityStructure, s: Iterable[int]) -> bool:
    """Exact feasibility oracle for every structure variant."""
    elems = _check_elements(fs, s)
    if len(set(elems)) != len(elems):
        return False
    if isinstance(fs, GeneralMatching):
        used: set[int] = set()
        for e in elems:
            u, v = fs.edges[e]
            if u in used or v in used:
                return False
            used.add(u)
            used.add(v)
        return True
    if isinstance(fs, Transversal):
        return _transversal_matchable(fs, elems)
    if isinstance(fs, TruncatedPartition):
        if len(elems) > fs.total_capacity:
            return False
        counts = [0] * len(fs.groups)
        for e in elems:
            counts[fs.group_of(e)] += 1
        return all(c <= cap for c, cap in zip(counts, fs.group_capacities))
    if isinstance(fs, SimplePartition):
        counts = [0] * len(fs.groups)
        for e in elems:
            counts[fs.group_of(e)] += 1
        return all(c <= 1 for c in counts)
    if isinstance(fs, Graphic):
        parent: dict[int, int] = {}  # touched vertices only: a root maps to nothing

        def root(x: int) -> int:
            while x in parent:
                x = parent[x]
            return x

        for e in elems:
            ru, rv = (root(x) for x in fs.edges[e])
            if ru == rv:
                return False
            parent[ru] = rv
        return True
    raise TypeError(f"unknown structure {type(fs)!r}")


# ---------------------------------------------------------------------------
# Greedy rules. One rule per structure kind answers the "can this element
# still be added" question of the one greedy walk, which the walk along a
# sample path and the offline greedy solution both run. A rule's states
# are hashable, immutable values: it gives `start`, `can_add(state, e)` and
# `add(state, e)`, which returns the next state. Equal states admit the same
# elements from then on, so a walk can be forked by keeping its state, and
# walks that reach equal states can be merged. For the transversal system
# the rule is the ordered-maximal one: an element is addable iff some
# adjacent right node is still free, and it takes the smallest such node.
# ---------------------------------------------------------------------------


class _Claims:
    """Matching and simple partition: the state is a bitmask of the used
    vertices or groups, and each element claims a fixed mask of them."""

    start = 0

    def __init__(self, masks) -> None:
        self.masks = masks

    def can_add(self, used: int, e: int) -> bool:
        return not used & self.masks[e]

    def add(self, used: int, e: int) -> int:
        return used | self.masks[e]


class _LowestFree:
    """Transversal: the state is a bitmask of the taken right nodes, and an
    element takes its lowest free neighbour."""

    start = 0

    def __init__(self, t: Transversal) -> None:
        self.nbrs = t.neighbor_masks

    def target(self, taken: int, l: int) -> int | None:
        free = self.nbrs[l] & ~taken
        return (free & -free).bit_length() - 1 if free else None

    def can_add(self, taken: int, l: int) -> bool:
        return bool(self.nbrs[l] & ~taken)

    def add(self, taken: int, l: int) -> int:
        free = self.nbrs[l] & ~taken
        return taken | (free & -free)


class _Counts:
    """Truncated partition: the state is the tuple of group counts, then the
    total."""

    def __init__(self, fs: TruncatedPartition) -> None:
        self.group_of = fs.group_index
        self.caps = fs.group_capacities
        self.total_cap = fs.total_capacity
        self.start = (0,) * (len(fs.groups) + 1)

    def can_add(self, counts: tuple[int, ...], e: int) -> bool:
        g = self.group_of[e]
        return counts[g] < self.caps[g] and counts[-1] < self.total_cap

    def add(self, counts: tuple[int, ...], e: int) -> tuple[int, ...]:
        g = self.group_of[e]
        return (*counts[:g], counts[g] + 1, *counts[g + 1 : -1], counts[-1] + 1)


class _Components:
    """Graphic: the state gives, per touched vertex (by the numbers of
    `edge_ends`), the smallest vertex of its component."""

    def __init__(self, g: Graphic) -> None:
        count, ends = g.edge_ends
        self.ends = ends.tolist()
        self.start = tuple(range(count))

    def can_add(self, comp: tuple[int, ...], e: int) -> bool:
        u, v = self.ends[e]
        return comp[u] != comp[v]

    def add(self, comp: tuple[int, ...], e: int) -> tuple[int, ...]:
        u, v = self.ends[e]
        keep, drop = sorted((comp[u], comp[v]))
        return tuple(keep if c == drop else c for c in comp)


def greedy_rule(fs: FeasibilityStructure):
    """The greedy rule of the structure's kind."""
    if isinstance(fs, GeneralMatching):
        return _Claims(fs.vertex_masks)
    if isinstance(fs, SimplePartition):
        return _Claims({e: 1 << g for e, g in fs.group_index.items()})
    if isinstance(fs, Transversal):
        return _LowestFree(fs)
    if isinstance(fs, TruncatedPartition):
        return _Counts(fs)
    if isinstance(fs, Graphic):
        return _Components(fs)
    raise TypeError(f"unknown structure {type(fs)!r}")


class GreedyWalk(NamedTuple):
    """What one greedy walk found (`_greedy_walk`)."""

    free: list[bool]  # per step: could the greedy still add its element there
    targets: list[int | None] | None  # transversal: per step, the node it would take
    solution: Solution


def _greedy_walk(rule, state, steps: Iterable[tuple[int, float, bool]]):
    """Walk (element, value, parsed) steps in turn. An element is free when
    `rule` can still add it to `state`; a parsed free element is added and
    its value summed in walk order. Gives the free flag of every step, for
    a transversal rule the right node each step's element would take (None
    where no node is free; the targets are None for other rules), and the
    solution, which for a transversal walk records each admitted element's
    node."""
    assigns = isinstance(rule, _LowestFree)
    chosen: set[int] = set()
    assignment: dict[int, int] = {}
    total = 0.0
    free: list[bool] = []
    targets: list[int | None] | None = [] if assigns else None
    for e, value, parsed in steps:
        free.append(rule.can_add(state, e))
        if assigns:
            targets.append(rule.target(state, e))
        if not parsed:
            continue
        # Walks never parse an element twice: the offline greedy visits each
        # once, and the pairing constraint puts one H and one T per element,
        # so one side of a path parses each element once.
        assert e not in chosen
        if free[-1]:
            if assigns:
                assignment[e] = targets[-1]
            state = rule.add(state, e)
            chosen.add(e)
            total += value
    solution = Solution(frozenset(chosen), total, assignment if assigns else None)
    return GreedyWalk(free, targets, solution)


def path_walk(
    fs: FeasibilityStructure,
    path: SamplePath,
    mask: int,
    side: str,
) -> GreedyWalk:
    """The greedy over the path, parsing only the indices whose coin shows
    `side` ("H" or "T") in configuration `mask`, in one pass. Per index j it
    gives whether e_j is free there (could still be added: this reads only
    the coins before j) and, for a transversal system, the right node e_j
    would take; it also gives the solution the side's greedy collects."""
    rule = greedy_rule(fs)
    want = side == "H"
    steps = ((e, value, h == want) for (e, value), h in zip(path.pairs, path.heads(mask)))
    return _greedy_walk(rule, rule.start, steps)


def _sorted_desc(weights: Mapping[int, TaggedValue], elements: Iterable[int]) -> list[int]:
    return sorted(elements, key=lambda e: weights[e].key, reverse=True)


def optimal_matching(g: GeneralMatching, weights: Mapping[int, TaggedValue]) -> Solution:
    """Exact maximum-weight matching by branch and bound over edges sorted in
    decreasing weight, pruning with suffix weight sums.

    Totals are compared as exact integer sums (`exact_integers`), so a float
    near tie cannot pick a lighter set, and a branch is cut only when its
    exact bound cannot beat the best total. The reported total is the float
    sum in the order the edges were picked."""
    n = len(g.edges)
    if n > MATCHING_EXACT_EDGE_CAP:
        raise CapExceededError(
            f"exact matching capped at {MATCHING_EXACT_EDGE_CAP} edges, got {n}"
        )
    order = _sorted_desc(weights, range(n))
    vals = [weights[e].value for e in order]
    exact, _ = exact_integers(vals)
    vmasks = [g.vertex_masks[e] for e in order]
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + exact[i]

    best = 0
    best_total = 0.0
    best_set: tuple[int, ...] = ()

    def rec(i: int, used: int, cur: int, total: float, picked: tuple[int, ...]) -> None:
        nonlocal best, best_total, best_set
        if cur > best:
            best, best_total, best_set = cur, total, picked
        if i == n or cur + suffix[i] <= best:
            return
        if not used & vmasks[i]:
            rec(i + 1, used | vmasks[i], cur + exact[i], total + vals[i], picked + (order[i],))
        rec(i + 1, used, cur, total, picked)

    rec(0, 0, 0, 0.0, ())
    return Solution(frozenset(best_set), best_total)


def optimal_transversal(t: Transversal, weights: Mapping[int, TaggedValue]) -> Solution:
    """Exact maximum-weight independent set of the transversal system.

    Transversal systems are matroids, so the greedy over decreasing weights,
    keeping each left node an augmenting path can still match, is optimal.
    No node can join once every right node is matched."""
    match_of_r: dict[int, int] = {}
    chosen: list[int] = []
    for l in _sorted_desc(weights, range(t.left_count)):
        if _augment(t, match_of_r, l, set()):
            chosen.append(l)
            if len(chosen) == t.right_count:
                break
    total = 0.0
    for l in sorted(chosen):  # by node id, independent of the greedy's order
        total += weights[l].value
    assignment = {l: r for r, l in match_of_r.items()}
    return Solution(frozenset(chosen), total, assignment)


def contraction_optimum(
    fs: TruncatedPartition, e: int, weights: Mapping[int, TaggedValue]
) -> float:
    """Maximum weight over sets S avoiding e with S + {e} feasible: the
    greedy walk started from the state that already holds e."""
    rule = greedy_rule(fs)
    rest = (
        (x, weights[x].value, True)
        for x in _sorted_desc(weights, range(fs.ground_size)) if x != e
    )
    return _greedy_walk(rule, rule.add(rule.start, e), rest).solution.total


def graphic_partition(
    g: Graphic,
    rng: np.random.Generator | None = None,
    sigma: Sequence[int] | None = None,
) -> tuple[SimplePartition, tuple[int, ...]]:
    """Partition the edges by a (uniformly random) order of the touched
    vertices, numbered as in `edge_ends`: each edge joins the group of its
    endpoint that comes earlier in the order.

    Every transversal of the resulting groups is a forest. Returns the
    partition (one group per touched vertex) and the order used.
    """
    count, ends = g.edge_ends
    if sigma is None:
        if rng is None:
            raise ValueError("need an rng or an explicit vertex ordering")
        sigma = tuple(int(v) for v in rng.permutation(count))
    else:
        sigma = tuple(sigma)
        if sorted(sigma) != list(range(count)):
            raise ValueError("sigma must be a permutation of the touched vertices")
    rank = [0] * count
    for pos, v in enumerate(sigma):
        rank[v] = pos
    groups: list[list[int]] = [[] for _ in range(count)]
    for e, (u, v) in enumerate(ends.tolist()):
        owner = u if rank[u] < rank[v] else v
        groups[owner].append(e)
    return SimplePartition(tuple(tuple(grp) for grp in groups)), sigma


def greedy_prophet(fs: FeasibilityStructure, weights: Mapping[int, TaggedValue]) -> Solution:
    """The greedy-like offline solution: admit elements in decreasing tagged
    order while the structure's greedy rule allows. That is the greedy
    maximal matching (at least half the optimal matching), the ordered-maximal
    matching of a transversal system, or the matroid greedy, which is exact."""
    rule = greedy_rule(fs)
    elements = fs.ground_set if isinstance(fs, SimplePartition) else range(fs.ground_size)
    steps = ((e, weights[e].value, True) for e in _sorted_desc(weights, elements))
    return _greedy_walk(rule, rule.start, steps).solution


def exact_optimum(fs: FeasibilityStructure, weights: Mapping[int, TaggedValue]) -> Solution:
    """The prophet's benchmark: exact maximum-weight feasible set."""
    if isinstance(fs, GeneralMatching):
        return optimal_matching(fs, weights)
    if isinstance(fs, Transversal):
        return optimal_transversal(fs, weights)
    return greedy_prophet(fs, weights)  # the matroid greedy is exact
