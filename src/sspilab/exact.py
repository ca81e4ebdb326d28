"""Batched evaluation over coin configurations on sample paths.

A batch is a set of columns, each one coin configuration of one drawn set of
Y/Z realizations. Tables are numpy arrays with the column axis last, indexed
(path position, column) or (element, column), and hold exact integer counts:
free flags per side, per-vertex thresholds, supporting events, the sets each
policy accepts and the prophet's optimal sets. Elements are the ids 0..n-1
of the structure. Two kinds of batch share one layout, `PathBatch` (the
element, coin and value at each path position, each element's Y index, and
`ridx` and `sidx`, the (n, columns) path indices of every element's reward
and sample), and every walk and kernel below.

Both follow one deferred-decision rule: each element has two values, and a
fair coin decides which one is the reward; the other is the sample.
`reward_index` is the one place that applies it, on an element's two path
indices and a flag that says the first is the reward; the sample's index
is the pair sum minus the reward's.

- `ConfigEnsemble` (exact mode, the lemma verifiers): the coin
  configurations lo..hi-1 of one draw, all 2**n of them by default. A
  configuration is its heads mask, whose bit e says "element e's larger
  value is the reward" (`core.SamplePath.heads`); the element at each path
  position is the same in every column. Exact `simulate` walks the 2**n
  configurations in blocks of CONFIG_BLOCK (`config_blocks`), which share
  the arrays of one sample path (`PathLayout`), and sums integer counts
  across them.
- `TrialBatch` (Monte Carlo mode, the mechanism): one column per trial,
  each with its own draws (`core.draw_trials`). The element at a path
  position differs from column to column. With coins, heads makes the
  larger value the reward; draws with no coins (the mechanism's valuations
  and pricing samples) make draw 0 the reward.

Values are compared by their index on each column's decreasing sample path:
"x beats y" in the tagged order (value, tiebreak, element) is
`idx_x < idx_y`. Threshold tables hold path indices, and the absent
threshold is the index `absent`, the count of positive values, so beating it
means having positive value.

Every path-index table (`ridx`, `sidx`, `y_idx`, pair sums, `absent` and the
thresholds, targets and prices made from them) has the batch's index type
(`index_type`): the smallest signed integer type that holds 4n. A path
index is below 2n, a pair sum (Y index + Z index) at most 4n - 3, and the
sentinels are -1 and 2n, so 4n bounds them all: int8 up to n = 31, which
covers every exact command, and int16 above. The walks keep their
bitmasks in the smallest unsigned type that holds them (`mask_array`).
Narrow tables move fewer bytes per step of a walk over 2**13 columns.

No step loops over columns in Python. The first-come greedy of each
constraint kind is one kernel that steps through elements for every column
at once: `resource_walk` for bitmask resources (matching vertices,
transversal target nodes) and `group_walk` for group capacities under a
total one (partitions, the reductions' groups, the mechanism's
contraction). The free flags walk the sample path; the replays walk the
arrival order (`_replay`). The increasing order needs no order table: it
is the sample path walked backwards, each element arriving at its reward
index. The lemma verifiers' supporting events are one race kernel,
`_heads_among_first`, whose rule (for laminar the 2r - 1 rule of
`analysis._races`) the supporting-events section of `ConfigEnsemble`
states. `policy_run` is the one batched form of each policy: its
thresholds, its replay against a named adversary and each accepted
element's critical price, on one of the reduction policies' partitions
(`reduction_partitions` builds them). The matching and transversal
policies read their live flags and target nodes off the tails-side free
flags (see the thresholds section of `PathBatch`); their threshold tables
serve only the prices. `optimum_accepts` decides E_OPT for every batch. On
partitions and graphic matroids the greedy on the rewards (the heads-side
free flags) is optimal and E_OPT needs nothing more. Else it comes from
the structure's subset tables (`Transversal.matchable`,
`GeneralMatching.maximal_matchings`), built once per structure and shared
by every batch of it: the matroid greedy for transversal systems, and the
best maximal matching for matching, where float totals within a relative
NEAR_TIE of the best, or tied at an overflowed inf, are compared exactly.
Monte Carlo batches past the tables' caps take the scalar `exact_optimum`
per trial.

Exact sums follow one rule: `core.exact_integers` turns the path values
into integers over one shared power of two, and `exact_table` holds them
in int64 while a sum of the terms it is asked for stays below
2**MASK_BITS, as python ints (object dtype) past that. E_OPT's and the
matching adversary's near ties, `ConfigEnsemble.path_total` and the
match-sufficient verifier all sum those integers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import permutations
from operator import mul
from typing import Callable, Iterator

import numpy as np

from .core import (
    CONFIG_ENUMERATION_CAP,
    EXACT_MODE_CAP,
    MASK_BITS,
    CapExceededError,
    TaggedValue,
    TrialDraws,
    build_sample_path,
    exact_integers,
)
from .feasibility import (
    GeneralMatching,
    Graphic,
    SimplePartition,
    Transversal,
    TruncatedPartition,
    exact_optimum,
    is_independent,
)

EXACT_SIGMA_VERTEX_CAP = 6  # touched vertices whose orders exact reduction-graphic enumerates
CONFIG_BLOCK = 1 << 13  # configurations per block of exact simulate


def index_type(n: int) -> np.dtype:
    """The smallest signed integer type that holds 4n: the type of the
    path-index tables of a batch of n elements (see the module docstring)."""
    return np.min_scalar_type(-4 * n - 1)


def group_ids(groups, n: int) -> np.ndarray:
    """Per element 0..n-1, the index of its group; len(groups) for elements
    in no group."""
    ids = np.full(n, len(groups), dtype=np.int64)
    for i, group in enumerate(groups):
        ids[list(group)] = i
    return ids


def _rows(row, cols: np.ndarray):
    """The index of `table[...]` that reads, per column, the entry in `row`:
    one row for all columns (a view, as in exact mode), (k, 1) rows the
    same in every column (whole rows), or rows that broadcast against the
    columns, such as one row per column (a gather)."""
    if np.ndim(row) == 0:
        return row
    if row.shape[-1] == 1:
        return row[..., 0]
    return row, cols


def _take(table: np.ndarray, row, cols: np.ndarray) -> np.ndarray:
    """Per column, the entry of `table` in `row` (see `_rows`)."""
    return table[_rows(row, cols)]


def _put(table: np.ndarray, row, cols: np.ndarray, values) -> None:
    """Set the entries `_take` reads."""
    table[_rows(row, cols)] = values


_bit_length = np.frompyfunc(lambda b: int(b).bit_length(), 1, 1)


def bit_index(bits: np.ndarray) -> np.ndarray:
    """Index of the single set bit of each entry, of an array of any shape."""
    if bits.dtype == object:
        return _bit_length(bits).astype(np.int64) - 1
    return np.bitwise_count(bits - 1)


def mask_array(masks) -> np.ndarray:
    """Bitmasks (non-negative ints) in the smallest unsigned type that holds
    them all, as python ints (object dtype) when wider than MASK_BITS."""
    top = max(masks, default=0)
    return np.array(masks, dtype=object if top >> MASK_BITS else np.min_scalar_type(top))


def vertex_mask_array(g: GeneralMatching) -> np.ndarray:
    """The edges' `vertex_masks` as the batched kernels take them, in the
    smallest unsigned type that holds them (`mask_array`). The kernels'
    vertex bitmasks are capped at MASK_BITS touched vertices."""
    if g.edge_ends[0] > MASK_BITS:
        raise CapExceededError(f"vertex bitmasks support up to {MASK_BITS} vertices")
    return mask_array(g.vertex_masks)


def node_masks(targets: np.ndarray, right_count: int) -> np.ndarray:
    """The one-bit mask of each right node in `targets`, in the type of the
    right-node masks (`mask_array`). An entry -1 (no target) gets node 1's,
    which no replay claims: an element with no target is not live."""
    one = np.ones((), dtype=mask_array([1 << max(right_count - 1, 0)]).dtype)
    return np.left_shift(one, np.abs(targets).astype(one.dtype))


def reward_index(first: np.ndarray, second: np.ndarray, first_rewarded) -> np.ndarray:
    """The deferred-decision rule, the one place a batch splits rewards from
    samples: per element, the path index of its reward, of the path indices
    `first` and `second` of its two values and flags that say the value at
    `first` is the reward (a fair coin per element). The sample's index is
    the pair sum first + second minus it (`PathBatch.sidx`)."""
    return second - first_rewarded * (second - first)


def _read_only(table: np.ndarray) -> np.ndarray:
    """`table`, made read-only: a batch's cached tables are built once and
    shared by every reader."""
    table.flags.writeable = False
    return table


class PathBatch:
    """Columns of coin configurations on decreasing sample paths, for a
    structure over the elements 0..n-1.

    `elem` gives the element at each of the 2n path positions: a (2n,)
    sequence when it is the same in every column, else (2n, columns).
    `heads` is the (2n, columns) coin table, `w_val` the path values ((2n,)
    or (2n, columns)), `absent` the index of the absent threshold (an int or
    one per column), and `y_idx` and `pair_sum` each element's Y index and
    the sum of its two path indices ((n, 1) or (n, columns)). `length`
    (2n), `num_configs` (the column count) and `n` follow from the shape of
    `heads`, and `itype`, the type of every path-index table, from n
    (`index_type`); `absent`, `y_idx` and `pair_sum` come in that type.
    Subclasses provide `ridx`, the (n, columns) path index of every
    element's reward, made by `reward_index`; `sidx`, that of its sample, is
    the pair sum minus it.

    The derived tables are read-only cached properties, built when first
    read; the free flags are built per side by `free`.
    """

    ridx: np.ndarray

    def __init__(self, structure, elem, heads, w_val, absent, y_idx, pair_sum) -> None:
        self.structure = structure
        self.elem = elem
        self.heads = heads
        self.w_val = w_val
        self.absent = absent
        self.y_idx = y_idx
        self.pair_sum = pair_sum
        self.length, self.num_configs = heads.shape
        self.n = self.length // 2
        self.itype = index_type(self.n)
        self.cols = np.arange(self.num_configs)
        self._free: dict[str, np.ndarray] = {}

    @property
    def sidx(self) -> np.ndarray:
        """(n, columns) path index of every element's sample, derived on
        each read so that only `ridx` stays alive."""
        return self.pair_sum - self.ridx

    def values_at(self, idx: np.ndarray) -> np.ndarray:
        """The path values at (k, columns) path indices."""
        if self.w_val.ndim == 1:
            return self.w_val[idx]
        return np.take_along_axis(self.w_val, idx, axis=0)

    def at_rewards(self, flags: np.ndarray) -> np.ndarray:
        """Per (element, column), the flag at the element's reward index, of
        (2n, columns) `flags` set only where `heads` is."""
        return np.take(flags, _flat(self.ridx))

    def path_sums(self, flags: np.ndarray) -> np.ndarray:
        """Per column, the float total of the path values flagged in the
        (length, columns) array `flags`."""
        return (self.w_val.reshape(self.length, -1) * flags).sum(axis=0)

    # -- free flags ---------------------------------------------------------

    def free(self, side: str) -> np.ndarray:
        """(2n, columns) boolean table of the free-index events for `side`."""
        got = self._free.get(side)
        if got is not None:
            return got
        side_flags = self.heads if side == "H" else ~self.heads
        fs = self.structure
        if isinstance(fs, GeneralMatching):
            free = resource_walk(self.elem, side_flags, vertex_mask_array(fs))
        elif isinstance(fs, Transversal):
            free = self.candidate_nodes >= 0 if side == "T" else self._transversal_walk(side_flags)
        elif isinstance(fs, TruncatedPartition):
            group = group_ids(fs.groups, self.n)
            free = group_walk(self.elem, side_flags, group, fs.group_capacities, fs.total_capacity)
        elif isinstance(fs, SimplePartition):
            # One slot per group and one for the elements in no group; a
            # total capacity of the path's length never binds.
            group, caps = group_ids(fs.groups, self.n), (1,) * (len(fs.groups) + 1)
            free = group_walk(self.elem, side_flags, group, caps, self.length)
        elif isinstance(fs, Graphic):
            free = self._free_graphic(side_flags, fs)
        else:
            raise RuntimeError(f"unknown structure {type(fs)!r}")
        self._free[side] = free
        return free

    @cached_property
    def candidate_nodes(self) -> np.ndarray:
        """Transversal only: per (index, column), the lowest right node
        adjacent to the element and not yet taken by the tails-side greedy,
        or -1 when none is free. The tails-side free flags are where it is
        not -1."""
        return _read_only(self._transversal_walk(~self.heads, with_nodes=True))

    def _transversal_walk(self, side_flags, with_nodes: bool = False) -> np.ndarray:
        """The greedy where `side_flags` is set claims each element's lowest
        free neighbour: per (index, column), the free flags, or with
        `with_nodes` the node that is free (-1 for none)."""
        fs = self.structure
        rmask = mask_array(fs.neighbor_masks)
        untaken = ~np.zeros(self.num_configs, dtype=rmask.dtype)
        kind = np.min_scalar_type(-max(fs.right_count, 1)) if with_nodes else bool
        table = np.empty((self.length, self.num_configs), dtype=kind)
        for j in range(self.length):
            avail = rmask[self.elem[j]] & untaken
            low = avail & -avail  # the lowest free node, 0 for none
            if with_nodes:
                table[j] = bit_index(low)
                table[j] |= (avail != 0).view(np.int8) - 1  # -1 where none is free
            else:
                np.not_equal(avail, 0, out=table[j])
            untaken ^= low * side_flags[j]
        return table

    def _free_graphic(self, side_flags, fs: Graphic) -> np.ndarray:
        if is_independent(fs, range(self.n)):
            # A forest: an index is free unless its element's other index
            # came first and was parsed, closing a cycle with itself.
            free = side_flags.copy()
            _put(free, self.y_idx, self.cols, True)
            return free
        # Component labels per (touched vertex, column). Parsing an edge
        # relabels v's component to u's in place: the labels are unsigned,
        # so adding cu - cv wraps each label cv to cu, and adds 0 where the
        # index is not free (cu == cv).
        count, ends = fs.edge_ends
        comp = np.tile(np.arange(count, dtype=ends.dtype)[:, None], (1, self.num_configs))
        free = np.empty((self.length, self.num_configs), dtype=bool)
        for j in range(self.length):
            u, v = ends[self.elem[j]].T
            cu, cv = _take(comp, u, self.cols), _take(comp, v, self.cols)
            free[j] = cu != cv
            comp += ((comp == cv) & side_flags[j]) * (cu - cv)
        return free

    # -- thresholds and policy preprocessing --------------------------------
    #
    # The greedy on the samples sets each threshold: a vertex's (or right
    # node's) is the index of the sample that took it, or `absent`. So a
    # reward at index x beats the thresholds of the vertices that no sample
    # before x took, the ones the tails-side walk leaves free at x, unless
    # it is worth 0 (x >= absent): then it beats only those that samples
    # after x set. The policies read their live flags and targets off the
    # walk; the threshold tables remain for the critical prices.

    @cached_property
    def matching_vertex_thresholds(self) -> np.ndarray:
        """(touched vertices, columns) thresholds (path indices) set by the
        greedy matching on samples, by the vertex numbers of `edge_ends`."""
        count, ends = self.structure.edge_ends
        picked = self.free("T") & ~self.heads
        th = np.empty((count, self.num_configs), dtype=self.itype)
        th[:] = self.absent
        for j, cols in enumerate(map(np.flatnonzero, picked)):
            ends_j = ends[self.elem[j]].T.reshape(2, -1)
            for vertex in np.broadcast_to(ends_j, (2, self.num_configs)):
                th[vertex[cols], cols] = j
        return _read_only(th)

    def matching_prices(self) -> np.ndarray:
        """(n, columns) the smaller threshold index of each edge's endpoints."""
        th = self.matching_vertex_thresholds
        u, v = self.structure.edge_ends[1].T
        return np.minimum(th[u], th[v])

    def matching_exceeds(self) -> np.ndarray:
        """(n, columns) flags: element's reward beats both endpoint
        thresholds. Its index is free on the tails-side walk, and a reward
        worth 0 needs both endpoints taken by samples after it."""
        masks = vertex_mask_array(self.structure)
        free = self.free("T")
        flags = free & self.heads
        later = np.zeros(self.num_configs, dtype=masks.dtype)  # taken after j
        # The positions that hold 0 in some column, last first.
        for j in range(self.length - 1, int(np.min(self.absent)) - 1, -1):
            mine = masks[self.elem[j]]
            flags[j] &= ((mine & ~later) == 0) | (j < self.absent)
            later |= mine * (free[j] & ~self.heads[j])
        return self.at_rewards(flags)

    @cached_property
    def transversal_r_thresholds(self) -> np.ndarray:
        """(right nodes, columns) thresholds (path indices) from the
        ordered-maximal sample matching."""
        fs = self.structure
        picked = self.free("T") & ~self.heads
        cand = self.candidate_nodes
        th = np.empty((fs.right_count, self.num_configs), dtype=self.itype)
        th[:] = self.absent
        for j, cols in enumerate(map(np.flatnonzero, picked)):
            th[cand[j, cols], cols] = j
        return _read_only(th)

    @cached_property
    def transversal_targets(self) -> np.ndarray:
        """(n, columns) int: the right node the online rule would pick for
        each arriving left node, the first neighbour whose threshold its
        reward beats (-1 when none), in the index type or the smallest
        signed type holding every right node when that is wider.

        That is the candidate node at the reward's index: the lowest
        neighbour that the tails-side walk leaves free there. A reward
        worth 0 beats it too, since a later sample takes it: the element's
        own, unless an earlier one did. A reward at its Z index, below its
        sample, claims nothing. The rule is order-independent: it reads
        only the samples and the element's own reward."""
        cand = self.candidate_nodes
        jy, cols = self.y_idx, self.cols
        node_type = np.promote_types(self.itype, cand.dtype)
        targets = _take(cand, jy, cols).astype(node_type, copy=False)
        targets |= _take(self.heads, jy, cols).view(np.int8) - 1  # -1 for a Z reward
        return _read_only(targets)

    def transversal_prices(self) -> np.ndarray:
        """(n, columns) the threshold index of each element's target node,
        or, with no target, the element's own sample index (the absent
        threshold may lie past the path). A target's threshold never lies
        below the sample index: that sample took the lowest neighbour still
        free or found all of them taken by larger samples, and the target is
        that neighbour or an earlier one."""
        targets = self.transversal_targets
        node = np.take_along_axis(self.transversal_r_thresholds, np.maximum(targets, 0), axis=0)
        return np.where(targets >= 0, node, self.sidx)

    def laminar_accepts(self) -> np.ndarray:
        """(n, columns) online accept flags for the sample-optimum policy.

        Swapping a sample for its reward improves the greedy sample optimum
        (in the strict tagged order) exactly when the reward is the larger
        value and its path index is free with respect to tails: the samples
        beating the reward are precisely the tails-coin prefix of its index.
        Feasibility against the already-collected set is order-dependent and
        checked at replay time.
        """
        jy = self.y_idx
        return _take(self.heads, jy, self.cols) & _take(self.free("T"), jy, self.cols)

    def group_prices(self, group, count: int) -> np.ndarray:
        """(n, columns) path index of the largest sample in each element's
        group. `group` gives each element's group index, fixed or one per
        column; index `count` means no group. Fixed groups take one min
        over their members' sample rows each."""
        group = np.asarray(group)
        sidx = self.sidx
        thr = np.full((count + 1, self.num_configs), self.length, dtype=sidx.dtype)
        if group.ndim == 1:
            for g in set(group.tolist()):
                thr[g] = sidx[group == g].min(axis=0)
            return thr[group]
        cols = self.cols
        for e in range(self.n):
            g = group[e]
            _put(thr, g, cols, np.minimum(_take(thr, g, cols), sidx[e]))
        return np.take_along_axis(thr, group, axis=0)


class PathLayout:
    """The arrays of one sample path that every block of its configurations
    shares, built once: the element at each path position (`elem`), the Y
    flags (`is_y`) and values (`w_val`) per position, the index of the
    absent threshold, and per element its Y index and pair sum (Y index +
    Z index) as (n, 1) path indices of the index type."""

    def __init__(self, structure, realizations) -> None:
        self.path = build_sample_path(realizations)
        n = self.path.n
        if n > CONFIG_ENUMERATION_CAP:
            raise CapExceededError(
                f"exact enumeration capped at n <= {CONFIG_ENUMERATION_CAP}, got {n}"
            )
        entries = self.path.entries
        if n != structure.ground_size:
            raise ValueError(f"need realizations of {structure.ground_size} elements, got {n}")
        self.elem = [e.element for e in entries]
        self.is_y = np.array([e.label == "Y" for e in entries])
        ys = np.flatnonzero(self.is_y)
        y_idx = np.empty((n, 1), dtype=index_type(n))
        y_idx[np.array(self.elem)[ys], 0] = ys
        self.y_idx = y_idx
        self.pair_sum = y_idx + np.array(self.path.partner, dtype=y_idx.dtype)[y_idx]
        self.w_val = np.array([e.value.value for e in entries])
        # Index of the absent threshold: every positive value precedes it.
        self.absent = y_idx.dtype.type((self.w_val > 0).sum())


class ConfigEnsemble(PathBatch):
    """The configurations lo..hi-1 (all 2**n by default) for one structure
    and fixed realizations of its elements 0..n-1; bit e of configuration c
    is element e's coin, and column c - lo holds configuration c.
    `realizations` may also be their `PathLayout`, built once for several
    blocks."""

    def __init__(self, structure, realizations, lo: int = 0, hi: int | None = None) -> None:
        layout = realizations if isinstance(realizations, PathLayout) else PathLayout(
            structure, realizations
        )
        self.path = layout.path
        self.is_y = layout.is_y
        y_idx = layout.y_idx
        n = self.path.n
        hi = 1 << n if hi is None else min(hi, 1 << n)
        masks = np.arange(lo, hi, dtype=np.min_scalar_type((1 << n) - 1))
        heads = np.empty((2 * n, len(masks)), dtype=bool)
        for e, ((y,), (pair_sum,)) in enumerate(zip(y_idx.tolist(), layout.pair_sum.tolist())):
            # Coin at the Y index is heads exactly when the element bit is
            # set; the Z index shows the other side.
            np.not_equal((masks >> e) & 1, 0, out=heads[y])
            np.logical_not(heads[y], out=heads[pair_sum - y])
        super().__init__(
            structure, layout.elem, heads, layout.w_val, layout.absent, y_idx, layout.pair_sum
        )

    @cached_property
    def ridx(self) -> np.ndarray:
        """(n, configs) path index of every element's reward, made when
        first read: the Y value is the reward where its element's bit is
        set, that is, where the coin at its index shows heads."""
        y = self.y_idx
        return reward_index(y, self.pair_sum - y, self.heads[y[:, 0]])

    def at_rewards(self, flags: np.ndarray) -> np.ndarray:
        """`PathBatch.at_rewards` from whole rows: a flag at either of an
        element's indices is at its reward index."""
        y = self.y_idx[:, 0]
        out = flags[y]
        out |= flags[self.pair_sum[:, 0] - y]
        return out

    def path_total(self, counts) -> Fraction:
        """Exact sum over path indices of value times count: one integer
        sum of the values' `exact_integers` over their shared 2**scale."""
        counts = np.asarray(counts).tolist()
        ints, scale = exact_integers([v for v, c in zip(self.w_val.tolist(), counts) if c])
        return Fraction(sum(map(mul, ints, filter(None, counts))), 1 << scale)

    # -- supporting events ---------------------------------------------------
    #
    # Each supporting event at a Y index j that is free for tails and shows
    # heads is one race (`_heads_among_first`): among the later indices that
    # compete with j for its resource and are free for tails, count the heads
    # among the first few. Transversal: the first later Y index whose
    # candidate node is j's must not show heads. Laminar: in j's group and in
    # the whole ground set, a capacity-r scope saturates with tails first iff
    # fewer than r of its first 2r - 1 competing Y indices show heads, the
    # rule of the nested-bins coin game (`analysis._races`). Matching: none of
    # the first two indices whose edge meets e_j (its own Z index included)
    # may show heads. The scalar event stops at a first one with e_j's two
    # endpoints (its own Z or a parallel edge); the race needs no such rule,
    # since that index with tails takes both endpoints in the tails walk and
    # leaves no later index that meets e_j free.

    def support_matching(self) -> np.ndarray:
        """(2n, configs) truth table of the matching supporting event."""
        free_t = self.free("T")
        ends = [set(self.structure.edges[e]) for e in self.elem]
        support = np.zeros((self.length, self.num_configs), dtype=bool)
        for j in np.flatnonzero(self.is_y).tolist():
            base = free_t[j] & self.heads[j]
            rows = [l for l in range(j + 1, self.length) if ends[j] & ends[l]]
            count, left = _heads_among_first(self.heads, base, rows, free_t.__getitem__, 2)
            # A Y-value always meets a free competitor (its own Z at the latest).
            assert not (left == 2).any(), "first conflicting index missing for a Y-value"
            support[j] = base & (count == 0)
        return support

    def support_transversal(self) -> tuple[np.ndarray, np.ndarray]:
        """Truth table of the right-node supporting event, together with the
        candidate node it concerns (r = the online target of j)."""
        free_t = self.free("T")
        cand = self.candidate_nodes
        ys = np.flatnonzero(self.is_y)
        support = np.zeros((self.length, self.num_configs), dtype=bool)
        for j in ys.tolist():
            base = free_t[j] & self.heads[j]
            rows = ys[ys > j].tolist()
            # A node index is set only where the index is free for tails.
            count, _ = _heads_among_first(self.heads, base, rows, lambda l: cand[l] == cand[j], 1)
            support[j] = base & (count == 0)
        return support, cand

    def support_laminar(self) -> np.ndarray:
        """Truth table of the two-layer saturation supporting event."""
        fs = self.structure
        free_t = self.free("T")
        ys = np.flatnonzero(self.is_y).tolist()
        group = [fs.group_index[e] for e in self.elem]
        support = np.zeros((self.length, self.num_configs), dtype=bool)
        for j in ys:
            base = free_t[j] & self.heads[j]
            later = [l for l in ys if l > j]
            mine = [l for l in later if group[l] == group[j]]
            for rows, r in ((mine, fs.group_capacities[group[j]]), (later, fs.total_capacity)):
                count, _ = _heads_among_first(self.heads, base, rows, free_t.__getitem__, 2 * r - 1)
                base &= count < r
            support[j] = base
        return support


def config_blocks(structure, realizations) -> Iterator[ConfigEnsemble]:
    """All 2**n configurations of the realizations as ensembles of
    CONFIG_BLOCK consecutive ones, in order, made one at a time as they are
    read, on one sample path (one `PathLayout`)."""
    layout = PathLayout(structure, realizations)
    for lo in range(0, 1 << layout.path.n, CONFIG_BLOCK):
        yield ConfigEnsemble(structure, layout, lo, lo + CONFIG_BLOCK)


class TrialBatch(PathBatch):
    """Monte Carlo trials, one column each, from the bulk draws of
    `core.draw_trials`: per trial, two values and two tie-break tokens per
    element, draw d of element e in row d * n + e. With coins (one per
    element, the realization layout) heads makes the larger value the
    reward and tails the smaller; draws with no coins (`coins` None, as the
    mechanism lays them out) make draw 0 the reward. `reward_index` splits
    them: `draw0_rewarded` holds its flags, (n, trials) or True.
    """

    def __init__(self, structure, draws: TrialDraws) -> None:
        values, tokens, coins = draws.values, draws.tokens, draws.coins
        n, trials = len(values) // 2, values.shape[1]
        self.values, self.tokens = values, tokens
        owner = np.tile(np.arange(n), 2)
        # Per trial, the rows in decreasing (value, tiebreak, element) order.
        desc = np.lexsort(
            (np.broadcast_to(owner, (trials, 2 * n)), tokens.T, values.T)
        ).T[::-1]
        itype = index_type(n)
        pos = np.empty(desc.shape, dtype=itype)
        np.put_along_axis(pos, desc, np.arange(2 * n, dtype=itype)[:, None], axis=0)
        first, second = pos[:n], pos[n:]  # the path indices of draws 0 and 1
        # Heads makes the larger value, the one first on the path, the reward.
        self.draw0_rewarded = True if coins is None else (first < second) == coins
        self.ridx = reward_index(first, second, self.draw0_rewarded)
        # A coin shows heads at the path positions that hold rewards.
        heads = np.zeros((2 * n, trials), dtype=bool)
        np.put_along_axis(heads, self.ridx, True, axis=0)
        super().__init__(
            structure, owner[desc], heads, np.take_along_axis(values, desc, axis=0),
            (values > 0).sum(axis=0).astype(itype), np.minimum(first, second), first + second,
        )

    def tagged(self, t: int) -> tuple[dict[int, TaggedValue], dict[int, TaggedValue]]:
        """Trial t's rewards and samples as tagged values."""
        draw1_rewarded = ~np.broadcast_to(self.draw0_rewarded, self.ridx.shape)[:, t]
        rows = np.arange(self.n)

        def pick(draw: np.ndarray) -> dict[int, TaggedValue]:
            return {
                e: TaggedValue(float(self.values[r, t]), float(self.tokens[r, t]), e)
                for e, r in enumerate((rows + self.n * draw).tolist())
            }

        return pick(draw1_rewarded), pick(~draw1_rewarded)


def element_masks(flags: np.ndarray) -> np.ndarray:
    """Per column, the int64 mask of the elements flagged in (n, columns)."""
    return (flags * (np.int64(1) << np.arange(flags.shape[0]))[:, None]).sum(axis=0)


def element_flags(masks: np.ndarray, n: int) -> np.ndarray:
    """(n, len(masks)) flags: bit e of each element mask."""
    return ((masks >> np.arange(n, dtype=masks.dtype)[:, None]) & 1) != 0


# ---------------------------------------------------------------------------
# First-come greedy kernels, one per constraint kind. Each walks a sequence of
# steps; step j presents one element, the same in every column ((steps,)
# `elem`) or one per column ((steps, columns)), and the (steps, columns)
# `want` flags say which of them claim their resource when it is free. Each
# returns the (steps, columns) free flags. The free-index tables walk the
# sample path; `_replay` walks each column's arrival order.
# ---------------------------------------------------------------------------


def _flat(rows: np.ndarray) -> np.ndarray:
    """Flat positions, in a table with the columns of the (k, columns) array
    `rows`, of the entry in row rows[k, c] of each column c."""
    pos = np.multiply(rows, rows.shape[1], dtype=np.intp)
    pos += np.arange(rows.shape[1])
    return pos


def _at_steps(table: np.ndarray, elem) -> np.ndarray:
    """Per step, the entry of `table` ((n,) or (n, columns)) at the step's
    element: (steps,) when both are fixed, else (steps, columns)."""
    elem = np.asarray(elem)
    if table.ndim == elem.ndim == 2:
        return np.take(table, _flat(elem))
    return table[elem]


def resource_walk(elem, want, masks) -> np.ndarray:
    """First-come greedy over bitmask resources (an edge claims its two
    vertices, a transversal arrival its target node): a step is free when
    none of its element's resources is taken. `masks` holds each element's
    resources, fixed ((n,)) or one per column ((n, columns)), in any
    unsigned type or as python ints (object dtype; see `mask_array`)."""
    # Fixed elements read their rows of `masks` one step at a time, as views.
    claims = (masks[e] for e in elem) if np.ndim(elem) == 1 else _at_steps(masks, elem)
    taken = np.zeros(want.shape[1], dtype=masks.dtype)
    free = np.empty(want.shape, dtype=bool)
    for mine, wants, ok in zip(claims, want, free):
        np.equal(taken & mine, 0, out=ok)
        taken |= mine * (wants & ok)
    return free


def group_walk(elem, want, group, caps, total_cap: int) -> np.ndarray:
    """First-come greedy under per-group capacities and a total one: a step
    is free while its element's group has taken fewer than its capacity and
    all groups together fewer than `total_cap`. `group` gives each
    element's group index, fixed ((n,)) or one per column ((n, columns));
    `caps` holds one capacity per index that occurs."""
    steps, configs = want.shape
    groups = _at_steps(np.asarray(group), elem)
    caps = np.asarray(caps)
    # The room left in each (group, column) counts down from its capacity. A
    # step reads one row of it when its group is fixed (a view, counted down
    # in place), else one entry per column at flat positions (a gather,
    # written back), made one step at a time from the group ids in their
    # own type; each column's groups lie side by side, so that a step's
    # positions ascend. A total the steps cannot reach is not tracked.
    tracked = total_cap < steps
    room_type = np.min_scalar_type(max(int(caps.max(initial=0)), total_cap * tracked))
    per_column = groups.ndim == 2
    if per_column:
        room = np.tile(caps.astype(room_type), configs)
        offsets = np.arange(0, configs * len(caps), len(caps))
    else:
        room = np.repeat(caps.astype(room_type)[:, None], configs, axis=1)
    total = np.full(configs, total_cap, dtype=room_type) if tracked else None
    free = np.empty(want.shape, dtype=bool)
    for g, wants, ok in zip(groups, want, free):
        if per_column:
            g = g + offsets
        left = room[g]
        np.not_equal(left, 0, out=ok)
        if total is not None:
            np.logical_and(ok, total, out=ok)
        took = wants & ok
        left -= took
        if per_column:
            room[g] = left
        if total is not None:
            total -= took
    return free


def _heads_among_first(heads, base, rows, competes, first: int):
    """The race of a supporting event: per column that `base` sets, the
    number of heads among the first `first` of the path indices `rows`
    (ascending) where the row `competes(l)` is set. Returns the counts and
    the competitor places still open (`first` where none came, 0 off
    `base`)."""
    left = base * np.min_scalar_type(first).type(first)
    count = np.zeros_like(left)
    for l in rows:
        if not left.any():
            break
        hit = np.logical_and(competes(l), left)
        count += hit & heads[l]
        left -= hit
    return count, left


def _replay(walk, batch: PathBatch, live: np.ndarray, adversary, *rule) -> np.ndarray:
    """The (n, columns) accepted flags of the kernel `walk` (with the
    arguments `rule`) against `adversary` (see `policy_run`): a live
    arrival is accepted when the walk finds it free. Increasing rewards are
    the sample path walked backwards, each element arriving at its reward
    index, where `heads` is set."""
    if isinstance(adversary, np.ndarray):
        want = np.take(live, _flat(adversary))
        took = want & walk(adversary, want, *rule)
        accepted = np.empty_like(live)
        np.put(accepted, _flat(adversary), took)
        return accepted
    if adversary == "fixed":
        return live & walk(np.arange(len(live)), live, *rule)
    if adversary not in ("increasing", "exhaustive-min"):
        raise RuntimeError(f"unknown adversary {adversary!r}")
    elem = batch.elem[::-1]
    want = _at_steps(live, elem)
    want &= batch.heads[::-1]
    took = np.logical_and(walk(elem, want, *rule), want, out=want)
    return batch.at_rewards(took[::-1])


# ---------------------------------------------------------------------------
# Best sets per column: E_OPT and the matching adversary's minimum.
# ---------------------------------------------------------------------------

NEAR_TIE = 1e-9  # relative gap under which float totals are compared exactly
CHUNK_CELLS = 1 << 20  # (column, candidate set) cells per float block


def exact_table(values: np.ndarray, terms: int) -> tuple[np.ndarray, int]:
    """Non-negative float `values` times 2**scale as exact integers
    (`core.exact_integers`), and `scale`: int64 where a sum of `terms` of
    them stays below 2**MASK_BITS, python ints (object dtype) otherwise."""
    ints, scale = exact_integers(values.ravel().tolist())
    fits = terms * max(ints, default=0) < 1 << MASK_BITS
    return np.array(ints, dtype=np.int64 if fits else object).reshape(values.shape), scale


def _exact_winners(
    batch: PathBatch, cols: np.ndarray, member: np.ndarray, near: np.ndarray, minimize: bool,
) -> np.ndarray:
    """Narrow each row of `near`, one per batch column in `cols`, to the
    candidates with the largest (or smallest) exact reward total. Each
    total sums the candidate's rewards, the path values' `exact_table`
    integers gathered through `ridx`; only the candidates near in some
    row are scored."""
    some = np.flatnonzero(near.any(axis=0))
    w_val = batch.w_val if batch.w_val.ndim == 1 else batch.w_val[:, cols]
    ints, _ = exact_table(w_val, batch.n)
    ridx = batch.ridx[:, cols]
    totals = np.empty((len(cols), len(some)), dtype=ints.dtype)
    for k, members in enumerate(member[:, some].T != 0):
        at = ridx[members]
        x = ints[at] if ints.ndim == 1 else np.take_along_axis(ints, at, axis=0)
        totals[:, k] = x.sum(axis=0)
    if minimize:
        totals = totals.max() - totals  # the least total is now the largest
    block = near[:, some]
    top = np.where(block, totals, -1).max(axis=1, keepdims=True)
    keep = np.zeros_like(near)
    keep[:, some] = block & (totals == top)
    return keep


def maximal_within(sets: np.ndarray, touched: np.ndarray, within: np.ndarray) -> np.ndarray:
    """(masks, sets) flags: the set lies inside the element mask `within`
    of the row, and its `touched` mask covers it. For matchings S that says
    S is a maximal matching of the edges in the mask."""
    w = within[:, None]
    return ((sets & ~w) == 0) & ((w & ~touched) == 0)


def _best_sets(
    batch: PathBatch, sets: np.ndarray, minimize: bool = False,
    within: np.ndarray | None = None, touched: np.ndarray | None = None,
) -> np.ndarray:
    """Per column, the first element mask in `sets` with the largest (or
    smallest) exact reward total. With `within` (one element mask per
    column) only the sets inside it whose `touched` mask covers it take
    part: the columns go in the order of their masks, so a block of them
    holds few distinct masks, and each block scores only the sets one of
    its masks allows. Float totals pick the winner; where several lie
    within a relative NEAR_TIE of the best, or tie at an overflowed inf,
    their exact totals decide."""
    n, configs = batch.ridx.shape
    member = element_flags(sets, n).astype(float)  # (n, sets)
    xval = batch.values_at(batch.ridx)
    sign = -1.0 if minimize else 1.0
    chosen = np.empty(configs, dtype=np.int64)
    order = np.arange(configs) if within is None else np.argsort(within, kind="stable")
    step = max(1, CHUNK_CELLS // len(sets))
    for lo in range(0, configs, step):
        cols = order[lo : lo + step]
        x, scored, flags = xval[:, cols], sets, member
        if within is not None:
            masks, row = np.unique(within[cols], return_inverse=True)
            allowed = maximal_within(sets, touched, masks)  # (masks, sets)
            some = allowed.any(axis=0)
            scored, flags, allowed = sets[some], member[:, some], allowed[:, some][row]
        with np.errstate(over="ignore", invalid="ignore"):  # totals past the range are inf
            score = sign * (x.T @ flags)
            if within is not None:
                score[~allowed] = -np.inf
            best = score.max(axis=1, keepdims=True)
            limit = best - NEAR_TIE * np.abs(best)
        # Where the best total overflowed, every set that scores it ties.
        np.copyto(limit, best, where=np.abs(best) == np.inf)
        near = score >= limit
        if within is not None:
            near &= allowed
        tied = np.flatnonzero(near.sum(axis=1) > 1)
        if len(tied):
            near[tied] = _exact_winners(batch, cols[tied], flags, near[tied], minimize)
        chosen[cols] = scored[near.argmax(axis=1)]
    return chosen


def optimum_accepts(batch: PathBatch) -> np.ndarray | None:
    """(n, columns) flags of a maximum-weight feasible set per column, or
    None where the greedy on the rewards (`free("H")`) is optimal, so that
    E_OPT = E_OPT': on partitions and graphic matroids.

    Transversal systems are matroids too, but their heads-side walk follows
    the ordered rule, not the matroid greedy. That greedy over each column's
    rewards in path-rank order, keeping an element while the set stays
    matchable, is optimal and integer-exact. It walks the sample path, where
    the rewards are the entries with `heads` set, largest first; the chosen
    sets are masks in the smallest unsigned type that holds 2**n - 1. For
    matching, rewards are non-negative, so some maximal matching is optimal.
    Both read the structure's subset tables, whose caps apply to every
    exact batch. Monte Carlo trials past them (more than EXACT_MODE_CAP
    elements, or right nodes past a bitmask) take the scalar
    `exact_optimum` on each trial's rewards."""
    fs = batch.structure
    n = batch.n
    if not isinstance(fs, (GeneralMatching, Transversal)):
        return None
    wide = isinstance(fs, Transversal) and fs.right_count > MASK_BITS
    if isinstance(batch, TrialBatch) and (n > EXACT_MODE_CAP or wide):
        flags = np.zeros((n, batch.num_configs), dtype=bool)
        for t in range(batch.num_configs):
            rewards, _ = batch.tagged(t)
            flags[sorted(exact_optimum(fs, rewards).chosen), t] = True
        return flags
    if isinstance(fs, Transversal):
        matchable = fs.matchable
        bits = (1 << np.arange(n)).astype(np.min_scalar_type((1 << n) - 1))
        chosen = np.zeros(batch.num_configs, dtype=bits.dtype)
        for bit, reward in zip(_at_steps(bits, batch.elem), batch.heads):
            keep = matchable.take(chosen | bit)
            keep &= reward
            chosen |= bit * keep
        return element_flags(chosen, n)
    return element_flags(_best_sets(batch, fs.maximal_matchings), n)


def min_maximal_accepts(batch: PathBatch, live: np.ndarray) -> np.ndarray:
    """Batched `policies.min_maximal_matching`: per column, the (n, columns) accepted
    flags of a minimum-weight maximal matching of the live edges, that is,
    of a matching inside the live set that touches every live edge."""
    sets, touched = batch.structure.matchings
    chosen = _best_sets(
        batch, sets, minimize=True, within=element_masks(live), touched=touched,
    )
    return element_flags(chosen, batch.n)


# ---------------------------------------------------------------------------
# The one batched form of each policy: thresholds set offline from the
# samples, then a first-come greedy replayed online.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyRun:
    """The (n, columns) accepted flags, and `price`, which computes the
    (n, columns) critical prices of the accepted elements: the value of the
    threshold each one beat, or for laminar a contraction
    (`_laminar_critical`)."""

    accepted: np.ndarray
    price: Callable[[], np.ndarray]


def policy_run(batch: PathBatch, policy: str, adversary, grouping=None) -> PolicyRun:
    """The policy on every column of the batch against `adversary`. The
    reduction policies take one of their partitions as `grouping`, a
    (group, count) pair from `reduction_partitions`: `group` gives each
    element's group index, fixed or one per column, and index `count` means
    no group.

    `adversary` is "fixed" (arrivals by element id), "increasing"
    (increasing rewards, read off the sample path), "exhaustive-min" (the
    minimum over all arrival orders) or the random adversary's (n, columns)
    orders. For matching the exhaustive minimum is a minimum-weight maximal
    matching of the live edges; for every other policy it is the increasing
    order (see policies.adversarial_order). Any other name is a fault of the
    program. Prices are computed when read: a run holds no (n, columns)
    table beyond its flags."""
    fs = batch.structure
    if policy == "matching":
        searching = isinstance(adversary, str) and adversary == "exhaustive-min"
        if searching and batch.n > EXACT_MODE_CAP:
            raise CapExceededError(
                f"matching exhaustive-min search capped at n <= {EXACT_MODE_CAP}"
            )
        live = batch.matching_exceeds()
        if searching:
            accepted = min_maximal_accepts(batch, live)
        else:
            accepted = _replay(resource_walk, batch, live, adversary, vertex_mask_array(fs))
        return PolicyRun(accepted, lambda: batch.values_at(batch.matching_prices()))
    if policy == "transversal":
        # Each live element claims its target node; the others never claim.
        targets = batch.transversal_targets
        masks = node_masks(targets, fs.right_count)
        accepted = _replay(resource_walk, batch, targets >= 0, adversary, masks)
        return PolicyRun(accepted, lambda: batch.values_at(batch.transversal_prices()))
    if policy == "laminar":
        accepted = _replay(
            group_walk, batch, batch.laminar_accepts(), adversary,
            group_ids(fs.groups, batch.n), fs.group_capacities, fs.total_capacity,
        )
        return PolicyRun(accepted, lambda: _laminar_critical(batch, accepted))
    if policy == "rank1":
        # One group of capacity 1: the groups of a truncated partition
        # cover the ground set with capacities >= 1, so under a total
        # capacity of 1 they accept the same first live arrival.
        grouping = (np.zeros(batch.n, dtype=np.int64), 1)
    elif policy not in ("reduction-graphic", "reduction-custom"):
        raise RuntimeError(f"policy {policy!r} has no batched evaluator")
    # Each group takes its first arrival beating the group's largest sample
    # in the tagged order, so a reward worth 0 can beat samples worth 0 by
    # its tiebreak, as in the traced policies. Elements in no group stay
    # out. Every group has capacity 1, so no total binds.
    group, count = grouping
    live = batch.ridx < batch.group_prices(group, count)
    accepted = _replay(group_walk, batch, live, adversary, group, (1,) * count + (0,), batch.length)
    return PolicyRun(accepted, lambda: batch.values_at(batch.group_prices(group, count)))


def reduction_partitions(instance, policy: str, ranks: np.ndarray | None = None) -> list:
    """The partitions a policy's runs take, as (grouping, weight) pairs for
    `policy_run`.

    - reduction-custom: the instance's partition;
    - reduction-graphic with `ranks`, each touched vertex's rank (by the
      numbers of `edge_ends`) in its column's vertex order, (touched
      vertices, columns): each column's vertex-order partition
      (`graphic_partition`'s rule: an edge joins the group of its endpoint
      ranked first), one group per column;
    - reduction-graphic without: each distinct vertex-order partition,
      weighted by the number of the orders of the touched vertices that
      give it (capped at EXACT_SIGMA_VERTEX_CAP touched vertices). An
      isolated vertex owns no edge, so the orders of all vertices give each
      partition the same share. Every group has capacity 1, so a
      partition's runs do not depend on its group labels: the groups are
      relabelled in order of first occurrence over the elements before
      equal partitions merge;
    - every other policy: one run with no grouping."""
    fs = instance.structure
    if policy == "reduction-custom":
        groups = instance.partition.groups
        return [((group_ids(groups, instance.ground_size), len(groups)), 1)]
    if policy != "reduction-graphic":
        return [(None, 1)]
    count, ends = fs.edge_ends
    u, v = ends.T
    if ranks is not None:
        return [((np.where(ranks[u] < ranks[v], u[:, None], v[:, None]), count), 1)]
    if count > EXACT_SIGMA_VERTEX_CAP:
        raise CapExceededError(
            f"exact vertex-order enumeration capped at {EXACT_SIGMA_VERTEX_CAP} touched vertices"
        )
    ranks = np.argsort(np.array(list(permutations(range(count)))), axis=1).T
    groups = np.where(ranks[u] < ranks[v], u[:, None], v[:, None])  # (n, orders)
    # Per order, each group's label is its rank among the first occurrences.
    first = np.argmax(groups[:, None, :] == groups[None, :, :], axis=0)  # (n, orders)
    labels = np.cumsum(first == np.arange(len(groups))[:, None], axis=0) - 1
    relabelled = np.take_along_axis(labels, first, axis=0)
    weights = Counter(map(tuple, relabelled.T.tolist()))
    return [((np.array(group), count), weight) for group, weight in weights.items()]


def _laminar_critical(batch: PathBatch, accepted: np.ndarray) -> np.ndarray:
    """v0 - contraction_optimum for each accepted element: the greedy
    optimum of the samples minus the best sample set that leaves one slot of
    the element's group and of the total capacity free, that is, the same
    `group_walk` with both capacities lowered by one and the element left
    out. cumsum adds the values in path order, one at a time, as
    `greedy_prophet` and `contraction_optimum` do."""
    fs = batch.structure
    group_of = group_ids(fs.groups, batch.n)
    samples = ~batch.heads
    # Per (index, column) views; exact mode's path is the same in every column.
    elem = np.broadcast_to(np.reshape(batch.elem, (batch.length, -1)), samples.shape)
    w_val = np.broadcast_to(batch.w_val.reshape(batch.length, -1), samples.shape)
    v0 = np.cumsum(w_val * (samples & batch.free("T")), axis=0)[-1]
    critical = np.zeros(accepted.shape)
    for e in np.flatnonzero(accepted.any(axis=1)):
        cols = np.flatnonzero(accepted[e])
        steps = elem[:, cols]
        want = samples[:, cols] & (steps != e)
        caps = np.array(fs.group_capacities)
        caps[group_of[e]] -= 1
        took = want & group_walk(steps, want, group_of, caps, fs.total_capacity - 1)
        value = np.cumsum(w_val[:, cols] * took, axis=0)[-1]
        critical[e, cols] = v0[cols] - value
    return critical
