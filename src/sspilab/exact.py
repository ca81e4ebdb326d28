"""Batched evaluation over coin configurations on sample paths.

A batch is a set of columns, each one coin configuration of one drawn set of
Y/Z realizations. Tables are numpy arrays with the column axis last, indexed
(path position, column) or (element, column), and hold exact integer counts:
free flags per side, per-vertex thresholds, supporting events, the sets each
policy accepts and the prophet's optimal sets. Elements are the ids 0..n-1
of the structure. Two kinds of batch share one layout, `PathBatch` (the
element, coin and value at each path position, each element's Y index, and
`ridx` and `sidx`, the (n, columns) path indices of every element's reward
and sample), and every walk and kernel below:

- `ConfigEnsemble` (exact mode, the lemma verifiers): the coin
  configurations lo..hi-1 of one draw, all 2**n of them by default.
  Configuration c is identified with the bitmask whose bit e says "element
  e's larger value is the reward"; the element at each path position is the
  same in every column. Exact `simulate` walks the 2**n configurations in
  blocks of CONFIG_BLOCK (`config_blocks`), which share the arrays of one
  sample path (`PathLayout`) and one set of subset tables, and sums integer
  counts across them.
- `TrialBatch` (Monte Carlo mode): one column per trial, each with its own
  draw and coins (`core.draw_trials`). The element at a path position
  differs from column to column.

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
bitmasks in the smallest unsigned type that holds them. Narrow tables move
fewer bytes per step of a walk over 2**13 columns.

No step loops over columns in Python. The first-come greedy of each
constraint kind is one kernel that steps through elements for every column
at once: `resource_walk` for bitmask resources (matching vertices) and
`group_walk` for group capacities under a total one (partitions, transversal
target nodes, the reductions' groups, the mechanism's contraction). The
free flags walk the sample path; the replays walk the arrival order
(`_replay`). The increasing order needs no order table: it is the sample
path walked backwards, each element arriving at its reward index.
`policy_run` is the one batched form of each policy: its thresholds, its
replay against a named adversary and each accepted element's critical
price, on one of the reduction policies' partitions (`reduction_partitions`
builds them). `optimum_accepts` decides E_OPT for every batch. On partitions
and graphic matroids the greedy on the rewards (the heads-side free flags)
is optimal and E_OPT needs nothing more. Else it comes from subset tables
(`SubsetTables`), whose entry S says whether the element set S is feasible:
the matroid greedy for transversal systems, and the best maximal matching
for matching, where float totals within a relative NEAR_TIE of the best are
compared exactly. Monte Carlo batches past the tables' caps take the scalar
`exact_optimum` per trial.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, wraps
from fractions import Fraction
from itertools import permutations
from typing import Callable, Iterator

import numpy as np

from .core import (
    CONFIG_ENUMERATION_CAP,
    EXACT_MODE_CAP,
    CapExceededError,
    SamplePath,
    TaggedValue,
    TrialDraws,
    build_sample_path,
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

_DIGIT_BITS = 31
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1
EXACT_SIGMA_VERTEX_CAP = 6  # vertices whose orders exact reduction-graphic enumerates
CONFIG_BLOCK = 1 << 13  # configurations per block of exact simulate
MASK_BITS = 62  # resources an int64 bitmask holds; wider masks are python ints


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


def bit_index(bits: np.ndarray) -> np.ndarray:
    """Index of the single set bit of each entry."""
    if bits.dtype == object:
        return np.array([int(b).bit_length() - 1 for b in bits], dtype=np.int64)
    return np.bitwise_count(bits - 1)


def _kept(method):
    """A table method without arguments whose result the batch keeps, read-
    only, so that it is built once however often it is read."""

    @wraps(method)
    def kept(self) -> np.ndarray:
        got = self._built.get(method.__name__)
        if got is None:
            got = self._built[method.__name__] = method(self)
            got.flags.writeable = False
        return got

    return kept


class PathBatch:
    """Columns of coin configurations on decreasing sample paths, for a
    structure over the elements 0..n-1.

    `elem` gives the element at each of the 2n path positions: a (2n,)
    sequence when it is the same in every column, else (2n, columns).
    `heads` is the (2n, columns) coin table, `w_val` the path values ((2n,)
    or (2n, columns)), `absent` the index of the absent threshold (an int or
    one per column) and `y_idx` each element's Y index ((n, 1) or (n,
    columns)). `length` (2n), `num_configs` (the column count) and `n`
    follow from the shape of `heads`, and `itype`, the type of every
    path-index table, from n (`index_type`); `absent` and `y_idx` come in
    that type. `tables` holds the structure's subset tables (a new
    `SubsetTables` unless batches share one). Subclasses provide `ridx` and
    `sidx`, the (n, columns) path indices of every element's reward and
    sample.
    """

    ridx: np.ndarray
    sidx: np.ndarray

    def __init__(self, structure, elem, heads, w_val, absent, y_idx, tables=None) -> None:
        self.structure = structure
        self.elem = elem
        self.heads = heads
        self.w_val = w_val
        self.absent = absent
        self.y_idx = y_idx
        self.tables = tables or SubsetTables(structure)
        self.length, self.num_configs = heads.shape
        self.n = self.length // 2
        self.itype = index_type(self.n)
        self.cols = np.arange(self.num_configs)
        self._free: dict[str, np.ndarray] = {}
        self._candidate: np.ndarray | None = None
        self._built: dict[str, np.ndarray] = {}  # the `_kept` tables

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
            free = resource_walk(self.elem, side_flags, vertex_masks(fs))
        elif isinstance(fs, Transversal):
            free = self._free_transversal(side_flags, fs, side == "T")
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

    def candidate_nodes(self) -> np.ndarray:
        """Transversal only: per (index, column), the lowest right node
        adjacent to the element and not yet taken by the tails-side greedy,
        or -1 when none is free."""
        self.free("T")
        return self._candidate

    def _free_transversal(self, side_flags, fs: Transversal, with_nodes: bool) -> np.ndarray:
        rmask = neighbor_masks(fs)
        # Right-node masks in the smallest unsigned type, as python ints
        # when wider than MASK_BITS.
        wide = fs.right_count > MASK_BITS
        rmask = np.array(rmask, dtype=object if wide else np.min_scalar_type(max(rmask, default=0)))
        untaken = ~np.zeros(self.num_configs, dtype=rmask.dtype)
        free = np.empty((self.length, self.num_configs), dtype=bool)
        if with_nodes:
            nodes = np.empty(free.shape, dtype=np.min_scalar_type(-max(fs.right_count, 1)))
        for j in range(self.length):
            avail = rmask[self.elem[j]] & untaken
            low = avail & -avail
            np.not_equal(avail, 0, out=free[j])
            if with_nodes:
                nodes[j] = bit_index(low)
            untaken ^= low * (side_flags[j] & free[j])
        if with_nodes:
            np.copyto(nodes, -1, where=~free)
            self._candidate = nodes
        return free

    def _free_graphic(self, side_flags, fs: Graphic) -> np.ndarray:
        if is_independent(fs, range(self.n)):
            # A forest: an index is free unless its element's other index
            # came first and was parsed, closing a cycle with itself.
            free = side_flags.copy()
            _put(free, self.y_idx, self.cols, True)
            return free
        # Component labels per (column, vertex); joining relabels one side.
        ends = np.array(fs.edges, dtype=np.int64).reshape(-1, 2)
        cols = self.cols
        comp = np.tile(np.arange(fs.vertex_count, dtype=np.int16), (self.num_configs, 1))
        free = np.empty((self.length, self.num_configs), dtype=bool)
        for j in range(self.length):
            u, v = ends[self.elem[j]].T
            cu, cv = _take(comp.T, u, cols), _take(comp.T, v, cols)
            free[j] = cu != cv
            parse = side_flags[j] & free[j]
            if parse.any():
                rows = np.nonzero(parse)[0]
                sub = comp[rows]
                old = cv[rows]
                new = cu[rows]
                sub[sub == old[:, None]] = np.broadcast_to(
                    new[:, None], sub.shape
                )[sub == old[:, None]]
                comp[rows] = sub
        return free

    # -- thresholds and policy preprocessing --------------------------------

    @_kept
    def matching_vertex_thresholds(self) -> np.ndarray:
        """(vertices, columns) thresholds (path indices) set by the greedy
        matching on samples."""
        fs = self.structure
        ends = np.array(fs.edges, dtype=np.int64).reshape(-1, 2)
        picked = self.free("T") & ~self.heads
        th = np.empty((fs.vertex_count, self.num_configs), dtype=self.itype)
        th[:] = self.absent
        for j, cols in enumerate(map(np.flatnonzero, picked)):
            ends_j = ends[self.elem[j]].T.reshape(2, -1)
            for vertex in np.broadcast_to(ends_j, (2, self.num_configs)):
                th[vertex[cols], cols] = j
        return th

    def matching_prices(self) -> np.ndarray:
        """(n, columns) the smaller threshold index of each edge's endpoints."""
        th = self.matching_vertex_thresholds()
        u, v = np.array(self.structure.edges, dtype=np.int64).reshape(-1, 2).T
        return np.minimum(th[u], th[v])

    def matching_exceeds(self) -> np.ndarray:
        """(n, columns) flags: element's reward beats both endpoint thresholds."""
        return self.ridx < self.matching_prices()

    @_kept
    def transversal_r_thresholds(self) -> np.ndarray:
        """(right nodes, columns) thresholds (path indices) from the
        ordered-maximal sample matching."""
        fs = self.structure
        picked = self.free("T") & ~self.heads
        cand = self.candidate_nodes()
        th = np.empty((fs.right_count, self.num_configs), dtype=self.itype)
        th[:] = self.absent
        for j, cols in enumerate(map(np.flatnonzero, picked)):
            th[cand[j, cols], cols] = j
        return th

    @_kept
    def transversal_targets(self) -> np.ndarray:
        """(n, columns) int: the right node the online rule would pick for
        each arriving left node (-1 when the threshold scan finds none), in
        the index type or the smallest signed type holding every right node
        when that is wider.

        The scan is order-independent: it uses only offline thresholds and
        the element's own sample."""
        fs = self.structure
        th = self.transversal_r_thresholds()
        ridx = self.ridx
        node_type = np.promote_types(self.itype, np.min_scalar_type(-fs.right_count - 1))
        out = np.full((self.n, self.num_configs), -1, dtype=node_type)
        for l in range(self.n):
            # The last write is the first neighbour whose threshold it beats.
            for r in reversed(fs.sorted_neighbors(l)):
                np.copyto(out[l], r, where=ridx[l] < th[r])
        # A reward at its Z index, below its sample, claims nothing.
        np.copyto(out, -1, where=ridx > self.y_idx)
        return out

    def transversal_prices(self) -> np.ndarray:
        """(n, columns) the threshold index of each element's target node,
        or, with no target, the element's own sample index (the absent
        threshold may lie past the path). A target's threshold never lies
        below the sample index: that sample took the lowest neighbour still
        free or found all of them taken by larger samples, and the target is
        that neighbour or an earlier one."""
        targets = self.transversal_targets()
        node = np.take_along_axis(self.transversal_r_thresholds(), np.maximum(targets, 0), axis=0)
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
    Z index) as (n, 1) path indices of the index type. `realizations` may
    also be their sample path."""

    def __init__(self, structure, realizations) -> None:
        is_path = isinstance(realizations, SamplePath)
        self.path = realizations if is_path else build_sample_path(realizations)
        n = self.path.n
        if n > CONFIG_ENUMERATION_CAP:
            raise CapExceededError(
                f"exact enumeration capped at n <= {CONFIG_ENUMERATION_CAP}, got {n}"
            )
        entries = self.path.entries
        ids = sorted(e.element for e in entries if e.label == "Y")
        if ids != list(range(structure.ground_size)):
            raise ValueError(
                f"realizations must be of the elements 0..{structure.ground_size - 1}, "
                f"got ids {ids}"
            )
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
    `realizations` may also be their sample path, or its `PathLayout`,
    built once for several blocks; `tables` are subset tables the blocks
    share."""

    def __init__(self, structure, realizations, lo: int = 0, hi: int | None = None,
                 tables: SubsetTables | None = None) -> None:
        layout = realizations if isinstance(realizations, PathLayout) else PathLayout(
            structure, realizations
        )
        self.path = layout.path
        self.is_y = layout.is_y
        self._pair_sum = layout.pair_sum
        y_idx = layout.y_idx
        n = self.path.n
        hi = 1 << n if hi is None else min(hi, 1 << n)
        masks = np.arange(lo, hi, dtype=np.min_scalar_type((1 << n) - 1))
        heads = np.empty((2 * n, len(masks)), dtype=bool)
        for e, ((y,), (pair_sum,)) in enumerate(zip(y_idx.tolist(), self._pair_sum.tolist())):
            # Coin at the Y index is heads exactly when the element bit is
            # set; the Z index shows the other side.
            np.not_equal((masks >> e) & 1, 0, out=heads[y])
            np.logical_not(heads[y], out=heads[pair_sum - y])
        super().__init__(structure, layout.elem, heads, layout.w_val, layout.absent, y_idx, tables)

    @cached_property
    def ridx(self) -> np.ndarray:
        """(n, configs) path index of every element's reward, made when
        first read."""
        y = self.y_idx
        z = self._pair_sum - y
        # heads at the Y index (0 or 1) moves the reward from z to y
        return z - self.heads[y[:, 0]].view(np.int8) * (z - y)

    @property
    def sidx(self) -> np.ndarray:
        """(n, configs) path index of every element's sample, derived on
        each read so that only `ridx` stays alive."""
        return self._pair_sum - self.ridx

    def at_rewards(self, flags: np.ndarray) -> np.ndarray:
        """`PathBatch.at_rewards` from whole rows: a flag at either of an
        element's indices is at its reward index."""
        y = self.y_idx[:, 0]
        return flags[y] | flags[self._pair_sum[:, 0] - y]

    def path_total(self, counts) -> Fraction:
        """Exact sum over path indices of value times count. Each value is
        a ratio p / q with q a power of two, so the sum is one integer over
        the largest q, reduced once."""
        num, den = 0, 1
        for value, cnt in zip(self.w_val.tolist(), np.asarray(counts).tolist()):
            if cnt:
                p, q = value.as_integer_ratio()
                if q > den:
                    num *= q // den
                    den = q
                num += p * (den // q) * cnt
        return Fraction(num, den)

    # -- supporting events ---------------------------------------------------

    def support_matching(self) -> np.ndarray:
        """(2n, configs) truth table of the matching supporting event."""
        fs = self.structure
        free_t = self.free("T")
        tails = ~self.heads
        edges = fs.edges
        support = np.zeros((self.length, self.num_configs), dtype=bool)
        endpoints = [set(edges[self.elem[j]]) for j in range(self.length)]
        for j in range(self.length):
            if not self.is_y[j]:
                continue
            base = free_t[j] & self.heads[j]
            if not base.any():
                continue
            ej = self.elem[j]
            ej_ends = endpoints[j]
            looking1 = base.copy()
            looking2 = np.zeros(self.num_configs, dtype=bool)
            satisfied = np.zeros(self.num_configs, dtype=bool)
            for l in range(j + 1, self.length):
                el = self.elem[l]
                shares = el == ej or bool(ej_ends & endpoints[l])
                if not shares:
                    continue
                ft = free_t[l]
                # Second conflicting index first: it must postdate the first.
                hit2 = looking2 & ft
                satisfied |= hit2 & tails[l]
                looking2 &= ~hit2
                hit1 = looking1 & ft
                ok = hit1 & tails[l]
                if el == ej or endpoints[l] == ej_ends:
                    satisfied |= ok
                else:
                    looking2 |= ok
                looking1 &= ~hit1
            # A Y-value always meets a conflicting free index (its own other
            # value at the latest), so nothing may still be waiting.
            assert not looking1.any(), "first conflicting index missing for a Y-value"
            satisfied |= looking2  # no second conflicting index exists
            support[j] = satisfied
        return support

    def support_transversal(self) -> tuple[np.ndarray, np.ndarray]:
        """Truth table of the right-node supporting event, together with the
        candidate node it concerns (r = the online target of j)."""
        free_t = self.free("T")
        cand = self.candidate_nodes()
        tails = ~self.heads
        support = np.zeros((self.length, self.num_configs), dtype=bool)
        for j in range(self.length):
            if not self.is_y[j]:
                continue
            base = free_t[j] & self.heads[j]
            if not base.any():
                continue
            r = cand[j]
            active = base.copy()
            satisfied = np.zeros(self.num_configs, dtype=bool)
            for l in range(j + 1, self.length):
                if not self.is_y[l]:
                    continue
                hit = active & free_t[l] & (cand[l] == r)
                satisfied |= hit & tails[l]
                active &= ~hit
                if not active.any():
                    break
            satisfied |= active  # no later index competes for r
            support[j] = satisfied
        return support, cand

    def support_laminar(self) -> np.ndarray:
        """Truth table of the two-layer saturation supporting event."""
        fs = self.structure
        free_t = self.free("T")
        group_of = fs.group_index
        support = np.zeros((self.length, self.num_configs), dtype=bool)
        for j in range(self.length):
            if not self.is_y[j]:
                continue
            base = free_t[j] & self.heads[j]
            if not base.any():
                continue
            gj = group_of[self.elem[j]]
            ok = base.copy()
            for scope, r_cap in (("group", fs.group_capacities[gj]), ("all", fs.total_capacity)):
                cnt_h = np.zeros(self.num_configs, dtype=np.int32)
                cnt_t = np.zeros(self.num_configs, dtype=np.int32)
                decided = np.zeros(self.num_configs, dtype=bool)
                fail = np.zeros(self.num_configs, dtype=bool)
                for l in range(j + 1, self.length):
                    if not self.is_y[l]:
                        continue
                    if scope == "group" and group_of[self.elem[l]] != gj:
                        continue
                    qual = free_t[l] & ~decided
                    is_h = self.heads[l]
                    cnt_h += qual & is_h
                    cnt_t += qual & ~is_h
                    new_h = ~decided & (cnt_h == r_cap)
                    new_t = ~decided & (cnt_t == r_cap)
                    fail |= new_h
                    decided |= new_h | new_t
                # Undecided configs never saturate either way: event intact.
                ok &= ~fail
            support[j] = ok
        return support


def config_blocks(structure, realizations) -> Iterator[ConfigEnsemble]:
    """All 2**n configurations of the realizations as ensembles of
    CONFIG_BLOCK consecutive ones, in order, made one at a time as they are
    read, on one sample path (one `PathLayout`) with one set of subset
    tables."""
    layout = PathLayout(structure, realizations)
    tables = SubsetTables(structure)
    for lo in range(0, 1 << layout.path.n, CONFIG_BLOCK):
        yield ConfigEnsemble(structure, layout, lo, lo + CONFIG_BLOCK, tables)


class TrialBatch(PathBatch):
    """Monte Carlo trials, one column each, from the bulk draws of
    `core.draw_trials`: per trial, two values and two tie-break tokens per
    element (draw d of element e in row d * n + e) and one coin per element,
    heads making the larger value the reward, as in `assign_coins`.
    """

    def __init__(self, structure, draws: TrialDraws) -> None:
        values, tokens, coins = draws.values, draws.tokens, draws.coins
        n, trials = coins.shape
        self.values, self.tokens = values, tokens
        owner = np.tile(np.arange(n), 2)
        # Per trial, the rows in decreasing (value, tiebreak, element) order.
        desc = np.lexsort(
            (np.broadcast_to(owner, (trials, 2 * n)), tokens.T, values.T)
        ).T[::-1]
        itype = index_type(n)
        pos = np.empty(desc.shape, dtype=itype)
        np.put_along_axis(pos, desc, np.arange(2 * n, dtype=itype)[:, None], axis=0)
        rows = np.arange(n)[:, None]
        first = pos[:n] < pos[n:]  # draw 0 is the larger value
        y_row = np.where(first, rows, rows + n)
        z_row = np.where(first, rows + n, rows)
        self.reward_rows = np.where(coins, y_row, z_row)
        self.sample_rows = np.where(coins, z_row, y_row)
        self.ridx = np.take_along_axis(pos, self.reward_rows, axis=0)
        self.sidx = np.take_along_axis(pos, self.sample_rows, axis=0)
        # A coin shows heads at the path positions that hold rewards.
        heads = np.zeros((2 * n, trials), dtype=bool)
        np.put_along_axis(heads, self.ridx, True, axis=0)
        super().__init__(
            structure, owner[desc], heads, np.take_along_axis(values, desc, axis=0),
            (values > 0).sum(axis=0).astype(itype), np.minimum(pos[:n], pos[n:]),
        )

    def tagged(self, t: int) -> tuple[dict[int, TaggedValue], dict[int, TaggedValue]]:
        """Trial t's rewards and samples as tagged values."""

        def pick(rows: np.ndarray) -> dict[int, TaggedValue]:
            return {
                e: TaggedValue(float(self.values[r, t]), float(self.tokens[r, t]), e)
                for e, r in enumerate(rows[:, t].tolist())
            }

        return pick(self.reward_rows), pick(self.sample_rows)


# ---------------------------------------------------------------------------
# Subset tables. Entry S of a table (S a bitmask over the elements) answers
# one question about the element set S; each table is built in n doubling
# steps over its 2**n entries.
# ---------------------------------------------------------------------------


def vertex_masks(g: GeneralMatching) -> list[int]:
    """Per edge, the bitmask of its two endpoints, over the vertices that
    some edge touches (in id order)."""
    touched = sorted({v for edge in g.edges for v in edge})
    if len(touched) > MASK_BITS:
        raise CapExceededError(f"vertex bitmasks support up to {MASK_BITS} vertices")
    bit = {v: i for i, v in enumerate(touched)}
    return [(1 << bit[u]) | (1 << bit[v]) for u, v in g.edges]


def neighbor_masks(t: Transversal) -> list[int]:
    """Per left node, the bitmask of its right neighbours."""
    return [sum(1 << r for r in nbrs) for nbrs in t.adjacency]


def subset_union(masks) -> np.ndarray:
    """Entry S: the OR of masks[e] over the elements e of S."""
    table = np.zeros(1 << len(masks), dtype=np.int64)
    for e, m in enumerate(masks):
        half = 1 << e
        table[half : 2 * half] = table[:half] | m
    return table


def _set_sizes(n: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << n, dtype=np.int64)).astype(np.int64)


def matching_table(g: GeneralMatching) -> tuple[np.ndarray, np.ndarray]:
    """Entry S: whether the edge set S is a matching, and the vertices it
    covers. Edges have two distinct endpoints, so S is a matching exactly
    when it covers 2|S| vertices."""
    covered = subset_union(vertex_masks(g))
    sizes = _set_sizes(len(g.edges))
    return np.bitwise_count(covered) == 2 * sizes, covered


def transversal_table(t: Transversal) -> np.ndarray:
    """Entry S: whether the left nodes S can be matched into right nodes.

    By Hall's condition, S can be matched iff every subset T of S has at
    least |T| neighbours; the count test per set is closed under subsets,
    one element at a time."""
    if t.right_count > MASK_BITS:
        raise CapExceededError(f"right-node bitmasks support up to {MASK_BITS} nodes")
    n = t.left_count
    table = np.bitwise_count(subset_union(neighbor_masks(t))) >= _set_sizes(n)
    for e in range(n):
        half = 1 << e
        blocks = table.reshape(-1, 2 * half)  # second halves hold bit e
        blocks[:, half:] &= blocks[:, :half]
    return table


def edges_touched(covered: np.ndarray, vmasks) -> np.ndarray:
    """Per entry, the mask of the edges with an endpoint among `covered`."""
    out = np.zeros_like(covered)
    for e, m in enumerate(vmasks):
        out |= ((covered & m) != 0).astype(np.int64) << e
    return out


class SubsetTables:
    """The subset tables of one structure, each built when first read. A
    batch holds one; the blocks of an exact command share one, so each
    table is built once per command."""

    def __init__(self, structure) -> None:
        self.structure = structure

    @cached_property
    def matchable(self) -> np.ndarray:
        """Transversal: entry S says whether the left nodes S can be matched."""
        return transversal_table(self.structure)

    @cached_property
    def matchings(self) -> tuple[np.ndarray, np.ndarray]:
        """Matching: the edge sets (element masks) that are matchings, and
        per set the mask of the edges it touches."""
        is_matching, covered = matching_table(self.structure)
        sets = np.flatnonzero(is_matching)
        return sets, edges_touched(covered[sets], vertex_masks(self.structure))

    @cached_property
    def maximal_matchings(self) -> np.ndarray:
        """Matching: the edge sets that are maximal matchings of all edges."""
        sets, touched = self.matchings
        return sets[touched == (1 << len(self.structure.edges)) - 1]


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
    vertices): a step is free when none of its element's resource is taken.
    `masks` holds each element's resource as a non-negative int64."""
    masks = np.asarray(masks, dtype=np.int64)
    claims = _at_steps(masks.astype(np.min_scalar_type(masks.max(initial=0))), elem)
    taken = np.zeros(want.shape[1], dtype=claims.dtype)
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
    want = batch.heads[::-1] & _at_steps(live, elem)
    took = want & walk(elem, want, *rule)
    return batch.at_rewards(took[::-1])


# ---------------------------------------------------------------------------
# Best sets per column: E_OPT and the matching adversary's minimum.
# ---------------------------------------------------------------------------

NEAR_TIE = 1e-9  # relative gap under which float totals are compared exactly
CHUNK_CELLS = 1 << 20  # (column, candidate set) cells per float block


def _exact_scale(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Non-negative floats as value * 2**s = mant * 2**k, an exact integer,
    for the least s shared by all of them; and the base-2**31 digit count
    of the largest such integer."""
    frac, expo = np.frexp(values)
    mant = (frac * 2.0**53).astype(np.int64)
    low = expo.astype(np.int64) - 53  # value = mant * 2**low
    pos = mant > 0
    trailing = np.bitwise_count((mant & -mant) - 1).astype(np.int64)
    shift = int(np.max(-(low + trailing), where=pos, initial=0))
    k = low + shift
    bits = int(np.max(53 + k, where=pos, initial=0))
    return mant, k, max(1, -(-bits // _DIGIT_BITS))


def _digits(mant: np.ndarray, k: np.ndarray, width: int) -> np.ndarray:
    """Digits (last axis, lowest first) of the integers mant * 2**k."""
    at = _DIGIT_BITS * np.arange(width) - k[..., None]  # digit d's lowest bit
    m = mant[..., None]
    out = np.where(at >= 0, m >> np.clip(at, 0, 63), m << np.clip(-at, 0, 63))
    return (out & _DIGIT_MASK).astype(float)


def _exact_winners(
    xval: np.ndarray, member: np.ndarray, near: np.ndarray, minimize: bool,
) -> np.ndarray:
    """Narrow each row of `near` to the candidates with the largest (or
    smallest) exact reward total, for the (n, rows) reward values `xval`.
    The totals are summed digit by digit in base 2**31 (`_digits`); every
    float product involved is an exact integer. Only the candidates near in some
    row take part, and rows go in blocks of at most CHUNK_CELLS (row,
    candidate, digit) cells."""
    cols = np.flatnonzero(near.any(axis=0))
    member = member[:, cols]
    mant, k, width = _exact_scale(xval)
    keep = np.zeros_like(near)
    step = max(1, CHUNK_CELLS // (len(cols) * width))
    for lo in range(0, near.shape[0], step):
        hi = min(lo + step, near.shape[0])
        digits = _digits(mant[:, lo:hi], k[:, lo:hi], width)  # (n, rows, D)
        sums = [(digits[:, :, d].T @ member).astype(np.int64) for d in range(width)]
        for d in range(width - 1):  # carry into the next digit
            sums[d + 1] += sums[d] >> _DIGIT_BITS
            sums[d] &= _DIGIT_MASK
        block = near[lo:hi, cols]
        for s in reversed(sums):  # most significant digit first
            if minimize:
                s = -s
            top = np.where(block, s, np.iinfo(np.int64).min).max(axis=1, keepdims=True)
            block &= s == top
        keep[lo:hi, cols] = block
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
    within a relative NEAR_TIE of the best, their exact totals decide."""
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
            scored, flags, allowed = sets[some], member[:, some], allowed[:, some]
        score = sign * (x.T @ flags)
        if within is not None:
            score[~allowed[row]] = -np.inf
        best = score.max(axis=1, keepdims=True)
        near = score >= best - NEAR_TIE * np.abs(best)
        tied = np.flatnonzero(near.sum(axis=1) > 1)
        if len(tied):
            near[tied] = _exact_winners(x[:, tied], flags, near[tied], minimize)
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
    Both read subset tables, whose caps apply to every exact batch. Monte
    Carlo trials past them (more than EXACT_MODE_CAP elements, or right
    nodes past a bitmask) take the scalar `exact_optimum` on each trial's
    rewards."""
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
        matchable = batch.tables.matchable
        bits = (1 << np.arange(n)).astype(np.min_scalar_type((1 << n) - 1))
        chosen = np.zeros(batch.num_configs, dtype=bits.dtype)
        for bit, reward in zip(_at_steps(bits, batch.elem), batch.heads):
            keep = matchable.take(chosen | bit)
            keep &= reward
            chosen |= bit * keep
        return element_flags(chosen, n)
    return element_flags(_best_sets(batch, batch.tables.maximal_matchings), n)


def min_maximal_accepts(batch: PathBatch, live: np.ndarray) -> np.ndarray:
    """Batched `policies.min_maximal_matching`: per column, the (n, columns) accepted
    flags of a minimum-weight maximal matching of the live edges, that is,
    of a matching inside the live set that touches every live edge."""
    sets, touched = batch.tables.matchings
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
            accepted = _replay(resource_walk, batch, live, adversary, vertex_masks(fs))
        return PolicyRun(accepted, lambda: batch.values_at(batch.matching_prices()))
    if policy == "transversal":
        # Each target node is a group of capacity 1; elements with no target
        # (-1) go to an extra group of capacity 0. No total binds.
        targets = batch.transversal_targets()
        live = targets >= 0
        group = targets.copy()
        np.copyto(group, fs.right_count, where=~live)
        caps = (1,) * fs.right_count + (0,)
        accepted = _replay(group_walk, batch, live, adversary, group, caps, batch.length)
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


def reduction_partitions(instance, policy: str, draws: TrialDraws | None = None) -> tuple:
    """(ranks, partitions): the partitions a policy's runs take, as
    (grouping, weight) pairs for `policy_run`, and for reduction-graphic on
    drawn vertex orders each vertex's rank in its column's order, (vertices,
    columns), else None.

    - reduction-custom: the instance's partition;
    - reduction-graphic with `draws`: each trial's vertex-order partition
      (`graphic_partition`'s rule: an edge joins the group of its endpoint
      ranked first), one group per column, from the last permutation drawn
      (first vertex first);
    - reduction-graphic without: each distinct vertex-order partition,
      weighted by the number of the vertex orders that give it (capped at
      EXACT_SIGMA_VERTEX_CAP vertices). Every group has capacity 1, so a
      partition's runs do not depend on its group labels: the groups are
      relabelled in order of first occurrence over the elements before
      equal partitions merge;
    - every other policy: one run with no grouping."""
    fs = instance.structure
    if policy == "reduction-custom":
        groups = instance.partition.groups
        return None, [((group_ids(groups, instance.ground_size), len(groups)), 1)]
    if policy != "reduction-graphic":
        return None, [(None, 1)]
    count = fs.vertex_count
    if draws is None:
        if count > EXACT_SIGMA_VERTEX_CAP:
            raise CapExceededError(
                f"exact vertex-order enumeration capped at {EXACT_SIGMA_VERTEX_CAP} vertices"
            )
        orders = np.array(list(permutations(range(count))))
    else:
        orders = draws.permutations[-1]
    ranks = np.argsort(orders, axis=1).T
    u, v = np.array(fs.edges, dtype=np.int64).reshape(-1, 2).T
    groups = np.where(ranks[u] < ranks[v], u[:, None], v[:, None])  # (n, orders)
    if draws is not None:
        return ranks, [((groups, count), 1)]
    # Per order, each group's label is its rank among the first occurrences.
    first = np.argmax(groups[:, None, :] == groups[None, :, :], axis=0)  # (n, orders)
    labels = np.cumsum(first == np.arange(len(groups))[:, None], axis=0) - 1
    relabelled = np.take_along_axis(labels, first, axis=0)
    weights = Counter(map(tuple, relabelled.T.tolist()))
    return None, [((np.array(group), count), weight) for group, weight in weights.items()]


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
    v0 = np.cumsum(np.where(samples & batch.free("T"), w_val, 0.0), axis=0)[-1]
    critical = np.zeros(accepted.shape)
    for e in np.flatnonzero(accepted.any(axis=1)):
        cols = np.flatnonzero(accepted[e])
        steps = elem[:, cols]
        want = samples[:, cols] & (steps != e)
        caps = np.array(fs.group_capacities)
        caps[group_of[e]] -= 1
        took = want & group_walk(steps, want, group_of, caps, fs.total_capacity - 1)
        value = np.cumsum(np.where(took, w_val[:, cols], 0.0), axis=0)[-1]
        critical[e, cols] = v0[cols] - value
    return critical
