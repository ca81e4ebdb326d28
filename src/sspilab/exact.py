"""Batched evaluation over coin configurations on sample paths.

A batch is a set of columns, each one coin configuration of one drawn set of
Y/Z realizations. Tables are numpy arrays with the column axis last, indexed
(path position, column) or (element, column), and hold exact integer counts:
free flags per side, per-vertex thresholds, supporting events, the sets each
policy accepts and the prophet's optimal sets. Two kinds of batch share every
walk and kernel below:

- `ConfigEnsemble` (exact mode, the lemma verifiers): all 2**n
  configurations of one draw. Configuration c is identified with the bitmask
  whose bit e says "element e's larger value is the reward"; the element at
  each path position is the same in every column.
- `TrialBatch` (Monte Carlo mode): one column per trial, each with its own
  draw and coins (`core.draw_trials`). The element at a path position
  differs from column to column.

Values are compared by their index on each column's decreasing sample path:
"x beats y" in the tagged order (value, tiebreak, element) is
`idx_x < idx_y`. Threshold tables hold path indices, and the absent
threshold is the index `absent`, the count of positive values, so beating it
means having positive value.

No step loops over columns in Python. Online phases are replayed by two
kernels that step through every column's arrival order at once: one for
bitmask resources (matching vertices, transversal target nodes) and one for
group counts (the partition policies). E_OPT comes from subset tables, whose
entry S says whether the element set S is feasible: the matroid greedy for
transversal systems, and the best maximal matching for matching, where float
totals within a relative NEAR_TIE of the best are compared exactly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .core import (
    CONFIG_ENUMERATION_CAP,
    CapExceededError,
    SamplePath,
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
)

_DIGIT_BITS = 31
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1
EXACT_MODE_CAP = 16  # elements in a subset table (2**n entries)
MASK_BITS = 62  # resources an int64 bitmask holds; wider masks are python ints


def group_ids(groups, n: int) -> np.ndarray:
    """Per element 0..n-1, the index of its group; len(groups) for elements
    in no group."""
    ids = np.full(n, len(groups), dtype=np.int64)
    for i, group in enumerate(groups):
        ids[list(group)] = i
    return ids


def _mask_array(masks, width: int) -> np.ndarray:
    """Bitmasks over `width` resources as int64, or as python ints when
    they do not fit."""
    return np.array(masks, dtype=np.int64 if width <= MASK_BITS else object)


def _take(table: np.ndarray, row, cols: np.ndarray) -> np.ndarray:
    """Per column, the entry of `table` in `row`: one row for all columns
    (a view, as in exact mode) or one row per column (a gather)."""
    return table[row] if np.ndim(row) == 0 else table[row, cols]


def _put(table: np.ndarray, row, cols: np.ndarray, values) -> None:
    """Set the entries `_take` reads."""
    if np.ndim(row) == 0:
        table[row] = values
    else:
        table[row, cols] = values


def bit_index(bits: np.ndarray) -> np.ndarray:
    """Index of the single set bit of each entry."""
    if bits.dtype == object:
        return np.array([int(b).bit_length() - 1 for b in bits], dtype=np.int64)
    return np.bitwise_count(bits - 1).astype(np.int64)


class PathBatch:
    """Columns of coin configurations on decreasing sample paths.

    A subclass sets `structure`, `n`, `elements`, `bit_of`, `length` (2n),
    `num_configs` (the column count), `elem` (per path position, the element
    there: an id, or an array with one id per column), `heads` (length,
    columns), `absent` (an int or one per column) and `w_val` (the path
    values, (length,) or (length, columns)), and defines `y_index`,
    `reward_index` and `sample_index`.
    """

    def _init_tables(self) -> None:
        self.cols = np.arange(self.num_configs)
        self._free: dict[str, np.ndarray] = {}
        self._candidate: dict[str, np.ndarray] = {}
        self._vertex_thresholds: np.ndarray | None = None

    # -- per-element reward/sample path indices ----------------------------

    def reward_indices(self) -> np.ndarray:
        """(n, columns) path index of every element's reward, by bit."""
        return np.stack([self.reward_index(e) for e in self.elements])

    def sample_indices(self) -> np.ndarray:
        """(n, columns) path index of every element's sample, by bit."""
        return np.stack([self.sample_index(e) for e in self.elements])

    def values_at(self, idx: np.ndarray) -> np.ndarray:
        """The path values at (k, columns) path indices."""
        if self.w_val.ndim == 1:
            return self.w_val[idx]
        return np.take_along_axis(self.w_val, idx, axis=0)

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
            free = self._free_matching(side_flags, fs)
        elif isinstance(fs, Transversal):
            free, cand = self._free_transversal(side_flags, fs)
            self._candidate[side] = cand
        elif isinstance(fs, TruncatedPartition):
            free = self._free_truncated(side_flags, fs)
        elif isinstance(fs, SimplePartition):
            free = self._free_simple(side_flags, fs)
        elif isinstance(fs, Graphic):
            free = self._free_graphic(side_flags, fs)
        else:
            raise TypeError(f"unknown structure {type(fs)!r}")
        self._free[side] = free
        return free

    def candidate_bits(self, side: str) -> np.ndarray:
        """Transversal only: per (index, column), the lowest-free-adjacent
        right node as a single-bit integer (0 when none is free)."""
        self.free(side)
        return self._candidate[side]

    def _free_matching(self, side_flags, fs: GeneralMatching) -> np.ndarray:
        vmask = np.array(vertex_masks(fs), dtype=np.int64)
        used = np.zeros(self.num_configs, dtype=np.int64)
        free = np.empty((self.length, self.num_configs), dtype=bool)
        for j in range(self.length):
            vm = vmask[self.elem[j]]
            free[j] = (used & vm) == 0
            parse = side_flags[j] & free[j]
            used = np.where(parse, used | vm, used)
        return free

    def _free_transversal(self, side_flags, fs: Transversal):
        rmask = _mask_array(neighbor_masks(fs), fs.right_count)
        taken = np.zeros(self.num_configs, dtype=rmask.dtype)
        free = np.empty((self.length, self.num_configs), dtype=bool)
        cand = np.empty((self.length, self.num_configs), dtype=rmask.dtype)
        for j in range(self.length):
            avail = rmask[self.elem[j]] & ~taken
            low = avail & -avail
            free[j] = avail != 0
            cand[j] = low
            parse = side_flags[j] & free[j]
            taken = np.where(parse, taken | low, taken)
        return free, cand

    def _free_truncated(self, side_flags, fs: TruncatedPartition) -> np.ndarray:
        group_of = group_ids(fs.groups, self.n)
        cols = self.cols
        counts = np.zeros((len(fs.groups), self.num_configs), dtype=np.int32)
        total = np.zeros(self.num_configs, dtype=np.int32)
        caps = np.array(fs.group_capacities)
        free = np.empty((self.length, self.num_configs), dtype=bool)
        for j in range(self.length):
            g = group_of[self.elem[j]]
            count = _take(counts, g, cols)
            free[j] = (count < caps[g]) & (total < fs.total_capacity)
            parse = side_flags[j] & free[j]
            _put(counts, g, cols, count + parse)
            total += parse
        return free

    def _free_simple(self, side_flags, fs: SimplePartition) -> np.ndarray:
        group_of = group_ids(fs.groups, self.n)
        cols = self.cols
        used = np.zeros((len(fs.groups) + 1, self.num_configs), dtype=bool)
        free = np.empty((self.length, self.num_configs), dtype=bool)
        for j in range(self.length):
            g = group_of[self.elem[j]]
            free[j] = ~_take(used, g, cols)
            _put(used, g, cols, ~free[j] | side_flags[j])
        return free

    def _free_graphic(self, side_flags, fs: Graphic) -> np.ndarray:
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

    def matching_vertex_thresholds(self) -> np.ndarray:
        """(vertices, columns) thresholds (path indices) set by the greedy
        matching on samples."""
        if self._vertex_thresholds is not None:
            return self._vertex_thresholds
        fs = self.structure
        ends = np.array(fs.edges, dtype=np.int64).reshape(-1, 2)
        free_t = self.free("T")
        tails = ~self.heads
        th = np.empty((fs.vertex_count, self.num_configs), dtype=np.int64)
        th[:] = self.absent
        for j in range(self.length):
            picked = tails[j] & free_t[j]
            if not picked.any():
                continue
            cols = self.cols[picked]
            ends_j = ends[self.elem[j]].T.reshape(2, -1)
            for vertex in np.broadcast_to(ends_j, (2, self.num_configs)):
                th[vertex[picked], cols] = j
        self._vertex_thresholds = th
        return th

    def matching_exceeds(self) -> np.ndarray:
        """(n, columns) flags: element's reward beats both endpoint thresholds."""
        fs = self.structure
        th = self.matching_vertex_thresholds()
        out = np.empty((self.n, self.num_configs), dtype=bool)
        for e in self.elements:
            u, v = fs.edges[e]
            out[self.bit_of[e]] = self.reward_index(e) < np.minimum(th[u], th[v])
        return out

    def transversal_r_thresholds(self) -> np.ndarray:
        """(right nodes, columns) thresholds (path indices) from the
        ordered-maximal sample matching."""
        fs = self.structure
        free_t = self.free("T")
        cand = self.candidate_bits("T")
        tails = ~self.heads
        th = np.empty((fs.right_count, self.num_configs), dtype=np.int64)
        th[:] = self.absent
        for j in range(self.length):
            picked = tails[j] & free_t[j]
            if picked.any():
                th[bit_index(cand[j, picked]), self.cols[picked]] = j
        return th

    def transversal_targets(self) -> np.ndarray:
        """(n, columns) int: the right node the online rule would pick for
        each arriving left node (-1 when the threshold scan finds none).

        The scan is order-independent: it uses only offline thresholds and
        the element's own sample."""
        fs = self.structure
        th = self.transversal_r_thresholds()
        out = np.full((self.n, self.num_configs), -1, dtype=np.int64)
        for l in self.elements:
            x = self.reward_index(l)
            gate = x < self.sample_index(l)
            found = np.zeros(self.num_configs, dtype=bool)
            row = out[self.bit_of[l]]
            for r in fs.sorted_neighbors(l):
                ok = gate & (x < th[r]) & ~found
                row[ok] = r
                found |= ok
        return out

    def laminar_accepts(self) -> np.ndarray:
        """(n, columns) online accept flags for the sample-optimum policy.

        Swapping a sample for its reward improves the greedy sample optimum
        (in the strict tagged order) exactly when the reward is the larger
        value and its path index is free with respect to tails: the samples
        beating the reward are precisely the tails-coin prefix of its index.
        Feasibility against the already-collected set is order-dependent and
        checked at replay time.
        """
        free_t = self.free("T")
        accept = np.zeros((self.n, self.num_configs), dtype=bool)
        for e in self.elements:
            jy = self.y_index(e)
            heads, free = _take(self.heads, jy, self.cols), _take(free_t, jy, self.cols)
            accept[self.bit_of[e]] = heads & free
        return accept

    def group_thresholds(self, group, count: int) -> np.ndarray:
        """(count + 1, columns) path index of each group's largest sample
        (`length` for a group with none). `group` gives each element's group
        index, fixed or one per column; index `count` means no group."""
        cols = self.cols
        group = np.asarray(group)
        thr = np.full((count + 1, self.num_configs), self.length, dtype=np.int64)
        for e in self.elements:
            g = group[self.bit_of[e]]
            _put(thr, g, cols, np.minimum(_take(thr, g, cols), self.sample_index(e)))
        return thr

    def group_exceeds(self, group, count: int) -> np.ndarray:
        """(n, columns) flags: the reward beats the largest sample of its
        group in the tagged order, as in the traced policies, so a reward
        worth 0 can beat samples worth 0 by its tiebreak. Elements in no
        group (index `count`) stay False."""
        cols = self.cols
        group = np.asarray(group)
        thr = self.group_thresholds(group, count)
        out = np.empty((self.n, self.num_configs), dtype=bool)
        for e in self.elements:
            g = group[self.bit_of[e]]
            out[self.bit_of[e]] = (self.reward_index(e) < _take(thr, g, cols)) & (g < count)
        return out


class ConfigEnsemble(PathBatch):
    """All 2**n configurations for one structure and fixed realizations."""

    def __init__(self, structure, realizations, cap: int = CONFIG_ENUMERATION_CAP) -> None:
        self.structure = structure
        self.path: SamplePath = build_sample_path(realizations)
        n = self.path.n
        if n > cap:
            raise CapExceededError(f"exact enumeration capped at n <= {cap}, got {n}")
        ground = sorted({r.element for r in realizations})
        self.elements = ground
        self.bit_of = {e: i for i, e in enumerate(ground)}
        self.n = n
        self.num_configs = 1 << n

        entries = self.path.entries
        self.length = len(entries)
        self.w_val = np.array([e.value.value for e in entries])
        # Index of the absent threshold: every positive value precedes it.
        self.absent = int((self.w_val > 0).sum())
        self.elem = [e.element for e in entries]
        self.is_y = np.array([e.label == "Y" for e in entries])

        masks = np.arange(self.num_configs, dtype=np.int64)
        bits = np.array([self.bit_of[e.element] for e in entries])
        ybit = ((masks[None, :] >> bits[:, None]) & 1).astype(bool)
        # Coin at a Y index is heads exactly when the element bit is set.
        self.heads = np.where(self.is_y[:, None], ybit, ~ybit)
        self._init_tables()

    def y_index(self, e: int) -> int:
        return self.path.y_index(e)

    def reward_index(self, e: int) -> np.ndarray:
        """Per config, the path index holding element e's reward."""
        jy = self.path.y_index(e)
        jz = self.path.partner[jy]
        return np.where(self.heads[jy], jy, jz)

    def sample_index(self, e: int) -> np.ndarray:
        """Per config, the path index holding element e's sample."""
        jy = self.path.y_index(e)
        jz = self.path.partner[jy]
        return np.where(self.heads[jy], jz, jy)

    def path_total(self, counts) -> Fraction:
        """Exact sum over path indices of value times count."""
        total = Fraction(0)
        for j, cnt in enumerate(counts):
            if cnt:
                total += Fraction(float(self.w_val[j])) * int(cnt)
        return total

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
        single-bit candidate node it concerns (r = the online target of j)."""
        free_t = self.free("T")
        cand = self.candidate_bits("T")
        tails = ~self.heads
        support = np.zeros((self.length, self.num_configs), dtype=bool)
        for j in range(self.length):
            if not self.is_y[j]:
                continue
            base = free_t[j] & self.heads[j]
            if not base.any():
                continue
            rbit = cand[j]
            active = base.copy()
            satisfied = np.zeros(self.num_configs, dtype=bool)
            for l in range(j + 1, self.length):
                if not self.is_y[l]:
                    continue
                hit = active & free_t[l] & (cand[l] == rbit)
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


class TrialBatch(PathBatch):
    """Monte Carlo trials, one column each, from the bulk draws of
    `core.draw_trials`: per trial, two values and two tie-break tokens per
    element (draw d of element e in row d * n + e) and one coin per element,
    heads making the larger value the reward, as in `assign_coins`.
    """

    def __init__(self, structure, draws: TrialDraws) -> None:
        values, tokens, coins = draws.values, draws.tokens, draws.coins
        n, trials = coins.shape
        self.structure = structure
        self.n = n
        self.elements = list(range(n))
        self.bit_of = {e: e for e in range(n)}
        self.length = 2 * n
        self.num_configs = trials
        self.values, self.tokens = values, tokens

        owner = np.tile(np.arange(n), 2)
        # Per trial, the rows in decreasing (value, tiebreak, element) order.
        desc = np.lexsort(
            (np.broadcast_to(owner, (trials, 2 * n)), tokens.T, values.T)
        ).T[::-1]
        pos = np.empty_like(desc)
        np.put_along_axis(pos, desc, np.arange(2 * n)[:, None], axis=0)
        rows = np.arange(n)[:, None]
        first = pos[:n] < pos[n:]  # draw 0 is the larger value
        y_row = np.where(first, rows, rows + n)
        z_row = np.where(first, rows + n, rows)
        self.reward_rows = np.where(coins, y_row, z_row)
        self.sample_rows = np.where(coins, z_row, y_row)
        self._y_index = np.minimum(pos[:n], pos[n:])
        self._ridx = np.take_along_axis(pos, self.reward_rows, axis=0)
        self._sidx = np.take_along_axis(pos, self.sample_rows, axis=0)

        self.elem = owner[desc]
        self.w_val = np.take_along_axis(values, desc, axis=0)
        self.absent = (values > 0).sum(axis=0)
        # A coin shows heads at the path positions that hold rewards.
        self.heads = np.zeros((2 * n, trials), dtype=bool)
        np.put_along_axis(self.heads, self._ridx, True, axis=0)
        self._init_tables()

    def y_index(self, e: int) -> np.ndarray:
        return self._y_index[e]

    def reward_index(self, e: int) -> np.ndarray:
        return self._ridx[e]

    def sample_index(self, e: int) -> np.ndarray:
        return self._sidx[e]

    def reward_indices(self) -> np.ndarray:
        return self._ridx

    def sample_indices(self) -> np.ndarray:
        return self._sidx

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


def tables_fit(fs, n: int, cap: int) -> bool:
    """Whether the subset tables of E_OPT cover this structure: at most
    `cap` elements, and right nodes that fit a bitmask."""
    return n <= cap and not (isinstance(fs, Transversal) and fs.right_count > MASK_BITS)


def edges_touched(covered: np.ndarray, vmasks) -> np.ndarray:
    """Per entry, the mask of the edges with an endpoint among `covered`."""
    out = np.zeros_like(covered)
    for e, m in enumerate(vmasks):
        out |= ((covered & m) != 0).astype(np.int64) << e
    return out


def maximal_within(sets: np.ndarray, touched: np.ndarray, within: np.ndarray) -> np.ndarray:
    """(columns, sets) flags: the set lies inside the column's element mask
    `within`, and its `touched` mask covers it. For matchings S that says S
    is a maximal matching of the edges in `within`."""
    w = within[:, None]
    return ((sets & ~w) == 0) & ((w & ~touched) == 0)


def element_masks(flags: np.ndarray) -> np.ndarray:
    """Per column, the int64 mask of the elements flagged in (n, columns)."""
    return (flags * (np.int64(1) << np.arange(flags.shape[0]))[:, None]).sum(axis=0)


def element_flags(masks: np.ndarray, n: int) -> np.ndarray:
    """(n, len(masks)) flags: bit e of each element mask."""
    return ((masks[None, :] >> np.arange(n)[:, None]) & 1).astype(bool)


# ---------------------------------------------------------------------------
# Batched replays: each kernel steps through every column's arrival order at
# once. `live` holds the (element, column) flags of the elements the policy
# would take if feasible; `orders` holds one arrival order per column (None:
# by element id). Each returns the (n, columns) accepted flags.
# ---------------------------------------------------------------------------


def target_bits(targets: np.ndarray, width: int) -> np.ndarray:
    """Single-bit masks of target nodes 0..width-1 (targets < 0 give bit 0,
    for elements that claim nothing)."""
    shifts = np.maximum(targets, 0)
    if width > MASK_BITS:
        return np.left_shift(np.ones_like(shifts, dtype=object), shifts.astype(object))
    return np.int64(1) << shifts


def replay_resources(live: np.ndarray, resources, orders=None) -> np.ndarray:
    """First-come acceptance where each element claims a bitmask resource
    (an edge claims its two vertices, a left node its target right node): a
    live arrival is accepted when none of its resource is taken yet.
    `resources` is (n,) or (n, columns), int64 or python ints."""
    n, configs = live.shape
    cols = np.arange(configs)
    res = np.asarray(resources)
    if res.dtype != object:
        res = res.astype(np.int64)
    res = np.broadcast_to(res.reshape(n, -1), live.shape)
    taken = np.zeros(configs, dtype=res.dtype)
    accepted = np.zeros_like(live)
    for k in range(n):
        e = k if orders is None else orders[k]
        mine = res[e, cols]
        ok = live[e, cols] & ((taken & mine) == 0)
        taken = taken | np.where(ok, mine, 0)
        accepted[e, cols] = ok
    return accepted


def replay_group_counts(
    live: np.ndarray, group, caps, total_cap: int, orders=None
) -> np.ndarray:
    """First-come acceptance under per-group capacities and a total one.
    `group` gives each element's group index, fixed ((n,)) or one per column
    ((n, columns)); index len(caps) means no group, and those elements are
    never accepted."""
    n, configs = live.shape
    cols = np.arange(configs)
    group = np.asarray(group)
    caps = np.array([*caps, 0], dtype=np.int64)  # an extra group of capacity 0
    counts = np.zeros((len(caps), configs), dtype=np.int64)
    total = np.zeros(configs, dtype=np.int64)
    accepted = np.zeros_like(live)
    for k in range(n):
        e = k if orders is None else orders[k]
        g = group[e] if group.ndim == 1 else group[e, cols]
        ok = live[e, cols] & (counts[g, cols] < caps[g]) & (total < total_cap)
        counts[g, cols] += ok
        total += ok
        accepted[e, cols] = ok
    return accepted


# ---------------------------------------------------------------------------
# Best sets per column: E_OPT and the matching adversary's minimum.
# ---------------------------------------------------------------------------

NEAR_TIE = 1e-9  # relative gap under which float totals are compared exactly
_CHUNK_CELLS = 1 << 20  # (column, candidate set) cells per float block


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
    row take part, and rows go in blocks of at most _CHUNK_CELLS (row,
    candidate, digit) cells."""
    cols = np.flatnonzero(near.any(axis=0))
    member = member[:, cols]
    mant, k, width = _exact_scale(xval)
    keep = np.zeros_like(near)
    step = max(1, _CHUNK_CELLS // (len(cols) * width))
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


def _best_sets(
    batch: PathBatch, ridx: np.ndarray, sets: np.ndarray, minimize: bool = False,
    within: np.ndarray | None = None, touched: np.ndarray | None = None,
) -> np.ndarray:
    """Per column, the first element mask in `sets` with the largest (or
    smallest) exact reward total. With `within` (one element mask per
    column) only the sets inside it whose `touched` mask covers it take
    part. Float totals pick the winner; where several lie within a relative
    NEAR_TIE of the best, their exact totals decide."""
    n, configs = ridx.shape
    member = element_flags(sets, n).astype(float)  # (n, sets)
    xval = batch.values_at(ridx)
    sign = -1.0 if minimize else 1.0
    chosen = np.empty(configs, dtype=np.int64)
    step = max(1, _CHUNK_CELLS // len(sets))
    for lo in range(0, configs, step):
        hi = min(lo + step, configs)
        score = sign * (xval[:, lo:hi].T @ member)
        if within is not None:
            score[~maximal_within(sets, touched, within[lo:hi])] = -np.inf
        best = score.max(axis=1, keepdims=True)
        near = score >= best - NEAR_TIE * np.abs(best)
        tied = np.flatnonzero(near.sum(axis=1) > 1)
        if len(tied):
            near[tied] = _exact_winners(xval[:, lo + tied], member, near[tied], minimize)
        chosen[lo:hi] = sets[near.argmax(axis=1)]
    return chosen


def optimum_accepts(batch: PathBatch, ridx: np.ndarray) -> np.ndarray:
    """(n, columns) flags of a maximum-weight feasible set per column, for
    matching and transversal structures.

    Transversal systems are matroids: the greedy over each column's rewards
    in path-rank order, keeping an element while the set stays matchable, is
    optimal and integer-exact. For matching, rewards are non-negative, so
    some maximal matching is optimal."""
    fs = batch.structure
    n = batch.n
    if isinstance(fs, Transversal):
        matchable = transversal_table(fs)
        chosen = np.zeros(batch.num_configs, dtype=np.int64)
        for e in np.argsort(ridx, axis=0):  # largest rewards first
            grown = chosen | (np.int64(1) << e)
            chosen = np.where(matchable[grown], grown, chosen)
        return element_flags(chosen, n)
    if not isinstance(fs, GeneralMatching):
        raise RuntimeError(f"no batched optimum for {type(fs).__name__}")
    vmasks = vertex_masks(fs)
    is_matching, covered = matching_table(fs)
    maximal = is_matching & (edges_touched(covered, vmasks) == (1 << n) - 1)
    return element_flags(_best_sets(batch, ridx, np.flatnonzero(maximal)), n)


def min_maximal_accepts(batch: PathBatch, ridx: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Batched `min_maximal_matching`: per column, the (n, columns) accepted
    flags of a minimum-weight maximal matching of the live edges, that is,
    of a matching inside the live set that touches every live edge."""
    vmasks = vertex_masks(batch.structure)
    is_matching, covered = matching_table(batch.structure)
    sets = np.flatnonzero(is_matching)
    chosen = _best_sets(
        batch, ridx, sets, minimize=True, within=element_masks(live),
        touched=edges_touched(covered[sets], vmasks),
    )
    return element_flags(chosen, batch.n)


# ---------------------------------------------------------------------------
# Scalar helper on python ints for one configuration at a time, for the
# traced Monte Carlo adversary.
# ---------------------------------------------------------------------------


def min_maximal_matching(live: int, vmasks, xvals) -> int:
    """Accepted mask of a minimum-weight maximal matching of the live edges.

    First-come acceptance over a fixed live set ends in a maximal matching of
    the live subgraph under every arrival order, and any maximal matching is
    reached by letting its edges arrive first; so this is the adversary's
    minimum over all orders. It walks the matchings of the live subgraph
    (at most 2**live of them) instead of live! orders. Totals are exact
    integer sums (`exact_integers`), so float near ties cannot pick a
    heavier set. Rewards are non-negative, so a partial total at or above
    the best one is cut.
    """
    edges = [e for e in range(len(vmasks)) if (live >> e) & 1]
    weights = exact_integers(xvals)
    best_total = None
    best_acc = 0

    def walk(i: int, matched: int, total: int, acc: int) -> None:
        nonlocal best_total, best_acc
        if best_total is not None and total >= best_total:
            return
        if i == len(edges):
            if all(matched & vmasks[f] for f in edges):  # maximal
                best_total, best_acc = total, acc
            return
        e = edges[i]
        if not matched & vmasks[e]:
            walk(i + 1, matched | vmasks[e], total + weights[e], acc | (1 << e))
        walk(i + 1, matched, total, acc)

    walk(0, 0, 0, 0)
    return best_acc
