"""Exact enumeration engine over coin configurations.

For one structure and one fixed set of Y/Z realizations, this module walks all
2**n configurations at once. Tables are numpy arrays with the configuration
axis last, indexed (path position, config) or (element, config), and hold
exact integer counts: free flags per side, per-vertex thresholds, supporting
events, the sets each policy accepts and the prophet's optimal sets.
Configuration c is identified with the bitmask whose bit e says "element e's
larger value is the reward".

Everything downstream (lemma verifiers, exact competitive-ratio harness)
consumes these tables. Values are compared by their index on the decreasing
sample path: "x beats y" in the tagged order (value, tiebreak, element) is
`idx_x < idx_y`. Threshold tables hold path indices, and the absent threshold
is the index `absent`, the count of positive values, so beating it means
having positive value.

No step loops over configurations in Python. Online phases are replayed by
two kernels that step through every configuration's arrival order at once:
one for bitmask resources (matching vertices, transversal target nodes) and
one for group counts (the partition policies). E_OPT comes from subset
tables, whose entry S says whether the element set S is feasible: the matroid
greedy for transversal systems, and the best maximal matching for matching,
where float totals within a relative NEAR_TIE of the best are compared
exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import CapExceededError, SamplePath, build_sample_path
from .feasibility import (
    GeneralMatching,
    Graphic,
    SimplePartition,
    Transversal,
    TruncatedPartition,
)

_DIGIT_BITS = 31
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1


class ConfigEnsemble:
    """All 2**n configurations for one structure and fixed realizations."""

    def __init__(self, structure, realizations, cap: int = 20) -> None:
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
        self._free: dict[str, np.ndarray] = {}
        self._candidate: dict[str, np.ndarray] = {}
        self._vertex_thresholds: list[np.ndarray] | None = None

    # -- per-element reward/sample path indices ----------------------------

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

    def reward_indices(self) -> np.ndarray:
        """(n, configs) path index of every element's reward, by bit."""
        return np.stack([self.reward_index(e) for e in self.elements])

    def path_total(self, counts) -> Fraction:
        """Exact sum over path indices of value times count."""
        total = Fraction(0)
        for j, cnt in enumerate(counts):
            if cnt:
                total += Fraction(float(self.w_val[j])) * int(cnt)
        return total

    @cached_property
    def exact_digits(self) -> np.ndarray:
        """(2n, D) path values as exact integers in base 2**31, lowest digit
        first: value j is sum_d digits[j, d] * 2**(31 d) / 2**s for one s
        shared by all. Float sums of fewer than 2**22 digits stay exact."""
        ratios = [float(v).as_integer_ratio() for v in self.w_val]
        shift = max(q.bit_length() for _, q in ratios)
        ints = [p << (shift - q.bit_length()) for p, q in ratios]
        width = max(1, -(-max(ints).bit_length() // _DIGIT_BITS))
        return np.array(
            [[(x >> (_DIGIT_BITS * d)) & _DIGIT_MASK for d in range(width)] for x in ints],
            dtype=float,
        )

    # -- free flags ---------------------------------------------------------

    def free(self, side: str) -> np.ndarray:
        """(2n, configs) boolean table of the free-index events for `side`."""
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
        """Transversal only: per (index, config), the lowest-free-adjacent
        right node as a single-bit integer (0 when none is free)."""
        self.free(side)
        return self._candidate[side]

    def _free_matching(self, side_flags, fs: GeneralMatching) -> np.ndarray:
        vmask = vertex_masks(fs)
        used = np.zeros(self.num_configs, dtype=np.int64)
        free = np.empty((self.length, self.num_configs), dtype=bool)
        for j in range(self.length):
            vm = vmask[self.elem[j]]
            free[j] = (used & vm) == 0
            parse = side_flags[j] & free[j]
            used = np.where(parse, used | vm, used)
        return free

    def _free_transversal(self, side_flags, fs: Transversal):
        rmask = neighbor_masks(fs)
        taken = np.zeros(self.num_configs, dtype=np.int64)
        free = np.empty((self.length, self.num_configs), dtype=bool)
        cand = np.empty((self.length, self.num_configs), dtype=np.int64)
        for j in range(self.length):
            avail = rmask[self.elem[j]] & ~taken
            low = avail & -avail
            free[j] = avail != 0
            cand[j] = low
            parse = side_flags[j] & free[j]
            taken = np.where(parse, taken | low, taken)
        return free, cand

    def _free_truncated(self, side_flags, fs: TruncatedPartition) -> np.ndarray:
        group_of = fs.group_index
        counts = np.zeros((len(fs.groups), self.num_configs), dtype=np.int32)
        total = np.zeros(self.num_configs, dtype=np.int32)
        caps = fs.group_capacities
        free = np.empty((self.length, self.num_configs), dtype=bool)
        for j in range(self.length):
            g = group_of[self.elem[j]]
            free[j] = (counts[g] < caps[g]) & (total < fs.total_capacity)
            parse = side_flags[j] & free[j]
            counts[g] += parse
            total += parse
        return free

    def _free_simple(self, side_flags, fs: SimplePartition) -> np.ndarray:
        group_of = fs.group_index
        used = np.zeros((len(fs.groups), self.num_configs), dtype=bool)
        free = np.empty((self.length, self.num_configs), dtype=bool)
        for j in range(self.length):
            g = group_of[self.elem[j]]
            free[j] = ~used[g]
            used[g] |= side_flags[j] & free[j]
        return free

    def _free_graphic(self, side_flags, fs: Graphic) -> np.ndarray:
        # Component labels per (config, vertex); joining relabels one side.
        comp = np.tile(np.arange(fs.vertex_count, dtype=np.int16), (self.num_configs, 1))
        free = np.empty((self.length, self.num_configs), dtype=bool)
        for j in range(self.length):
            u, v = fs.edges[self.elem[j]]
            cu, cv = comp[:, u], comp[:, v]
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

    def matching_vertex_thresholds(self) -> list[np.ndarray]:
        """Per-vertex thresholds (path indices) set by the greedy matching on
        samples."""
        if self._vertex_thresholds is not None:
            return self._vertex_thresholds
        fs = self.structure
        free_t = self.free("T")
        tails = ~self.heads
        th = [np.full(self.num_configs, self.absent) for _ in range(fs.vertex_count)]
        for j in range(self.length):
            picked = tails[j] & free_t[j]
            if not picked.any():
                continue
            for vertex in fs.edges[self.elem[j]]:
                th[vertex][picked] = j
        self._vertex_thresholds = th
        return th

    def matching_exceeds(self) -> np.ndarray:
        """(n, configs) flags: element's reward beats both endpoint thresholds."""
        fs = self.structure
        th = self.matching_vertex_thresholds()
        out = np.empty((self.n, self.num_configs), dtype=bool)
        for e in self.elements:
            u, v = fs.edges[e]
            out[self.bit_of[e]] = self.reward_index(e) < np.minimum(th[u], th[v])
        return out

    def transversal_r_thresholds(self) -> list[np.ndarray]:
        """Per-right-node thresholds (path indices) from the ordered-maximal
        sample matching."""
        fs = self.structure
        free_t = self.free("T")
        cand = self.candidate_bits("T")
        tails = ~self.heads
        th = [np.full(self.num_configs, self.absent) for _ in range(fs.right_count)]
        for j in range(self.length):
            picked = tails[j] & free_t[j]
            if not picked.any():
                continue
            for r in range(fs.right_count):
                th[r][picked & (cand[j] == (1 << r))] = j
        return th

    def transversal_targets(self) -> np.ndarray:
        """(n, configs) int: the right node the online rule would pick for
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

    def laminar_accepts(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-element online accept flags for the sample-optimum policy and
        the per-config sample-optimum value.

        Swapping a sample for its reward improves the greedy sample optimum
        (in the strict tagged order) exactly when the reward is the larger
        value and its path index is free with respect to tails: the samples
        beating the reward are precisely the tails-coin prefix of its index.
        Feasibility against the already-collected set is order-dependent and
        checked at replay time.
        """
        free_t = self.free("T")
        tails = ~self.heads
        picked = tails & free_t
        v0 = (self.w_val[:, None] * picked).sum(axis=0)
        accept = np.zeros((self.n, self.num_configs), dtype=bool)
        for e in self.elements:
            jy = self.path.y_index(e)
            accept[self.bit_of[e]] = self.heads[jy] & free_t[jy]
        return accept, v0

    def group_exceeds(self, groups) -> np.ndarray:
        """(n, configs) flags: the reward beats the largest sample of its
        group. Elements outside every group stay False."""
        out = np.zeros((self.n, self.num_configs), dtype=bool)
        for group in groups:
            thr = np.full(self.num_configs, self.absent)
            for e in group:
                thr = np.minimum(thr, self.sample_index(e))
            for e in group:
                out[self.bit_of[e]] = self.reward_index(e) < thr
        return out

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


# ---------------------------------------------------------------------------
# Subset tables. Entry S of a table (S a bitmask over the elements) answers
# one question about the element set S; each table is built in n doubling
# steps over its 2**n entries.
# ---------------------------------------------------------------------------


def vertex_masks(g: GeneralMatching) -> list[int]:
    """Per edge, the bitmask of its two endpoints."""
    if g.vertex_count > 62:
        raise CapExceededError("vertex bitmasks support up to 62 vertices")
    return [(1 << u) | (1 << v) for u, v in g.edges]


def neighbor_masks(t: Transversal) -> list[int]:
    """Per left node, the bitmask of its right neighbours."""
    if t.right_count > 62:
        raise CapExceededError("right-node bitmasks support up to 62 nodes")
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
    n = t.left_count
    table = np.bitwise_count(subset_union(neighbor_masks(t))) >= _set_sizes(n)
    for e in range(n):
        half = 1 << e
        blocks = table.reshape(-1, 2 * half)  # second halves hold bit e
        blocks[:, half:] &= blocks[:, :half]
    return table


def _edges_touched(covered: np.ndarray, vmasks) -> np.ndarray:
    """Per entry, the mask of the edges with an endpoint among `covered`."""
    out = np.zeros_like(covered)
    for e, m in enumerate(vmasks):
        out |= ((covered & m) != 0).astype(np.int64) << e
    return out


def element_flags(masks: np.ndarray, n: int) -> np.ndarray:
    """(n, len(masks)) flags: bit e of each element mask."""
    return ((masks[None, :] >> np.arange(n)[:, None]) & 1).astype(bool)


# ---------------------------------------------------------------------------
# Batched replays: each kernel steps through every configuration's arrival
# order at once. `live` holds the (element, config) flags of the elements the
# policy would take if feasible; `orders` holds one arrival order per column
# (None: by element id). Each returns the (n, configs) accepted flags.
# ---------------------------------------------------------------------------


def replay_resources(live: np.ndarray, resources, orders=None) -> np.ndarray:
    """First-come acceptance where each element claims a bitmask resource
    (an edge claims its two vertices, a left node its target right node): a
    live arrival is accepted when none of its resource is taken yet.
    `resources` is (n,) or (n, configs)."""
    n, configs = live.shape
    cols = np.arange(configs)
    res = np.broadcast_to(np.asarray(resources, dtype=np.int64).reshape(n, -1), live.shape)
    taken = np.zeros(configs, dtype=np.int64)
    accepted = np.zeros_like(live)
    for k in range(n):
        e = k if orders is None else orders[k]
        mine = res[e, cols]
        ok = live[e, cols] & ((taken & mine) == 0)
        taken |= np.where(ok, mine, 0)
        accepted[e, cols] = ok
    return accepted


def replay_group_counts(
    live: np.ndarray, group_index, caps, total_cap: int, orders=None
) -> np.ndarray:
    """First-come acceptance under per-group capacities and a total one.
    Elements missing from `group_index` are never accepted."""
    n, configs = live.shape
    cols = np.arange(configs)
    outside = len(caps)  # an extra group of capacity 0
    group = np.array([group_index.get(e, outside) for e in range(n)])
    caps = np.array([*caps, 0], dtype=np.int64)
    counts = np.zeros((outside + 1, configs), dtype=np.int64)
    total = np.zeros(configs, dtype=np.int64)
    accepted = np.zeros_like(live)
    for k in range(n):
        e = k if orders is None else orders[k]
        g = group[e]
        ok = live[e, cols] & (counts[g, cols] < caps[g]) & (total < total_cap)
        counts[g, cols] += ok
        total += ok
        accepted[e, cols] = ok
    return accepted


# ---------------------------------------------------------------------------
# Best sets per configuration: E_OPT and the matching adversary's minimum.
# ---------------------------------------------------------------------------

NEAR_TIE = 1e-9  # relative gap under which float totals are compared exactly
_CHUNK_CELLS = 1 << 20  # (configuration, candidate set) cells per float block


def _exact_winners(
    ens: ConfigEnsemble, ridx_cols: np.ndarray, member: np.ndarray,
    near: np.ndarray, minimize: bool,
) -> np.ndarray:
    """Narrow each row of `near` to the candidates with the largest (or
    smallest) exact reward total. The totals are summed digit by digit on
    `ens.exact_digits`; every float product involved is an exact integer.
    Only the candidates near in some row take part, and rows go in blocks
    of at most _CHUNK_CELLS (row, candidate, digit) cells."""
    cols = np.flatnonzero(near.any(axis=0))
    member = member[:, cols]
    width = ens.exact_digits.shape[1]
    keep = np.zeros_like(near)
    step = max(1, _CHUNK_CELLS // (len(cols) * width))
    for lo in range(0, near.shape[0], step):
        hi = min(lo + step, near.shape[0])
        digits = ens.exact_digits[ridx_cols[:, lo:hi]]  # (n, rows, D)
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
    ens: ConfigEnsemble, ridx: np.ndarray, sets: np.ndarray, minimize: bool = False,
    within: np.ndarray | None = None, touched: np.ndarray | None = None,
) -> np.ndarray:
    """Per configuration, the first element mask in `sets` with the largest
    (or smallest) exact reward total. With `within` (one element mask per
    configuration) only the sets inside it whose `touched` mask covers it
    take part. Float totals pick the winner; where several lie within a
    relative NEAR_TIE of the best, their exact totals decide."""
    n, configs = ridx.shape
    member = element_flags(sets, n).astype(float)  # (n, sets)
    xval = ens.w_val[ridx]
    sign = -1.0 if minimize else 1.0
    chosen = np.empty(configs, dtype=np.int64)
    step = max(1, _CHUNK_CELLS // len(sets))
    for lo in range(0, configs, step):
        hi = min(lo + step, configs)
        score = sign * (xval[:, lo:hi].T @ member)
        if within is not None:
            w = within[lo:hi, None]
            score[((sets & ~w) != 0) | ((w & ~touched) != 0)] = -np.inf
        best = score.max(axis=1, keepdims=True)
        near = score >= best - NEAR_TIE * np.abs(best)
        tied = np.flatnonzero(near.sum(axis=1) > 1)
        if len(tied):
            near[tied] = _exact_winners(
                ens, ridx[:, lo + tied], member, near[tied], minimize
            )
        chosen[lo:hi] = sets[near.argmax(axis=1)]
    return chosen


def optimum_accepts(ens: ConfigEnsemble, ridx: np.ndarray) -> np.ndarray:
    """(n, configs) flags of a maximum-weight feasible set per configuration,
    for matching and transversal structures.

    Transversal systems are matroids: the greedy over each configuration's
    rewards in path-rank order, keeping an element while the set stays
    matchable, is optimal and integer-exact. For matching, rewards are
    non-negative, so some maximal matching is optimal."""
    fs = ens.structure
    n = ens.n
    if isinstance(fs, Transversal):
        matchable = transversal_table(fs)
        chosen = np.zeros(ens.num_configs, dtype=np.int64)
        for e in np.argsort(ridx, axis=0):  # largest rewards first
            grown = chosen | (np.int64(1) << e)
            chosen = np.where(matchable[grown], grown, chosen)
        return element_flags(chosen, n)
    if not isinstance(fs, GeneralMatching):
        raise RuntimeError(f"no batched optimum for {type(fs).__name__}")
    vmasks = vertex_masks(fs)
    is_matching, covered = matching_table(fs)
    maximal = is_matching & (_edges_touched(covered, vmasks) == (1 << n) - 1)
    return element_flags(_best_sets(ens, ridx, np.flatnonzero(maximal)), n)


def min_maximal_accepts(ens: ConfigEnsemble, ridx: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Batched `min_maximal_matching`: per configuration, the (n, configs)
    accepted flags of a minimum-weight maximal matching of the live edges,
    that is, of a matching inside the live set that touches every live
    edge."""
    n = ens.n
    vmasks = vertex_masks(ens.structure)
    is_matching, covered = matching_table(ens.structure)
    sets = np.flatnonzero(is_matching)
    live_masks = (live * (np.int64(1) << np.arange(n))[:, None]).sum(axis=0)
    chosen = _best_sets(
        ens, ridx, sets, minimize=True, within=live_masks,
        touched=_edges_touched(covered[sets], vmasks),
    )
    return element_flags(chosen, n)


# ---------------------------------------------------------------------------
# Scalar helpers on python ints for one configuration at a time, for the
# Monte Carlo adversary and the all-orders verifiers.
# ---------------------------------------------------------------------------


def bitmask_rows(flags: np.ndarray) -> list[int]:
    """Pack an (n, configs) boolean array into one python int per config."""
    n = flags.shape[0]
    weights = (np.int64(1) << np.arange(n, dtype=np.int64))[:, None]
    return (flags * weights).sum(axis=0).tolist()


def min_maximal_matching(live: int, vmasks, xvals) -> int:
    """Accepted mask of a minimum-weight maximal matching of the live edges.

    First-come acceptance over a fixed live set ends in a maximal matching of
    the live subgraph under every arrival order, and any maximal matching is
    reached by letting its edges arrive first; so this is the adversary's
    minimum over all orders. It walks the matchings of the live subgraph
    (at most 2**live of them) instead of live! orders. Rewards are
    non-negative, so a partial total at or above the best one is cut.
    """
    edges = [e for e in range(len(vmasks)) if (live >> e) & 1]
    best_total = math.inf
    best_acc = 0

    def walk(i: int, matched: int, total: float, acc: int) -> None:
        nonlocal best_total, best_acc
        if total >= best_total:
            return
        if i == len(edges):
            if all(matched & vmasks[f] for f in edges):  # maximal
                best_total, best_acc = total, acc
            return
        e = edges[i]
        if not matched & vmasks[e]:
            walk(i + 1, matched | vmasks[e], total + xvals[e], acc | (1 << e))
        walk(i + 1, matched, total, acc)

    walk(0, 0, 0.0, 0)
    return best_acc
