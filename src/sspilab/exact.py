"""Exact enumeration engine over coin configurations.

For one structure and one fixed set of Y/Z realizations, this module walks all
2**n configurations at once using numpy arrays indexed (path position, config)
and produces exact integer counts: free flags per side, per-vertex thresholds,
supporting events, and policy outcomes. Configuration c is identified with the
bitmask whose bit e says "element e's larger value is the reward".

Everything downstream (lemma verifiers, exact competitive-ratio harness)
consumes these tables. Values are compared by their index on the decreasing
sample path: "x beats y" in the tagged order (value, tiebreak, element) is
`idx_x < idx_y`. Threshold tables hold path indices, and the absent threshold
is the index `absent`, the count of positive values, so beating it means
having positive value.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .core import CapExceededError, SamplePath, build_sample_path
from .feasibility import (
    GeneralMatching,
    Graphic,
    SimplePartition,
    Transversal,
    TruncatedPartition,
)

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
        if fs.vertex_count > 62:
            raise CapExceededError("vertex bitmasks support up to 62 vertices")
        vmask = [
            (1 << fs.edges[e][0]) | (1 << fs.edges[e][1]) for e in range(len(fs.edges))
        ]
        used = np.zeros(self.num_configs, dtype=np.int64)
        free = np.empty((self.length, self.num_configs), dtype=bool)
        for j in range(self.length):
            vm = vmask[self.elem[j]]
            free[j] = (used & vm) == 0
            parse = side_flags[j] & free[j]
            used = np.where(parse, used | vm, used)
        return free

    def _free_transversal(self, side_flags, fs: Transversal):
        if fs.right_count > 62:
            raise CapExceededError("right-node bitmasks support up to 62 nodes")
        rmask = [0] * fs.left_count
        for l in range(fs.left_count):
            for r in fs.adjacency[l]:
                rmask[l] |= 1 << r
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
# Per-configuration policy replays. These run on plain python ints/floats and
# are the hot loops behind exact mode and the sufficiency checks.
# ---------------------------------------------------------------------------


def bitmask_rows(flags: np.ndarray) -> list[int]:
    """Pack an (n, configs) boolean array into one python int per config."""
    n = flags.shape[0]
    weights = (np.int64(1) << np.arange(n, dtype=np.int64))[:, None]
    return (flags * weights).sum(axis=0).tolist()


def replay_matching(perm, ex_mask: int, vmasks, xvals) -> tuple[float, int]:
    matched = 0
    total = 0.0
    acc = 0
    for e in perm:
        if (ex_mask >> e) & 1 and not (matched & vmasks[e]):
            matched |= vmasks[e]
            total += xvals[e]
            acc |= 1 << e
    return total, acc


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


def replay_transversal(perm, targets, xvals) -> tuple[float, int]:
    taken = 0
    total = 0.0
    acc = 0
    for l in perm:
        r = targets[l]
        if r >= 0:
            bit = 1 << r
            if not (taken & bit):
                taken |= bit
                total += xvals[l]
                acc |= 1 << l
    return total, acc


def replay_truncated(perm, accepts: int, group_of, caps, total_cap: int, xvals):
    counts = [0] * len(caps)
    taken = 0
    total = 0.0
    acc = 0
    for e in perm:
        if (accepts >> e) & 1:
            g = group_of[e]
            if counts[g] < caps[g] and taken < total_cap:
                counts[g] += 1
                taken += 1
                total += xvals[e]
                acc |= 1 << e
    return total, acc


