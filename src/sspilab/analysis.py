"""Supporting events, saturation indices, exact lemma verifiers, and the
nested-bins coin game.

The verifiers enumerate every coin configuration and compare both sides of
each identity or inequality as exact integer counts. Value-weighted sums,
and the matched values that match-sufficient compares with its need, add
the path values' `core.exact_integers` (through `PathLayout.path_total`
and `exact.exact_table`: int64 while the sums fit, python ints past that),
so no comparison rounds. The greedy-objective right
side is counted by a dynamic program along the path (`_greedy_recount`)
whose layers are keyed by the scalar greedy rule's state values
(`feasibility.greedy_rule`), so coin prefixes that reach the same state
merge, rather than by a walk per configuration. The sufficiency verifiers
take each supported value's worst case over every arrival order from
structure: the batched policy (`exact.policy_run`) against the
`exhaustive-min` adversary, which is the increasing order, for transversal
and laminar, and the least value over the live subgraph's maximal
matchings for matching (subset tables, so n <= EXACT_MODE_CAP). The scalar
supporting-event functions here are reference implementations; the
vectorized tables in `exact` must agree with them, and tests enforce that.
They take a configuration as its heads mask (`core.SamplePath.heads`),
which is also its column in a `ConfigEnsemble` of all 2**n of them.

The coin game's exact values are one loop of backward induction over count
states (minimax) and the product of B-first's two binomial races (`_races`);
the scalar `play_coin_game` is their test oracle.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    EXACT_MODE_CAP,
    CapExceededError,
    ElementRealization,
    InputError,
    SamplePath,
)
from .exact import (
    CHUNK_CELLS, ConfigEnsemble, bit_index, element_masks,
    exact_table, maximal_within, policy_run,
)
from .feasibility import (
    FeasibilityStructure,
    GeneralMatching,
    Transversal,
    TruncatedPartition,
    greedy_rule,
    path_walk,
)

GAME_RR_CAP = 2
GAME_RB_CAP = 4


@dataclass(frozen=True)
class SupportReport:
    """Outcome of one supporting-event query, with the witness indices."""

    index: int
    kind: str
    holds: bool
    witnesses: dict


def supporting_event_matching(
    fs: GeneralMatching, path: SamplePath, mask: int, j: int
) -> SupportReport:
    """The matching supporting event at index j in configuration `mask`.

    Holds when j is a free-for-tails Y-value whose coin is heads, and the
    first (and, if needed, second) later free-for-tails index conflicting
    with its edge shows tails.
    """
    free_t = path_walk(fs, path, mask, "T").free
    heads = path.heads(mask)
    entry = path.entries[j]
    witnesses: dict = {"l1": None, "l2": None}
    base = entry.label == "Y" and free_t[j] and heads[j]
    if not base:
        return SupportReport(j, "matching", False, witnesses)
    ej = entry.element
    ends_j = set(fs.edges[ej])
    l1 = None
    for l in range(j + 1, path.length):
        el = path.entries[l].element
        if (el == ej or ends_j & set(fs.edges[el])) and free_t[l]:
            l1 = l
            break
    # A Y-value with a heads coin always leaves its other value (at least)
    # free for tails, so the first conflicting index must exist.
    assert l1 is not None, "no conflicting free index after a Y-value"
    witnesses["l1"] = l1
    if heads[l1]:
        return SupportReport(j, "matching", False, witnesses)
    el1 = path.entries[l1].element
    if el1 == ej or set(fs.edges[el1]) == ends_j:
        return SupportReport(j, "matching", True, witnesses)
    l2 = None
    for l in range(l1 + 1, path.length):
        el = path.entries[l].element
        if ends_j & set(fs.edges[el]) and free_t[l]:
            l2 = l
            break
    witnesses["l2"] = l2
    holds = l2 is None or not heads[l2]
    return SupportReport(j, "matching", holds, witnesses)


def candidate_node(
    t: Transversal, path: SamplePath, mask: int, j: int
) -> int | None:
    """The right node that would take element e_j in the sample-side
    ordered-maximal matching of configuration `mask` if its coin were tails;
    None when the index is not free for tails."""
    return path_walk(t, path, mask, "T").targets[j]


def supporting_event_transversal(
    t: Transversal, path: SamplePath, mask: int, j: int, r: int
) -> SupportReport:
    """The right-node supporting event at (j, r) in configuration `mask`."""
    targets = path_walk(t, path, mask, "T").targets
    heads = path.heads(mask)
    entry = path.entries[j]
    witnesses: dict = {"r": r, "l": None}
    base = entry.label == "Y" and targets[j] is not None and heads[j] and targets[j] == r
    if not base:
        return SupportReport(j, "transversal", False, witnesses)
    for l in range(j + 1, path.length):
        if path.entries[l].label != "Y":
            continue
        if targets[l] is not None and targets[l] == r:
            witnesses["l"] = l
            return SupportReport(j, "transversal", not heads[l], witnesses)
    return SupportReport(j, "transversal", True, witnesses)


def saturation_index(
    fs: TruncatedPartition,
    path: SamplePath,
    mask: int,
    j: int,
    group: int | None,
    side: str,
) -> float:
    """First index after j by which the group (or the whole ground set when
    group is None) accumulates capacity-many qualifying Y-values whose coins
    show `side` ("H" or "T") in configuration `mask`; math.inf when it never
    does.

    Qualifying means free with respect to tails at that index.
    """
    free_t = path_walk(fs, path, mask, "T").free
    heads = path.heads(mask)
    want = side == "H"
    if group is None:
        members = None
        cap = fs.total_capacity
    else:
        members = set(fs.groups[group])
        cap = fs.group_capacities[group]
    count = 0
    for i in range(j + 1, path.length):
        entry = path.entries[i]
        if entry.label != "Y":
            continue
        if members is not None and entry.element not in members:
            continue
        if heads[i] == want and free_t[i]:
            count += 1
            if count == cap:
                return i
    return math.inf


def supporting_event_laminar(
    fs: TruncatedPartition, path: SamplePath, mask: int, j: int
) -> SupportReport:
    """The two-layer saturation supporting event at index j in
    configuration `mask`."""
    free_t = path_walk(fs, path, mask, "T").free
    heads = path.heads(mask)
    entry = path.entries[j]
    g = fs.group_of(entry.element)
    witnesses: dict = {"group": g}
    if not (entry.label == "Y" and free_t[j] and heads[j]):
        return SupportReport(j, "laminar", False, witnesses)
    holds = True
    for scope, gid in (("group", g), ("all", None)):
        i_t = saturation_index(fs, path, mask, j, gid, "T")
        i_h = saturation_index(fs, path, mask, j, gid, "H")
        first = min(i_t, i_h)
        witnesses[f"{scope}_sat_T"] = i_t
        witnesses[f"{scope}_sat_H"] = i_h
        if first != math.inf and heads[int(first)]:
            holds = False
    return SupportReport(j, "laminar", holds, witnesses)


# ---------------------------------------------------------------------------
# Lemma verifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    passed: bool
    lhs: Fraction
    rhs: Fraction
    configurations: int
    detail: str = ""


def _counts(mask_2d: np.ndarray) -> np.ndarray:
    return mask_2d.sum(axis=1)


def _verify_symmetry(ens: ConfigEnsemble) -> LemmaReport:
    heads, free_t = ens.heads, ens.free("T")
    a = _counts(heads & ens.free("H"))
    b = _counts(~heads & free_t)
    c = _counts(heads & free_t)  # at Y-indices, also equal to b
    bad = np.flatnonzero((a != b) | (ens.is_y & (c != b)))
    fail = None
    if len(bad):
        j = int(bad[0])
        fail = (
            f"index {j}: heads/free-heads {a[j]} != tails/free-tails {b[j]}"
            if a[j] != b[j]
            else f"Y-index {j}: heads/free-tails {c[j]} != tails/free-tails {b[j]}"
        )
    return LemmaReport(
        "symmetry", fail is None, Fraction(int(a.sum())), Fraction(int(b.sum())),
        ens.num_configs, fail or "",
    )


def _verify_forget_z(ens: ConfigEnsemble) -> LemmaReport:
    counts = _counts(ens.heads & ens.free("H"))
    y_sum = ens.layout.path_total(counts * ens.is_y)
    all_sum = ens.layout.path_total(counts)
    passed = 2 * y_sum >= all_sum
    return LemmaReport("forget-z", passed, y_sum, all_sum / 2, ens.num_configs)


def _greedy_recount(ens: ConfigEnsemble) -> tuple[list[int], int]:
    """Per path index j, how many configurations have the heads-side greedy
    admit the element at j, and how many DP states the count visited.

    A counting DP over the path positions with the scalar greedy rule. A
    DP state is (greedy state, mask of the elements whose heads index is a
    Z index still to come), weighted by the number of coin prefixes that
    reach it. An element's coin is set at its Y index, which comes first, so
    an admission at j is shared by the 2**(n - coins set) configurations that
    extend the prefix. Equal states merge; the counts are exact."""
    n = ens.n
    recount = [0] * ens.length
    rule = greedy_rule(ens.structure)
    can_add, add = rule.can_add, rule.add
    layer = Counter({(rule.start, 0): 1})
    visited = 1
    coins_set = 0
    for j, entry in enumerate(ens.path.entries):
        e, bit, is_y = entry.element, 1 << entry.element, entry.label == "Y"
        coins_set += is_y
        shift = n - coins_set
        nxt: Counter = Counter()
        for (state, pending), count in layer.items():
            if is_y:
                nxt[state, pending | bit] += count  # tails here, heads at Z
                heads = True
            else:
                heads = bool(pending & bit)
                pending &= ~bit
            if heads and can_add(state, e):
                recount[j] += count << shift
                state = add(state, e)
            nxt[state, pending] += count
        layer = nxt
        visited += len(layer)
    return recount, visited


def _verify_greedy_objective(ens: ConfigEnsemble) -> LemmaReport:
    # Left side from the vectorized free-flag tables; right side counted
    # from the scalar greedy rule (`_greedy_recount`), an independent code
    # path.
    lhs = ens.layout.path_total(_counts(ens.heads & ens.free("H")))
    recount, visited = _greedy_recount(ens)
    rhs = ens.layout.path_total(recount)
    return LemmaReport(
        "greedy-objective", lhs == rhs, lhs, rhs, ens.num_configs,
        f"{visited} greedy states over {ens.num_configs} configurations"
        if lhs == rhs else "flag-table objective != replayed greedy objective",
    )


def _prob_report(name: str, ens: ConfigEnsemble, support: np.ndarray, factor: int) -> LemmaReport:
    baseline = _counts(ens.heads & ens.free("H"))[ens.is_y]
    sup_counts = _counts(support)[ens.is_y]
    bad = np.flatnonzero(factor * sup_counts < baseline)
    fail = None
    if len(bad):
        k = bad[0]
        fail = f"Y-index {np.flatnonzero(ens.is_y)[k]}: {factor}*{sup_counts[k]} < {baseline[k]}"
    return LemmaReport(
        name, fail is None, Fraction(int(sup_counts.sum())), Fraction(int(baseline.sum())),
        ens.num_configs, fail or "",
    )


def _verify_match_unique(ens: ConfigEnsemble) -> LemmaReport:
    fs = ens.structure
    support = ens.support_matching()
    ends = fs.edge_ends[1][ens.elem]  # per path index, its edge's vertex numbers
    worst = 0
    fail = None
    for u, vertex in enumerate(fs.touched_vertices):
        sim = support[(ends == u).any(axis=1)].sum(axis=0)
        m = int(sim.max(initial=0))
        worst = max(worst, m)
        if m > 1 and fail is None:
            fail = f"vertex {vertex} supported by {m} indices in one configuration"
    return LemmaReport(
        "match-unique", worst <= 1, Fraction(worst), Fraction(1),
        ens.num_configs, fail or "",
    )


def _verify_trans_unique(ens: ConfigEnsemble) -> LemmaReport:
    support, cand = ens.support_transversal()
    rows = np.flatnonzero(support.any(axis=1)).tolist()
    worst = 0
    fail = None
    for r in range(ens.structure.right_count):
        count = np.zeros(ens.num_configs, dtype=np.uint8)  # supporting indices per config
        for j in rows:
            count += support[j] & (cand[j] == r)
        m = int(count.max(initial=0))
        worst = max(worst, m)
        if m > 1 and fail is None:
            fail = f"right node {r} supported by {m} indices in one configuration"
    return LemmaReport(
        "trans-unique", worst <= 1, Fraction(worst), Fraction(1),
        ens.num_configs, fail or "",
    )


def _sufficiency_report(
    name: str, ens: ConfigEnsemble, support: np.ndarray, short: np.ndarray, describe,
) -> LemmaReport:
    """A sufficiency lemma's verdict. `short` flags the supported (index,
    config) cells whose worst case over every arrival order misses the
    lemma's need; the first in config-major order is the failure, told by
    `describe(j, c)`."""
    missed = np.argwhere(short.T)
    fail = None
    if len(missed):
        c, j = missed[0].tolist()
        fail = f"config {c}, index {j}: {describe(j, c)}"
    return LemmaReport(
        name, fail is None, Fraction(0 if fail is None else 1), Fraction(0),
        ens.num_configs, fail or f"{int(support.sum())} replayed checks",
    )


def _match_worst_values(ens: ConfigEnsemble, support: np.ndarray) -> np.ndarray:
    """(2n, configs): at each supported (j, c), the least value matched at
    the two endpoints of e_j over every arrival order of the live edges, an
    exact sum of two path values' `exact_table(ens.w_val, 2)` integers;
    elsewhere a number above every such sum.

    The orders reach exactly the maximal matchings M of the live subgraph
    (`min_maximal_accepts`), and one M-edge at most meets each vertex, so the
    value is the minimum of val_M(u) + val_M(v) over those M, with val_M(x)
    the reward of the M-edge at x (0 when none). Which pairs of edges at u
    and v some M reaches depends only on the live set, so it is worked out
    once per distinct live set."""
    fs = ens.structure
    n = ens.n
    sets, touched = fs.matchings
    live = element_masks(ens.matching_exceeds())
    values, _ = exact_table(ens.w_val, 2)
    # Row n holds 0, the value at a vertex no M-edge meets.
    xval = np.vstack([values[ens.ridx], np.zeros((1, ens.num_configs), dtype=values.dtype)])
    above = 2 * values.max() + 1
    worst = np.full(support.shape, above, dtype=values.dtype)
    for j in np.flatnonzero(support.any(axis=1)):
        at = []  # per set, the edge meeting each endpoint of e_j (n: none)
        for x in fs.edges[ens.elem[j]]:
            meets = sets & sum(1 << e for e in range(n) if x in fs.edges[e])
            at.append(np.where(meets != 0, bit_index(meets), n))
        pairs, pair_of = np.unique(np.stack(at), axis=1, return_inverse=True)
        cols = np.flatnonzero(support[j])
        lives, live_of = np.unique(live[cols], return_inverse=True)
        onehot = pair_of[:, None] == np.arange(pairs.shape[1])  # (sets, pairs)
        reached = np.empty((len(lives), pairs.shape[1]), dtype=bool)
        step = max(1, CHUNK_CELLS // len(sets))
        for lo in range(0, len(lives), step):
            ok = maximal_within(sets, touched, lives[lo : lo + step])  # (lives, sets)
            reached[lo : lo + step] = ok @ onehot
        total = xval[pairs[0][:, None], cols] + xval[pairs[1][:, None], cols]  # (pairs, cols)
        total[~reached[live_of].T] = above
        worst[j, cols] = total.min(axis=0)
    return worst


def _verify_match_sufficient(ens: ConfigEnsemble) -> LemmaReport:
    support = ens.support_matching()
    worst = _match_worst_values(ens, support)
    values, scale = exact_table(ens.w_val, 2)
    return _sufficiency_report(
        "match-sufficient", ens, support, worst < values[:, None],
        lambda j, c: (f"matched value {Fraction(int(worst[j, c]), 1 << scale)}"
                      f" < {Fraction(int(values[j]), 1 << scale)}"),
    )


def _trans_worst_values(ens: ConfigEnsemble, support: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """(2n, configs): at each supported (j, c), the least reward matched at
    e_j's candidate node over every arrival order; inf elsewhere.

    Every live element claims one fixed node, and the first live arrival
    aimed at a node takes it, so the increasing order leaves each node its
    smallest live reward, all nodes at once."""
    targets = ens.transversal_targets
    ridx = ens.ridx
    run = policy_run(ens, "transversal", "exhaustive-min")
    js, cs = np.nonzero(support)
    node = cand[js, cs]
    got = np.zeros(len(cs))  # 0 when no element takes the node
    for l in range(ens.n):
        hit = run.accepted[l, cs] & (targets[l, cs] == node)
        got[hit] = ens.w_val[ridx[l, cs[hit]]]
    worst = np.full(support.shape, np.inf)
    worst[js, cs] = got
    return worst


def _verify_trans_sufficient(ens: ConfigEnsemble) -> LemmaReport:
    support, cand = ens.support_transversal()
    worst = _trans_worst_values(ens, support, cand)
    return _sufficiency_report(
        "trans-sufficient", ens, support, worst < ens.w_val[:, None],
        lambda j, c: (
            f"node {int(cand[j, c])} matched at "
            f"{float(worst[j, c])} < {float(ens.w_val[j])}"
        ),
    )


def _verify_laminar_sufficient(ens: ConfigEnsemble) -> LemmaReport:
    support = ens.support_laminar()
    run = policy_run(ens, "laminar", "exhaustive-min")
    return _sufficiency_report(
        "laminar-sufficient", ens, support, support & ~run.accepted[ens.elem],
        lambda j, c: f"element {ens.elem[j]} not collected under the increasing order",
    )


_VERIFIERS: dict[str, Callable[[ConfigEnsemble], LemmaReport]] = {
    "symmetry": _verify_symmetry,
    "forget-z": _verify_forget_z,
    "greedy-objective": _verify_greedy_objective,
    "match-unique": _verify_match_unique,
    "match-sufficient": _verify_match_sufficient,
    "match-prob": lambda ens: _prob_report("match-prob", ens, ens.support_matching(), 4),
    "trans-unique": _verify_trans_unique,
    "trans-sufficient": _verify_trans_sufficient,
    "trans-prob": lambda ens: _prob_report("trans-prob", ens, ens.support_transversal()[0], 2),
    "laminar-sufficient": _verify_laminar_sufficient,
    "laminar-prob": lambda ens: _prob_report("laminar-prob", ens, ens.support_laminar(), 4),
}
LEMMA_IDS = (*_VERIFIERS, "game-value")


def verify_lemma(
    lemma_id: str,
    structure: FeasibilityStructure | None = None,
    realizations: Sequence[ElementRealization] | None = None,
) -> LemmaReport:
    """Verify one named identity or inequality by exhaustive enumeration.

    The game-value lemma needs no instance; all others take a structure and a
    fixed set of realizations (one per ground-set element).
    """
    if lemma_id not in LEMMA_IDS:
        raise InputError("--lemma", f"unknown lemma id {lemma_id!r}")
    if lemma_id == "game-value":
        return _verify_game_value()
    if structure is None or realizations is None:
        raise ValueError(f"lemma {lemma_id!r} needs a structure and realizations")
    if lemma_id.startswith("match") and not isinstance(structure, GeneralMatching):
        raise InputError("--lemma", "matching lemmas need a general-matching structure")
    if lemma_id.startswith("trans") and not isinstance(structure, Transversal):
        raise InputError("--lemma", "transversal lemmas need a transversal structure")
    if lemma_id.startswith("laminar") and not isinstance(structure, TruncatedPartition):
        raise InputError("--lemma", "laminar lemmas need a truncated-partition structure")
    if lemma_id == "match-sufficient" and structure.ground_size > EXACT_MODE_CAP:
        # Refused before the ensemble's tables are built.
        raise CapExceededError(
            f"match-sufficient (matching subset tables) capped at n <= {EXACT_MODE_CAP}"
        )
    return _VERIFIERS[lemma_id](ConfigEnsemble(structure, realizations))


# ---------------------------------------------------------------------------
# The nested-bins coin game
# ---------------------------------------------------------------------------


@dataclass
class GameState:
    """Running state of the nested-bins game.

    Every toss lands in bin B; tosses aimed at R land in both. A bin is
    saturated once either its heads or its tails count reaches its capacity;
    the side that got there first is recorded in `saturated`.
    """

    r_r: int
    r_b: int
    heads: dict[str, int] = field(default_factory=lambda: {"R": 0, "B": 0})
    tails: dict[str, int] = field(default_factory=lambda: {"R": 0, "B": 0})
    toss_log: list[tuple[int, str, str]] = field(default_factory=list)
    r_toss_log: list[tuple[int, str, int]] = field(default_factory=list)
    saturated: dict[str, str] = field(default_factory=dict)

    def is_saturated(self, bin_name: str) -> bool:
        return bin_name in self.saturated

    def _cap(self, bin_name: str) -> int:
        return self.r_r if bin_name == "R" else self.r_b

    def record(self, t: int, bin_name: str, outcome: str) -> None:
        self.toss_log.append((t, bin_name, outcome))
        bins = ("R", "B") if bin_name == "R" else ("B",)
        if bin_name == "R":
            self.r_toss_log.append((len(self.r_toss_log) + 1, outcome, t))
        for b in bins:
            (self.heads if outcome == "H" else self.tails)[b] += 1
            if b not in self.saturated:
                if self.heads[b] >= self._cap(b):
                    self.saturated[b] = "H"
                elif self.tails[b] >= self._cap(b):
                    self.saturated[b] = "T"


Strategy = Callable[[GameState], str]


def _check_bins(r_r: int, r_b: int) -> None:
    """Bin capacities of a game: 1 <= r_r < r_b (the CLI's --rr and --rb)."""
    for flag, cap in (("--rr", r_r), ("--rb", r_b)):
        if cap < 1:
            raise InputError(flag, f"must be at least 1, got {cap}")
    if not r_r < r_b:
        raise InputError("--rb", "need r_r < r_b")


def b_first_strategy(state: GameState) -> str:
    return "R" if state.is_saturated("B") else "B"


def play_coin_game(
    r_r: int, r_b: int, strategy: Strategy, coins: Iterable[str]
) -> tuple[str, GameState]:
    """Play until both bins are saturated; the second player wins only when
    both saturate with tails.

    The strategy sees the state (logs up to the previous toss) and must name
    a bin before the next outcome is drawn; naming a saturated bin is coerced
    to the other one.
    """
    _check_bins(r_r, r_b)
    state = GameState(r_r, r_b)
    stream: Iterator[str] = iter(coins)
    t = 0

    def decided() -> bool:
        # Heads-saturation of either bin settles the game for player one.
        if state.saturated.get("R") == "H" or state.saturated.get("B") == "H":
            return True
        return state.is_saturated("R") and state.is_saturated("B")

    while not decided():
        t += 1
        choice = strategy(state)
        if choice not in ("R", "B"):
            raise ValueError(f"strategy must answer 'R' or 'B', got {choice!r}")
        if choice == "R" and state.is_saturated("R"):
            choice = "B"
        if choice == "B" and state.is_saturated("B"):
            choice = "R"
        outcome = next(stream)
        if outcome not in ("H", "T"):
            raise ValueError(f"coin stream must yield 'H' or 'T', got {outcome!r}")
        state.record(t, choice, outcome)
    winner = (
        "P2"
        if state.saturated.get("R") == "T" and state.saturated.get("B") == "T"
        else "P1"
    )
    return winner, state


def _races(r_r: int, r_b: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two races of a B-first game: B's first 2*r_b - 1 tosses, then R's
    next 2*r_r - 1, and the tails counts r_b and r_r that win each for P2."""
    return (2 * r_b - 1, 2 * r_r - 1), (r_b, r_r)


GAME_BLOCK = 1 << 16  # games drawn at a time; bounds memory, changes no result
GAME_MC_CAP = 1 << 62  # largest capacity whose race length 2r - 1 is an int64


def game_monte_carlo(r_r: int, r_b: int, trials: int, seed: int) -> float:
    """P2 win frequency of the B-first strategy over `trials` games.

    Under B-first bin B takes every toss until its first 2*r_b - 1 tosses
    decide it: it saturates with tails exactly when at least r_b of them
    are tails. Heads end the game; otherwise R takes every later toss and
    its next 2*r_r - 1 decide it the same way, so P2 wins exactly when both
    races go to tails. Each game draws its two tails counts, game after
    game, from default_rng(seed): rows of
    `rng.binomial((2*r_b - 1, 2*r_r - 1), 0.5, size=(rows, 2))`, GAME_BLOCK
    games at a time."""
    if trials < 1:
        raise InputError("--trials", "need trials >= 1")
    _check_bins(r_r, r_b)
    for flag, cap in (("--rr", r_r), ("--rb", r_b)):
        if cap > GAME_MC_CAP:
            raise InputError(flag, f"Monte Carlo capacity capped at 2**62, got {cap}")
    tosses, need = _races(r_r, r_b)
    rng = np.random.default_rng(seed)
    wins = 0
    for lo in range(0, trials, GAME_BLOCK):
        rows = min(GAME_BLOCK, trials - lo)
        tails = rng.binomial(tosses, 0.5, size=(rows, 2))
        wins += int((tails >= need).all(axis=1).sum())
    return wins / trials


def exhaustive_game_value(
    r_r: int, r_b: int, strategy: str = "optimal"
) -> Fraction:
    """Exact P2-win probability of the game with bins r_r < r_b.

    `optimal` lets the first player minimize, by backward induction over the
    count states (hr, tr, hb, tb) from the most counts recorded down: a bin
    saturated with heads is worth 0, both saturated with tails 1, and else
    the least, over the open bins, of a toss's average outcome there.
    `b-first` is the product of its two races' tails probabilities (`_races`).
    """
    _check_bins(r_r, r_b)
    if strategy not in ("optimal", "b-first"):
        raise ValueError(f"unknown game strategy {strategy!r}")
    if r_r > GAME_RR_CAP or r_b > GAME_RB_CAP:
        raise CapExceededError(
            f"game value capped at r_r <= {GAME_RR_CAP}, r_b <= {GAME_RB_CAP}"
        )
    if strategy == "b-first":
        win = Fraction(1)
        for tosses, need in zip(*_races(r_r, r_b)):
            tails = sum(math.comb(tosses, k) for k in range(need, tosses + 1))
            win *= Fraction(tails, 2**tosses)
        return win
    return _game_table(r_r, r_b)[0][0, 0, 0, 0]


def _game_table(r_r: int, r_b: int) -> tuple[dict, dict]:
    """The `optimal` game's backward induction: per count state (hr, tr,
    hb, tb), its value, and for an undecided state the sum of a toss's two
    outcomes at each open bin ("R", "B"), whose least halved is its value."""
    value: dict[tuple[int, int, int, int], Fraction] = {}
    moves: dict[tuple[int, int, int, int], dict[str, Fraction]] = {}
    states = itertools.product(range(r_r + 1), range(r_r + 1), range(r_b + 1), range(r_b + 1))
    for hr, tr, hb, tb in sorted(states, key=sum, reverse=True):
        r_open = max(hr, tr) < r_r
        b_open = max(hb, tb) < r_b
        if hr == r_r or hb == r_b:
            value[hr, tr, hb, tb] = Fraction(0)
        elif not (r_open or b_open):
            value[hr, tr, hb, tb] = Fraction(1)
        else:
            toss = moves[hr, tr, hb, tb] = {}
            if r_open:
                db = int(b_open)  # a toss at R also lands in B while B is open
                toss["R"] = value[hr + 1, tr, hb + db, tb] + value[hr, tr + 1, hb, tb + db]
            if b_open:
                toss["B"] = value[hr, tr, hb + 1, tb] + value[hr, tr, hb, tb + 1]
            value[hr, tr, hb, tb] = min(toss.values()) / 2
    return value, moves


def _verify_game_value() -> LemmaReport:
    fail = ""
    pairs = [(r_r, r_b) for r_r in range(1, GAME_RR_CAP + 1)
             for r_b in range(r_r + 1, GAME_RB_CAP + 1)]
    for r_r, r_b in pairs:
        opt = exhaustive_game_value(r_r, r_b, "optimal")
        bf = exhaustive_game_value(r_r, r_b, "b-first")
        if opt != Fraction(1, 4) or bf != Fraction(1, 4):
            fail = f"(r_r={r_r}, r_b={r_b}): optimal={opt}, b-first={bf}"
            break
    return LemmaReport(
        "game-value", not fail, Fraction(1, 4), Fraction(1, 4), 0, fail,
    )
