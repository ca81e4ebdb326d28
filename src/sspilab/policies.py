"""Online single-sample policies, arrival-order adversaries, and the
partition-based reduction.

Policies consume an arrival stream of (element, reward) pairs and never look
ahead. Each returns a trace recording its thresholds, every decision with the
reason and the critical value beaten, and the collected solution. Rejections
of elements outside a reduction's partition record no reward at all, which is
what the order-obliviousness audit checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import EXACT_MODE_CAP, CapExceededError, TaggedValue, exact_integers
from .feasibility import (
    MATROID_KINDS,
    FeasibilityStructure,
    GeneralMatching,
    Graphic,
    SimplePartition,
    Transversal,
    TruncatedPartition,
    Solution,
    contraction_optimum,
    graphic_partition,
    greedy_prophet,
)

# The structures each policy applies to. reduction-custom also needs a
# partition of the ground set (an instance's partition block).
POLICY_STRUCTURES: dict[str, Callable[[FeasibilityStructure], bool]] = {
    "rank1": lambda s: isinstance(s, TruncatedPartition) and s.total_capacity == 1,
    "matching": lambda s: isinstance(s, GeneralMatching),
    "transversal": lambda s: isinstance(s, Transversal),
    "laminar": lambda s: isinstance(s, TruncatedPartition),
    "reduction-graphic": lambda s: isinstance(s, Graphic),
    "reduction-custom": lambda s: isinstance(s, MATROID_KINDS),
}
POLICY_NAMES = tuple(POLICY_STRUCTURES)


def check_policy(
    policy: str, structure: FeasibilityStructure, partition: SimplePartition | None
) -> None:
    """Reject an unknown policy (ValueError), a structure the policy does not
    apply to (TypeError), and reduction-custom without a partition."""
    applies = POLICY_STRUCTURES.get(policy)
    if applies is None:
        raise ValueError(f"unknown policy {policy!r}")
    if not applies(structure):
        raise TypeError(f"policy {policy!r} does not apply to {type(structure).__name__}")
    if policy == "reduction-custom" and partition is None:
        raise ValueError("reduction-custom needs a partition block in the instance")


@dataclass(frozen=True)
class ArrivalOrder:
    order: tuple[int, ...]
    provenance: str

    def __post_init__(self) -> None:
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("order must be a permutation of the ground set")


@dataclass(frozen=True)
class PolicyDecision:
    element: int
    reward: TaggedValue | None
    accepted: bool
    reason: str
    critical_value: float | None = None


@dataclass
class PolicyTrace:
    policy: str
    thresholds: dict
    decisions: list[PolicyDecision] = field(default_factory=list)
    chosen: Solution = field(default_factory=lambda: Solution(frozenset(), 0.0))


def beats(x: TaggedValue, threshold: TaggedValue | None) -> bool:
    """Strictly exceed a threshold; the absent threshold means zero, which a
    reward beats only with positive value."""
    if threshold is None:
        return x.value > 0
    return x > threshold


def _threshold_value(threshold: TaggedValue | None) -> float:
    return 0.0 if threshold is None else threshold.value


def rank1_policy(
    samples: Mapping[int, TaggedValue],
    arrivals: Iterable[tuple[int, TaggedValue]],
) -> PolicyTrace:
    """Accept the first reward that beats the largest sample, then stop."""
    threshold = max(samples.values())
    trace = PolicyTrace("rank1", {"global": threshold})
    chosen: set[int] = set()
    total = 0.0
    for element, reward in arrivals:
        if chosen:
            trace.decisions.append(
                PolicyDecision(element, reward, False, "already stopped")
            )
        elif beats(reward, threshold):
            chosen.add(element)
            total += reward.value
            trace.decisions.append(
                PolicyDecision(
                    element, reward, True, "beats max sample", threshold.value
                )
            )
        else:
            trace.decisions.append(
                PolicyDecision(element, reward, False, "below max sample")
            )
    trace.chosen = Solution(frozenset(chosen), total)
    return trace


def matching_thresholds(
    g: GeneralMatching, samples: Mapping[int, TaggedValue]
) -> dict[int, TaggedValue | None]:
    """Vertex thresholds: the sample of the greedy sample-matching edge at
    each vertex, None at unmatched vertices."""
    thresholds: dict[int, TaggedValue | None] = {
        u: None for u in range(g.vertex_count)
    }
    for e in greedy_prophet(g, samples).chosen:
        u, v = g.edges[e]
        thresholds[u] = samples[e]
        thresholds[v] = samples[e]
    return thresholds


def edge_live(
    g: GeneralMatching,
    thresholds: Mapping[int, TaggedValue | None],
    e: int,
    reward: TaggedValue,
) -> bool:
    """Whether edge e's reward beats both endpoint thresholds."""
    u, v = g.edges[e]
    return beats(reward, thresholds[u]) and beats(reward, thresholds[v])


def matching_policy(
    g: GeneralMatching,
    samples: Mapping[int, TaggedValue],
    arrivals: Iterable[tuple[int, TaggedValue]],
) -> PolicyTrace:
    """Vertex thresholds from the greedy matching on samples; accept an edge
    when its reward beats both endpoint thresholds and both endpoints are
    still unmatched online."""
    thresholds = matching_thresholds(g, samples)
    trace = PolicyTrace("matching", dict(thresholds))
    matched: set[int] = set()
    chosen: set[int] = set()
    total = 0.0
    for element, reward in arrivals:
        u, v = g.edges[element]
        if not edge_live(g, thresholds, element, reward):
            trace.decisions.append(
                PolicyDecision(element, reward, False, "below endpoint threshold")
            )
        elif u in matched or v in matched:
            trace.decisions.append(
                PolicyDecision(element, reward, False, "endpoint already matched")
            )
        else:
            matched.update((u, v))
            chosen.add(element)
            total += reward.value
            crit = max(_threshold_value(thresholds[u]), _threshold_value(thresholds[v]))
            trace.decisions.append(
                PolicyDecision(
                    element, reward, True, "beats both endpoint thresholds", crit
                )
            )
    trace.chosen = Solution(frozenset(chosen), total)
    return trace


def transversal_policy(
    t: Transversal,
    samples: Mapping[int, TaggedValue],
    arrivals: Iterable[tuple[int, TaggedValue]],
) -> PolicyTrace:
    """Right-node thresholds from the ordered-maximal matching on samples.

    An arriving element scans its neighbors in the fixed order for the first
    node whose threshold (and its own sample) its reward beats. If that node
    is already matched online the element is skipped.
    """
    offline = greedy_prophet(t, samples)
    thresholds: dict[int, TaggedValue | None] = {
        r: None for r in range(t.right_count)
    }
    assert offline.assignment is not None
    for l, r in offline.assignment.items():
        thresholds[r] = samples[l]
    trace = PolicyTrace("transversal", dict(thresholds))
    taken: set[int] = set()
    chosen: set[int] = set()
    assignment: dict[int, int] = {}
    total = 0.0
    for element, reward in arrivals:
        if not beats(reward, samples[element]):
            trace.decisions.append(
                PolicyDecision(element, reward, False, "below own sample")
            )
            continue
        target = next(
            (r for r in t.sorted_neighbors(element) if beats(reward, thresholds[r])), None
        )
        if target is None or target in taken:
            trace.decisions.append(
                PolicyDecision(
                    element, reward, False, "no admissible free right node"
                )
            )
        else:
            taken.add(target)
            chosen.add(element)
            assignment[element] = target
            total += reward.value
            crit = max(_threshold_value(thresholds[target]), samples[element].value)
            trace.decisions.append(
                PolicyDecision(
                    element, reward, True, f"beats node {target} threshold", crit
                )
            )
    trace.chosen = Solution(frozenset(chosen), total, assignment)
    return trace


def laminar_policy(
    fs: TruncatedPartition,
    samples: Mapping[int, TaggedValue],
    arrivals: Iterable[tuple[int, TaggedValue]],
) -> PolicyTrace:
    """Accept a feasible arrival iff swapping its sample for its reward
    improves the greedy optimum of the sample vector.

    Improvement is decided in the strict tagged order: the reward must beat
    the element's own sample and enter the greedy solution of the swapped
    vector. Under value ties (point masses) this is the tie-broken reading of
    the totals comparison; comparing float totals instead would both reject
    strict tie-token improvements and not be expressible pairwise.
    """
    base = greedy_prophet(fs, samples)
    v0 = base.total
    trace = PolicyTrace("laminar", {"sample-optimum": v0})
    counts = [0] * len(fs.groups)
    taken = 0
    chosen: set[int] = set()
    total = 0.0
    for element, reward in arrivals:
        g = fs.group_of(element)
        if counts[g] >= fs.group_capacities[g] or taken >= fs.total_capacity:
            trace.decisions.append(
                PolicyDecision(element, reward, False, "capacity filled")
            )
            continue
        if not reward > samples[element]:
            trace.decisions.append(
                PolicyDecision(element, reward, False, "below own sample")
            )
            continue
        swapped = dict(samples)
        swapped[element] = reward
        if element in greedy_prophet(fs, swapped).chosen:
            counts[g] += 1
            taken += 1
            chosen.add(element)
            total += reward.value
            crit = v0 - contraction_optimum(fs, element, samples)
            trace.decisions.append(
                PolicyDecision(
                    element, reward, True, "improves sample optimum", crit
                )
            )
        else:
            trace.decisions.append(
                PolicyDecision(element, reward, False, "does not improve sample optimum")
            )
    trace.chosen = Solution(frozenset(chosen), total)
    return trace


def reduction_policy(
    partition: SimplePartition,
    samples: Mapping[int, TaggedValue],
    arrivals: Iterable[tuple[int, TaggedValue]],
) -> PolicyTrace:
    """The partition-based reduction: set each group's threshold to its
    largest sample, then run one first-past-the-threshold instance per group
    in parallel.

    Elements outside the partition's ground set are rejected without their
    reward ever being observed.
    """
    ground = partition.ground_set
    thresholds: dict[int, TaggedValue | None] = {}
    for gi, group in enumerate(partition.groups):
        best = None
        for e in group:
            s = samples[e]
            if best is None or s > best:
                best = s
        thresholds[gi] = best
    trace = PolicyTrace("reduction", dict(thresholds))
    filled: set[int] = set()
    chosen: set[int] = set()
    total = 0.0
    for element, reward in arrivals:
        if element not in ground:
            # The reward stays unread; the trace records no value.
            trace.decisions.append(
                PolicyDecision(element, None, False, "outside partition ground set")
            )
            continue
        gi = partition.group_of(element)
        if gi in filled:
            trace.decisions.append(
                PolicyDecision(element, reward, False, "group already served")
            )
        elif beats(reward, thresholds[gi]):
            filled.add(gi)
            chosen.add(element)
            total += reward.value
            trace.decisions.append(
                PolicyDecision(
                    element, reward, True, f"first to beat group {gi} threshold",
                    _threshold_value(thresholds[gi]),
                )
            )
        else:
            trace.decisions.append(
                PolicyDecision(element, reward, False, "below group threshold")
            )
    trace.chosen = Solution(frozenset(chosen), total)
    return trace


def run_policy(
    policy: str,
    structure: FeasibilityStructure,
    samples: Mapping[int, TaggedValue],
    rewards: Mapping[int, TaggedValue],
    order: Sequence[int],
    *,
    partition: SimplePartition | None = None,
    rng: np.random.Generator | None = None,
) -> PolicyTrace:
    """Dispatch a named policy over an arrival order. reduction-graphic
    draws its vertex-order partition from `rng`; reduction-custom runs on
    `partition`."""
    check_policy(policy, structure, partition)
    arrivals = [(e, rewards[e]) for e in order]
    if policy == "rank1":
        return rank1_policy(samples, arrivals)
    if policy == "matching":
        return matching_policy(structure, samples, arrivals)
    if policy == "transversal":
        return transversal_policy(structure, samples, arrivals)
    if policy == "laminar":
        return laminar_policy(structure, samples, arrivals)
    if policy == "reduction-graphic":
        partition, _sigma = graphic_partition(structure, rng=rng)
    return reduction_policy(partition, samples, arrivals)


def adversarial_order(
    policy: str,
    structure: FeasibilityStructure,
    samples: Mapping[int, TaggedValue],
    rewards: Mapping[int, TaggedValue],
    mode: str,
    *,
    seed: int | None = None,
) -> ArrivalOrder:
    """Produce an arrival order: fixed (by element id), increasing rewards,
    seeded random, or the minimizer of the policy total over all n! orders.

    Thresholds are set offline, so online every policy is a first-come
    greedy over a fixed live set. For the matroid policies (rank1, laminar,
    both reductions) and the literal transversal rule, the increasing order
    collects the minimum-weight outcome and is the minimizer. For matching
    the minimum is a minimum-weight maximal matching of the live edges; its
    edges arrive first, then the rest. Only that search is capped, at the
    subset-table limit EXACT_MODE_CAP that caps it in the batched modes.
    """
    n = len(rewards)
    elements = list(range(n))
    if mode == "fixed":
        return ArrivalOrder(tuple(elements), "fixed")
    if mode == "exhaustive-min" and policy not in POLICY_NAMES:
        raise ValueError(f"unknown policy {policy!r}")
    if mode == "increasing" or (mode == "exhaustive-min" and policy != "matching"):
        elements.sort(key=lambda e: rewards[e].key)
        provenance = "increasing-rewards" if mode == "increasing" else mode
        return ArrivalOrder(tuple(elements), provenance)
    if mode == "random":
        stream = np.random.default_rng(seed)
        return ArrivalOrder(
            tuple(int(e) for e in stream.permutation(n)), f"random({seed})"
        )
    if mode == "exhaustive-min":
        if n > EXACT_MODE_CAP:
            raise CapExceededError(
                f"matching exhaustive-min search capped at n <= {EXACT_MODE_CAP}"
            )
        if not isinstance(structure, GeneralMatching):
            raise TypeError("matching policy needs a general-matching structure")
        thresholds = matching_thresholds(structure, samples)
        live = sum(
            1 << e for e in elements
            if edge_live(structure, thresholds, e, rewards[e])
        )
        vmasks = [(1 << u) | (1 << v) for u, v in structure.edges]
        acc = min_maximal_matching(live, vmasks, [rewards[e].value for e in elements])
        first = [e for e in elements if (acc >> e) & 1]
        rest = [e for e in elements if not (acc >> e) & 1]
        return ArrivalOrder(tuple(first + rest), "exhaustive-min")
    raise ValueError(f"unknown arrival-order mode {mode!r}")


def min_maximal_matching(live: int, vmasks, xvals) -> int:
    """Accepted mask of a minimum-weight maximal matching of the live edges.

    First-come acceptance over a fixed live set ends in a maximal matching of
    the live subgraph under every arrival order, and any maximal matching is
    reached by letting its edges arrive first; so this is the adversary's
    minimum over all orders. It walks the matchings of the live subgraph
    (at most 2**live of them) instead of live! orders. Totals are exact
    integer sums (`exact_integers`), so float near ties cannot pick a
    heavier set. Rewards are non-negative, so a partial total at or above
    the best one is cut. The batched modes search with
    `exact.min_maximal_accepts` instead.
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
