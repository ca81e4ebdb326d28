"""Order-oblivious posted-price mechanisms with lazy sample reserves.

The mechanism runs a single-sample policy with one sample vector as pricing
information against the valuations, then drops any winner whose valuation
falls below an independent second sample (the lazy reserve). A surviving
winner pays the larger of the critical price it beat at acceptance and its
reserve. Only the allocation filter is forced by the welfare analysis; the
payment rule is a design choice here, and every report flags it.

`estimate_mechanism_ratios` evaluates each chunk of MC_CHUNK trials as one
batch on the walks and replay kernels of Monte Carlo `simulate`: the pricing
values are the samples and the valuations the rewards of a `TrialBatch`.
Trial t draws from its own stream (seed, t) in the order of the scalar
`run_opm` loop (per element pricing, reserve and valuation, each a value
and its token; then reduction-graphic's vertex order), and chunk sums merge
in chunk order. `run_opm` over the traced policies is the per-trial
reference.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import Distribution, TaggedValue, TrialDraws, draw_trials
from .exact import TrialBatch, group_ids
from .instances import Instance
from .policies import POLICY_STRUCTURES, PolicyTrace, check_policy, run_policy
from .harness import (
    _accepted_runs, _fmt_float, _reduction_groupings, _ratio, mc_summary, optimum_totals,
    run_chunks,
)

PAYMENT_RULE = "max(critical-price-at-acceptance, lazy-reserve)"
MECHANISM_LAYOUT = "vtvtvt"  # per element: pricing, reserve, valuation; each value, token
IR_SLACK = 1e-9  # relative and absolute float dust allowed on individual rationality

# Welfare bounds for mechanisms built from each policy under the hazard-rate
# regime: twice the policy's competitive ratio (the reserve filter halves the
# welfare at worst).
WELFARE_BOUNDS = {
    "rank1": 4.0,
    "matching": 64.0,
    "transversal": 16.0,
    "laminar": 16.0,
    "reduction-graphic": 8.0,
}


class RegimeError(ValueError):
    """The run cannot be labeled against a table bound."""


@dataclass(frozen=True)
class MechanismOutcome:
    winners: frozenset[int]
    trace: PolicyTrace
    reserves: dict[int, float]
    payments: dict[int, float]
    welfare: float
    revenue: float
    payment_rule: str = PAYMENT_RULE


def run_opm(
    instance: Instance,
    policy: str,
    pricing: Mapping[int, TaggedValue],
    reserve: Mapping[int, TaggedValue],
    valuations: Mapping[int, TaggedValue],
    order: Sequence[int],
    rng: np.random.Generator | None = None,
) -> MechanismOutcome:
    """Two-step mechanism: select winners with the policy on the pricing
    sample, then keep only winners whose valuation meets their lazy reserve.
    """
    n = instance.ground_size
    if not (len(pricing) == len(reserve) == len(valuations) == n):
        raise ValueError("pricing, reserve, and valuation vectors must cover the ground set")
    trace = run_policy(
        policy, instance.structure, pricing, valuations, order,
        partition=instance.partition, rng=rng,
    )
    critical = {
        d.element: d.critical_value
        for d in trace.decisions
        if d.accepted and d.critical_value is not None
    }
    winners: set[int] = set()
    payments: dict[int, float] = {}
    welfare = 0.0
    for e in trace.chosen.chosen:
        v = valuations[e].value
        r_hat = reserve[e].value
        if v < r_hat:
            continue
        winners.add(e)
        welfare += v
        pay = max(critical.get(e, 0.0), r_hat)
        # Critical prices are recomputed totals; shave float dust but never
        # hide a genuine rule violation.
        if pay > v * (1 + IR_SLACK) + IR_SLACK:
            raise RuntimeError(
                f"individual rationality violated: element {e} pays {pay!r} "
                f"above its valuation {v!r}"
            )
        payments[e] = min(pay, v)
    return MechanismOutcome(
        winners=frozenset(winners),
        trace=trace,
        reserves={e: reserve[e].value for e in range(n)},
        payments=payments,
        welfare=welfare,
        revenue=sum(payments.values()),
    )


def optimal_posted_price_revenue(
    distributions: Mapping[int, Distribution], grid_points: int = 4000
) -> tuple[float, float]:
    """Exact-by-grid single-item benchmark: the posted price maximizing
    price * P[some agent's valuation reaches it]."""
    candidates: set[float] = set()
    hi = 0.0
    for d in distributions.values():
        if d.kind == "point-mass":
            candidates.add(d.params[0])
            hi = max(hi, d.params[0])
        elif d.kind == "discrete":
            candidates.update(d.atoms)
            hi = max(hi, max(d.atoms))
        elif d.kind == "uniform":
            hi = max(hi, d.params[1])
        else:
            hi = max(hi, -math.log(1e-9) / d.params[0])
    grid = np.linspace(0.0, hi, grid_points + 1).tolist()
    best_price, best_revenue = 0.0, 0.0
    for p in sorted(set(grid) | candidates):
        miss = 1.0
        for d in distributions.values():
            miss *= 1.0 - d.prob_at_least(p)
        revenue = p * (1.0 - miss)
        if revenue > best_revenue:
            best_price, best_revenue = p, revenue
    return best_price, best_revenue


# ---------------------------------------------------------------------------
# The batched mechanism
# ---------------------------------------------------------------------------


def _laminar_critical(batch: TrialBatch, accepted: np.ndarray) -> np.ndarray:
    """v0 - contraction_optimum for each accepted element: the greedy
    optimum of the samples minus the best sample set that leaves one slot of
    the element's group and of the total capacity free. Both greedy walks
    go down the samples in path order and add their values one at a time,
    as `matroid_greedy_opt` and `contraction_optimum` do."""
    fs = batch.structure
    group_of = group_ids(fs.groups, batch.n)
    caps = np.array(fs.group_capacities)
    samples = ~batch.heads
    v0 = np.cumsum(np.where(samples & batch.free("T"), batch.w_val, 0.0), axis=0)[-1]
    critical = np.zeros(accepted.shape)
    for e in np.flatnonzero(accepted.any(axis=1)):
        cols = np.flatnonzero(accepted[e])
        k = np.arange(len(cols))
        room = np.repeat(caps[:, None], len(cols), axis=1)
        room[group_of[e]] -= 1
        total_room = np.full(len(cols), fs.total_capacity - 1)
        value = np.zeros(len(cols))
        for j in range(batch.length):
            el = batch.elem[j, cols]
            g = group_of[el]
            take = samples[j, cols] & (el != e) & (room[g, k] > 0) & (total_room > 0)
            room[g, k] -= take
            total_room -= take
            value += np.where(take, batch.w_val[j, cols], 0.0)
        critical[e, cols] = v0[cols] - value
    return critical


def critical_prices(
    batch: TrialBatch, policy: str, accepted: np.ndarray, groupings
) -> np.ndarray:
    """(n, trials) the price each accepted element beat, the traced
    decisions' `critical_value`, read from the path-rank thresholds: the
    group's largest sample for rank1 and the reductions, the larger endpoint
    threshold for matching, the larger of the target node's threshold and
    the element's own sample for transversal. Entries of elements not
    accepted are meaningless."""
    fs = batch.structure
    if policy == "laminar":
        return _laminar_critical(batch, accepted)
    if policy == "matching":
        th = batch.matching_vertex_thresholds()
        u, v = np.array(fs.edges, dtype=np.int64).reshape(-1, 2).T
        idx = np.minimum(th[u], th[v])
    elif policy == "transversal":
        targets = np.maximum(batch.transversal_targets(), 0)
        node = np.take_along_axis(batch.transversal_r_thresholds(), targets, axis=0)
        idx = np.minimum(node, batch.sample_indices())
    else:
        group, count = groupings[0] if groupings else (np.zeros(batch.n, dtype=np.int64), 1)
        group = np.broadcast_to(np.asarray(group).reshape(batch.n, -1), accepted.shape)
        idx = np.take_along_axis(batch.group_thresholds(group, count), group, axis=0)
    # Each index holds a sample: the element's own group holds its sample, a
    # maximal sample matching covers an endpoint of every edge, and a
    # transversal element's own sample bounds its price.
    return batch.values_at(idx)


@dataclass
class MechanismTrials:
    """Per-trial results of one batch of mechanism trials: (n, trials)
    arrays by element and (trials,) totals."""

    batch: TrialBatch  # pricing as the samples, valuations as the rewards
    vertex_ranks: np.ndarray | None  # reduction-graphic: (vertices, trials)
    reserves: np.ndarray
    accepted: np.ndarray  # the policy's picks, before the reserve filter
    winners: np.ndarray
    payments: np.ndarray  # 0 outside the winners
    welfare: np.ndarray
    revenue: np.ndarray
    opt: np.ndarray


def mechanism_trials(
    instance: Instance, policy: str, seed: int, trials: range
) -> MechanismTrials:
    """Run the mechanism on the given trials as one batch, under the
    increasing-valuation order."""
    fs = instance.structure
    n = instance.ground_size
    sizes = [fs.vertex_count] if policy == "reduction-graphic" else []
    draws = draw_trials(
        [instance.distributions[e] for e in range(n)], seed, trials, sizes, MECHANISM_LAYOUT
    )
    pricing, reserves, valuations = np.split(draws.values, 3)
    pricing_tokens, _, valuation_tokens = np.split(draws.tokens, 3)
    # Heads makes the larger value the reward, so the valuation is the reward
    # unless its pricing sample beats it in the tagged order.
    beaten = (pricing > valuations) | (
        (pricing == valuations) & (pricing_tokens > valuation_tokens)
    )
    batch = TrialBatch(fs, TrialDraws(
        np.concatenate([pricing, valuations]),
        np.concatenate([pricing_tokens, valuation_tokens]),
        ~beaten, (),
    ))
    ridx = batch.reward_indices()
    ranks, groupings = _reduction_groupings(instance, policy, draws)
    (accepted,) = _accepted_runs(batch, policy, np.argsort(-ridx, axis=0), False, groupings)
    winners = accepted & ~(valuations < reserves)
    pay = np.maximum(critical_prices(batch, policy, accepted, groupings), reserves)
    over = winners & (pay > valuations * (1 + IR_SLACK) + IR_SLACK)
    if over.any():
        e, t = (int(i[0]) for i in np.nonzero(over))
        raise RuntimeError(
            f"individual rationality violated: element {e} pays {pay[e, t]!r} "
            f"above its valuation {valuations[e, t]!r} in trial {trials[t]}"
        )
    payments = np.where(winners, np.minimum(pay, valuations), 0.0)
    # cumsum adds the elements one at a time, as the scalar loop adds floats
    # (numpy's sum pairs them up).
    return MechanismTrials(
        batch=batch,
        vertex_ranks=ranks,
        reserves=reserves,
        accepted=accepted,
        winners=winners,
        payments=payments,
        welfare=np.cumsum(np.where(winners, valuations, 0.0), axis=0)[-1],
        revenue=np.cumsum(payments, axis=0)[-1],
        opt=optimum_totals(batch, ridx)[0],
    )


def _mechanism_chunk(args) -> np.ndarray:
    """Welfare, revenue and E_OPT sums, each with its sum of squares, over
    one chunk, added trial by trial. Squares use Python's `**` (C pow),
    which can differ from x * x in the last bit, as the scalar loop did."""
    (instance, policy, seed, start, stop) = args
    out = mechanism_trials(instance, policy, seed, range(start, stop))
    rows = []
    for x in (out.welfare, out.revenue, out.opt):
        rows += [x, np.array([v**2 for v in x.tolist()])]
    return np.cumsum(rows, axis=1)[:, -1]


@dataclass(frozen=True)
class MechanismReport:
    policy: str
    regime: str
    trials: int
    seed: int
    welfare_ratio: float
    welfare_ratio_halfwidth: float
    mech_welfare: float
    opt_welfare: float
    revenue: float
    revenue_ratio: float
    revenue_benchmark: float
    revenue_benchmark_kind: str  # "posted-price-optimal" or "welfare-optimum-upper-bound"
    table_bound: float | None
    payment_rule: str
    wall_ms: float
    instance: str = ""


def estimate_mechanism_ratios(
    instance: Instance,
    policy: str,
    trials: int = 10000,
    seed: int = 0,
    regime: str | None = None,
) -> MechanismReport:
    """Monte Carlo welfare (and revenue) ratios of the two-step mechanism.

    Requires a regime label: either every distribution is flagged with the
    monotone hazard rate, or the caller declares identical-regular agents.
    Arrivals use the increasing-valuation order. Revenue is benchmarked
    against the optimal posted price for single-item instances and against
    the welfare optimum (an upper bound, labeled as such) otherwise.
    """
    start_time = time.perf_counter()
    check_policy(policy, instance.structure, instance.partition)
    if trials < 1:
        raise ValueError("need trials >= 1")
    resolved = regime or instance.regime()
    if resolved is None:
        raise RegimeError(
            "no regime: need all distributions flagged mhr, or an explicit "
            "identical-regular declaration"
        )
    if resolved == "iid-regular":
        dists = list(instance.distributions.values())
        if any(d != dists[0] for d in dists):
            raise RegimeError("identical-regular declared but distributions differ")
    elif resolved != "mhr":
        raise RegimeError(f"unknown regime {resolved!r}")
    if resolved == "mhr" and not all(d.mhr for d in instance.distributions.values()):
        raise RegimeError("mhr regime needs every distribution flagged mhr")

    sums = np.zeros(6)  # welfare, welfare^2, revenue, revenue^2, opt, opt^2
    for partial in run_chunks(_mechanism_chunk, trials, (instance, policy, seed)):
        sums += partial
    means, hw = mc_summary(sums, trials)
    mech_w, revenue, opt_w = (float(x) for x in means)
    welfare_ratio = _ratio(opt_w, mech_w)
    if mech_w > 0 and opt_w > 0:
        rel = math.sqrt((hw[0] / mech_w) ** 2 + (hw[2] / opt_w) ** 2)
        welfare_hw = welfare_ratio * rel
    else:  # 0/0 is ratio 1 with no spread; x/0 is an unbounded ratio
        welfare_hw = 0.0 if mech_w == opt_w == 0 else float("inf")
    if POLICY_STRUCTURES["rank1"](instance.structure):
        _, benchmark = optimal_posted_price_revenue(instance.distributions)
        benchmark_kind = "posted-price-optimal"
    else:
        benchmark = opt_w
        benchmark_kind = "welfare-optimum-upper-bound"
    revenue_ratio = _ratio(benchmark, revenue)
    if policy == "reduction-custom":
        bound = None if instance.partition_alpha is None else 4.0 * instance.partition_alpha
    else:
        bound = WELFARE_BOUNDS.get(policy)
    wall_ms = (time.perf_counter() - start_time) * 1000.0
    return MechanismReport(
        policy=policy,
        regime=resolved,
        trials=trials,
        seed=seed,
        welfare_ratio=welfare_ratio,
        welfare_ratio_halfwidth=welfare_hw,
        mech_welfare=mech_w,
        opt_welfare=opt_w,
        revenue=revenue,
        revenue_ratio=revenue_ratio,
        revenue_benchmark=benchmark,
        revenue_benchmark_kind=benchmark_kind,
        table_bound=bound,
        payment_rule=PAYMENT_RULE,
        wall_ms=wall_ms,
        instance=instance.name,
    )


MECHANISM_CSV_HEADER = (
    "policy", "regime", "trials", "welfare_ratio", "welfare_ratio_halfwidth",
    "mech_welfare", "opt_welfare", "revenue", "revenue_ratio",
    "revenue_benchmark", "revenue_benchmark_kind", "table_bound",
    "payment_rule", "seed", "wall_ms",
)


def mechanism_report_fields(report: MechanismReport) -> dict[str, object]:
    return {
        "policy": report.policy,
        "regime": report.regime,
        "trials": report.trials,
        "welfare_ratio": _fmt_float(report.welfare_ratio),
        "welfare_ratio_halfwidth": _fmt_float(report.welfare_ratio_halfwidth),
        "mech_welfare": _fmt_float(report.mech_welfare),
        "opt_welfare": _fmt_float(report.opt_welfare),
        "revenue": _fmt_float(report.revenue),
        "revenue_ratio": _fmt_float(report.revenue_ratio),
        "revenue_benchmark": _fmt_float(report.revenue_benchmark),
        "revenue_benchmark_kind": report.revenue_benchmark_kind,
        "table_bound": "" if report.table_bound is None else _fmt_float(report.table_bound),
        "payment_rule": report.payment_rule,
        "seed": report.seed,
        "wall_ms": round(report.wall_ms, 3),
    }
