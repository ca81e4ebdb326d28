"""Order-oblivious posted-price mechanisms with lazy sample reserves.

The mechanism runs a single-sample policy with one sample vector as pricing
information against the valuations, then drops any winner whose valuation
falls below an independent second sample (the lazy reserve). A surviving
winner pays the larger of the critical price it beat at acceptance and its
reserve. Only the allocation filter is forced by the welfare analysis; the
payment rule is a design choice here, and every report flags it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import Distribution, TaggedValue, trial_rng
from .feasibility import exact_optimum
from .instances import Instance
from .policies import POLICY_STRUCTURES, PolicyTrace, check_policy, run_policy
from .harness import _fmt_float, _ratio, mc_summary

PAYMENT_RULE = "max(critical-price-at-acceptance, lazy-reserve)"

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
        assert pay <= v * (1 + 1e-9) + 1e-9, (pay, v)
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

    n = instance.ground_size
    sums = np.zeros(6)  # welfare, welfare^2, revenue, revenue^2, opt, opt^2
    for t in range(trials):
        rng = trial_rng(seed, t)
        pricing = {}
        reserve = {}
        valuations = {}
        for e in range(n):
            d = instance.distributions[e]
            pricing[e] = TaggedValue(d.sample(rng), rng.random(), e)
            reserve[e] = TaggedValue(d.sample(rng), rng.random(), e)
            valuations[e] = TaggedValue(d.sample(rng), rng.random(), e)
        order = tuple(sorted(range(n), key=lambda e: valuations[e].key))
        outcome = run_opm(instance, policy, pricing, reserve, valuations, order, rng=rng)
        opt = exact_optimum(instance.structure, valuations).total
        sums += (
            outcome.welfare, outcome.welfare**2,
            outcome.revenue, outcome.revenue**2,
            opt, opt**2,
        )
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
