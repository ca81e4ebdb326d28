"""Order-oblivious posted-price mechanisms with lazy sample reserves.

The mechanism runs a single-sample policy with one sample vector as pricing
information against the valuations, then drops any winner whose valuation
falls below an independent second sample (the lazy reserve). A surviving
winner pays the larger of the critical price it beat at acceptance and its
reserve. Only the allocation filter is forced by the welfare analysis; the
payment rule is a design choice here, and every report flags it.

`estimate_mechanism_ratios` evaluates each chunk of MC_CHUNK trials as one
batch through the batched policies of Monte Carlo `simulate`
(`exact.policy_run`, on the partitions of `exact.reduction_partitions`):
the valuations are draw 0 of a `TrialBatch` with no coins, so they are its
rewards and the pricing values its samples, and a winner's critical price is
the one its run gives (`PolicyRun.price`): the threshold it beat, or for
laminar the sample optimum minus the contraction optimum.
Trial t draws from its own stream (seed, t) in the order of the scalar
`run_opm` loop (per element pricing, reserve and valuation, each a value
and its token); reduction-graphic's vertex orders come from the chunk's
vertex-order stream (`core.chunk_orders`), and chunk sums merge in chunk
order. `run_opm` over the traced policies is the per-trial reference,
handed each trial's vertex order as its partition.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    VERTEX_ORDERS,
    Distribution,
    InputError,
    TaggedValue,
    TrialDraws,
    chunk_orders,
    draw_trials,
)
from .exact import TrialBatch, policy_run, reduction_partitions
from .instances import Instance
from .policies import POLICY_STRUCTURES, PolicyTrace, check_policy, run_policy
from .harness import competitive_ratio, fmt_float, mc_summary, optimum_totals, run_chunks

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
    prices = np.array(sorted(set(grid) | candidates))
    miss = np.ones(len(prices))
    for d in distributions.values():
        miss *= 1.0 - d.prob_at_least(prices)
    revenue = prices * (1.0 - miss)
    best = int(np.argmax(revenue))  # the first of equal maxima
    if revenue[best] <= 0.0:
        return 0.0, 0.0
    return float(prices[best]), float(revenue[best])


# ---------------------------------------------------------------------------
# The batched mechanism
# ---------------------------------------------------------------------------


@dataclass
class MechanismTrials:
    """Per-trial results of one batch of mechanism trials: (n, trials)
    arrays by element and (trials,) totals."""

    batch: TrialBatch  # pricing as the samples, valuations as the rewards
    vertex_ranks: np.ndarray | None  # reduction-graphic: (touched vertices, trials)
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
    draws = draw_trials(
        [instance.distributions[e] for e in range(n)], seed, trials, MECHANISM_LAYOUT
    )
    pricing, reserves, valuations = np.split(draws.values, 3)
    # Draws with no coins make draw 0, here the valuation, the reward.
    rows = np.r_[2 * n:3 * n, :n]  # valuations, then pricing
    batch = TrialBatch(fs, TrialDraws(draws.values[rows], draws.tokens[rows], None))
    ranks = None
    if policy == "reduction-graphic":
        ranks = chunk_orders(seed, trials, fs.edge_ends[0], VERTEX_ORDERS)
    ((grouping, _),) = reduction_partitions(instance, policy, ranks)
    run = policy_run(batch, policy, "increasing", grouping)
    accepted = run.accepted
    winners = accepted & ~(valuations < reserves)
    pay = np.maximum(run.price(), reserves)
    over = winners & (pay > valuations * (1 + IR_SLACK) + IR_SLACK)
    if over.any():
        e, t = (int(i[0]) for i in np.nonzero(over))
        raise RuntimeError(
            f"individual rationality violated: element {e} pays {pay[e, t]!r} "
            f"above its valuation {valuations[e, t]!r} in trial {trials[t]}"
        )
    payments = np.minimum(pay, valuations) * winners
    # cumsum adds the elements one at a time, as the scalar loop adds floats
    # (numpy's sum pairs them up).
    return MechanismTrials(
        batch=batch,
        vertex_ranks=ranks,
        reserves=reserves,
        accepted=accepted,
        winners=winners,
        payments=payments,
        welfare=np.cumsum(valuations * winners, axis=0)[-1],
        revenue=np.cumsum(payments, axis=0)[-1],
        opt=optimum_totals(batch)[0],
    )


def _mechanism_chunk(args) -> np.ndarray:
    """Welfare, revenue and E_OPT sums, each with its sum of squares, over
    one chunk, added trial by trial. Squares use Python's `**` (C pow),
    which can differ from x * x in the last bit, as the scalar loop did.
    Sums that overflow are left to `mc_summary` to reject, with no
    warning."""
    (instance, policy, seed, start, stop) = args
    with np.errstate(over="ignore", invalid="ignore"):
        out = mechanism_trials(instance, policy, seed, range(start, stop))
        rows = []
        for x in (out.welfare, out.revenue, out.opt):
            try:
                squares = np.array([v**2 for v in x.tolist()])
            except OverflowError:  # `**` raises past the float range
                squares = np.full(len(x), np.inf)
            rows += [x, squares]
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
        raise InputError("--trials", "need trials >= 1")
    # The run must be labeled against a table bound.
    resolved = regime or instance.regime()
    if resolved is None:
        raise InputError(
            "--regime", "no regime: need all distributions flagged mhr, or an "
            "explicit identical-regular declaration"
        )
    if resolved == "iid-regular":
        dists = list(instance.distributions.values())
        if any(d != dists[0] for d in dists):
            raise InputError("--regime", "identical-regular declared but distributions differ")
    elif resolved != "mhr":
        raise InputError("--regime", f"unknown regime {resolved!r}")
    if resolved == "mhr" and not all(d.mhr for d in instance.distributions.values()):
        raise InputError("--regime", "mhr regime needs every distribution flagged mhr")

    # welfare, welfare^2, revenue, revenue^2, opt, opt^2
    partials = run_chunks(_mechanism_chunk, trials, (instance, policy, seed))
    means, hw = mc_summary(partials, trials)
    mech_w, revenue, opt_w = (float(x) for x in means)
    welfare_ratio = competitive_ratio(opt_w, mech_w)
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
    revenue_ratio = competitive_ratio(benchmark, revenue)
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
        "welfare_ratio": fmt_float(report.welfare_ratio),
        "welfare_ratio_halfwidth": fmt_float(report.welfare_ratio_halfwidth),
        "mech_welfare": fmt_float(report.mech_welfare),
        "opt_welfare": fmt_float(report.opt_welfare),
        "revenue": fmt_float(report.revenue),
        "revenue_ratio": fmt_float(report.revenue_ratio),
        "revenue_benchmark": fmt_float(report.revenue_benchmark),
        "revenue_benchmark_kind": report.revenue_benchmark_kind,
        "table_bound": "" if report.table_bound is None else fmt_float(report.table_bound),
        "payment_rule": report.payment_rule,
        "seed": report.seed,
        "wall_ms": round(report.wall_ms, 3),
    }
