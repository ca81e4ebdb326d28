"""Experiment harness: exact and Monte Carlo competitive-ratio estimation,
the star-graph tight example, and report emission.

Exact mode draws one realization set from the instance, enumerates all 2**n
coin configurations, and reports expectations as exact rationals; the
worst-case adversary minimizes the policy total per configuration. Monte
Carlo mode draws fresh realizations per trial with per-trial seed streams
derived from (seed, trial), so results are reproducible under any worker
count; trials are summed in fixed-size chunks merged in chunk order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .core import CapExceededError, TaggedValue, assign_coins, trial_rng
from .exact import (
    ConfigEnsemble,
    bitmask_rows,
    min_maximal_matching,
    replay_matching,
    replay_transversal,
    replay_truncated,
)
from .feasibility import (
    GeneralMatching,
    Graphic,
    SimplePartition,
    Transversal,
    TruncatedPartition,
    exact_optimum,
    graphic_partition,
    greedy_prophet,
    optimal_matching,
    optimal_transversal,
)
from .instances import Instance
from .policies import (
    ORDER_SEARCH_CAP,
    PartitionScheme,
    adversarial_order,
    fixed_partition_scheme,
    graphic_scheme,
    run_policy,
)

EXACT_MODE_CAP = 16
EXACT_SIGMA_VERTEX_CAP = 6
MC_CHUNK = 2048
WORKERS_ENV = "SSPILAB_WORKERS"

CSV_HEADER = (
    "policy", "adversary", "mode", "e_alg", "e_opt", "e_opt_prime",
    "ratio", "ci", "seed", "wall_ms",
)

EXACT_ADVERSARIES = ("fixed", "increasing", "exhaustive-min")
MC_ADVERSARIES = ("fixed", "increasing", "random", "exhaustive-min")


@dataclass(frozen=True)
class RatioReport:
    policy: str
    adversary: str
    mode: str  # "exact" or "mc"
    e_alg: Fraction | float
    e_opt: Fraction | float
    e_opt_prime: Fraction | float
    ratio: float
    ci: float | None
    seed: int
    wall_ms: float
    trials: int | None = None
    z_violations: int = 0
    instance: str = ""


def worker_count(workers: int | None = None) -> int:
    if workers is not None:
        return max(1, workers)
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _ratio(e_opt, e_alg) -> float:
    if e_alg == 0:
        return float("inf") if e_opt > 0 else 1.0
    return float(e_opt / e_alg) if isinstance(e_opt, Fraction) else e_opt / e_alg


def _scheme_for(instance: Instance, policy: str) -> PartitionScheme | None:
    if policy == "reduction-graphic":
        return graphic_scheme()
    if policy == "reduction-custom":
        if instance.partition is None or instance.partition_alpha is None:
            raise ValueError("reduction-custom needs a partition block in the instance")
        return fixed_partition_scheme(instance.partition, instance.partition_alpha)
    return None


def _check_policy_structure(instance: Instance, policy: str) -> None:
    s = instance.structure
    ok = {
        "rank1": isinstance(s, TruncatedPartition) and s.total_capacity == 1,
        "matching": isinstance(s, GeneralMatching),
        "transversal": isinstance(s, Transversal),
        "laminar": isinstance(s, TruncatedPartition),
        "reduction-graphic": isinstance(s, Graphic),
        "reduction-custom": isinstance(s, (TruncatedPartition, SimplePartition, Graphic)),
    }.get(policy)
    if ok is None:
        raise ValueError(f"unknown policy {policy!r}")
    if not ok:
        raise TypeError(f"policy {policy!r} does not apply to {type(s).__name__}")


# ---------------------------------------------------------------------------
# Exact mode
# ---------------------------------------------------------------------------


def _reward_matrices(ens: ConfigEnsemble):
    n = ens.n
    xval = np.empty((n, ens.num_configs))
    xtb = np.empty((n, ens.num_configs))
    ridx = np.empty((n, ens.num_configs), dtype=np.int64)
    for e in ens.elements:
        trip = ens.reward_triple(e)
        b = ens.bit_of[e]
        xval[b] = trip.val
        xtb[b] = trip.tb
        ridx[b] = ens.reward_index(e)
    return xval, xtb, ridx


def _increasing_orders(ens: ConfigEnsemble, xval, xtb) -> list[list[int]]:
    orders = []
    for c in range(ens.num_configs):
        xv = xval[:, c]
        xt = xtb[:, c]
        orders.append(sorted(range(ens.n), key=lambda e: (xv[e], xt[e], e)))
    return orders


class ExactAccumulator:
    """Per-reward-index acceptance counts turned into exact expectations."""

    def __init__(self, ens: ConfigEnsemble, weight: int = 1) -> None:
        self.ens = ens
        self.counts = [0] * ens.length
        self.z_violations = 0
        self.weight = weight  # total number of (randomness, config) cells

    def record(self, config: int, acc: int, ridx_col) -> None:
        bit = 0
        rest = acc
        while rest:
            if rest & 1:
                self.counts[ridx_col[bit]] += 1
            rest >>= 1
            bit += 1
        self.z_violations += bin(acc & ~config).count("1")

    def expectation(self) -> Fraction:
        total = Fraction(0)
        for j, cnt in enumerate(self.counts):
            if cnt:
                total += Fraction(float(self.ens.w_val[j])) * cnt
        return total / self.weight


def _order_for(ens, adversary, inc_orders, c):
    """The arrival order of configuration c: by element id for `fixed`, by
    increasing reward otherwise (the minimizer outside matching)."""
    if adversary == "fixed":
        return range(ens.n)
    return inc_orders[c]


def _exact_alg(
    ens: ConfigEnsemble,
    policy: str,
    adversary: str,
    instance: Instance,
    xval,
    xtb,
    ridx,
) -> tuple[Fraction, int]:
    fs = ens.structure
    n = ens.n
    num_c = ens.num_configs
    # Outside matching, the increasing order is the exhaustive-min minimizer
    # (see policies.adversarial_order); matching searches per configuration.
    searching = policy == "matching" and adversary == "exhaustive-min"
    if searching and n > ORDER_SEARCH_CAP:
        raise CapExceededError(
            f"exhaustive-min order search capped at n <= {ORDER_SEARCH_CAP}"
        )
    inc_orders = (
        _increasing_orders(ens, xval, xtb)
        if adversary != "fixed" and not searching
        else None
    )

    if policy == "reduction-graphic":
        return _exact_alg_reduction_graphic(
            ens, adversary, inc_orders, xval, xtb, ridx
        )

    if policy == "matching":
        ex_masks = bitmask_rows(ens.matching_exceeds())
        vmasks = [
            (1 << fs.edges[e][0]) | (1 << fs.edges[e][1]) for e in range(n)
        ]
    elif policy == "transversal":
        targets = ens.transversal_targets()
    elif policy == "laminar":
        accept_flags, _ = ens.laminar_accepts()
        acc_masks = bitmask_rows(accept_flags)
        group_of = fs.group_index
        caps = fs.group_capacities
        total_cap = fs.total_capacity
    elif policy == "rank1":
        acc_masks = bitmask_rows(ens.rank1_exceeds())
        group_of = {e: 0 for e in range(n)}
        caps = (1,)
        total_cap = 1
    elif policy == "reduction-custom":
        partition = instance.partition
        assert partition is not None
        group_of = partition.group_index
        caps = tuple(1 for _ in partition.groups)
        total_cap = max(1, len(partition.groups))
        acc_masks = _custom_reduction_accepts(ens, partition)
    else:
        raise ValueError(f"policy {policy!r} has no exact evaluator")

    acc_counts = ExactAccumulator(ens, weight=num_c)
    for c in range(num_c):
        xv = xval[:, c].tolist()
        if searching:
            acc = min_maximal_matching(ex_masks[c], vmasks, xv)
        else:
            order = _order_for(ens, adversary, inc_orders, c)
            if policy == "matching":
                _, acc = replay_matching(order, ex_masks[c], vmasks, xv)
            elif policy == "transversal":
                _, acc = replay_transversal(order, targets[:, c].tolist(), xv)
            else:
                _, acc = replay_truncated(
                    order, acc_masks[c], group_of, caps, total_cap, xv
                )
        acc_counts.record(c, acc, ridx[:, c])
    return acc_counts.expectation(), acc_counts.z_violations


def _custom_reduction_accepts(ens: ConfigEnsemble, partition: SimplePartition) -> list[int]:
    from .exact import _Triple  # sentinel triples for absent thresholds

    flags = np.zeros((ens.n, ens.num_configs), dtype=bool)
    for group in partition.groups:
        if not group:
            continue
        thr = _Triple.sentinel(ens.num_configs)
        for e in group:
            thr = thr.maximum(ens.sample_triple(e))
        for e in group:
            flags[ens.bit_of[e]] = ens.reward_triple(e).gt(thr)
    return bitmask_rows(flags)


def _exact_alg_reduction_graphic(
    ens: ConfigEnsemble, adversary, inc_orders, xval, xtb, ridx
) -> tuple[Fraction, int]:
    fs = ens.structure
    if fs.vertex_count > EXACT_SIGMA_VERTEX_CAP:
        raise CapExceededError(
            f"exact vertex-order enumeration capped at {EXACT_SIGMA_VERTEX_CAP} vertices"
        )
    n = ens.n
    num_c = ens.num_configs
    sample_triples = [ens.sample_triple(e) for e in range(n)]
    reward_triples = [ens.reward_triple(e) for e in range(n)]
    sigmas = list(permutations(range(fs.vertex_count)))
    acc_counts = ExactAccumulator(ens, weight=num_c * len(sigmas))
    from .exact import _Triple

    for sigma in sigmas:
        partition, _ = graphic_partition(fs, sigma=sigma)
        group_of = partition.group_index
        caps = tuple(1 for _ in partition.groups)
        flags = np.zeros((n, num_c), dtype=bool)
        for group in partition.groups:
            if not group:
                continue
            thr = _Triple.sentinel(num_c)
            for e in group:
                thr = thr.maximum(sample_triples[e])
            for e in group:
                flags[e] = reward_triples[e].gt(thr)
        acc_masks = bitmask_rows(flags)
        for c in range(num_c):
            _, acc = replay_truncated(
                _order_for(ens, adversary, inc_orders, c), acc_masks[c],
                group_of, caps, len(caps), xval[:, c].tolist(),
            )
            acc_counts.record(c, acc, ridx[:, c])
    return acc_counts.expectation(), acc_counts.z_violations


def _exact_opt_prime(ens: ConfigEnsemble) -> Fraction:
    counts = (ens.heads & ens.free("H")).sum(axis=1)
    total = Fraction(0)
    for j in range(ens.length):
        if counts[j]:
            total += Fraction(float(ens.w_val[j])) * int(counts[j])
    return total / ens.num_configs


def _exact_opt(ens: ConfigEnsemble, xval, xtb, ridx) -> Fraction:
    fs = ens.structure
    if not isinstance(fs, (GeneralMatching, Transversal)):
        return _exact_opt_prime(ens)  # matroid greedy is exact
    counts = [0] * ens.length
    for c in range(ens.num_configs):
        weights = {
            e: TaggedValue(float(xval[e, c]), float(xtb[e, c]), e)
            for e in range(ens.n)
        }
        sol = (
            optimal_matching(fs, weights)
            if isinstance(fs, GeneralMatching)
            else optimal_transversal(fs, weights)
        )
        for e in sol.chosen:
            counts[int(ridx[e, c])] += 1
    total = Fraction(0)
    for j, cnt in enumerate(counts):
        if cnt:
            total += Fraction(float(ens.w_val[j])) * cnt
    return total / ens.num_configs


def estimate_ratio_exact(
    instance: Instance,
    policy: str,
    adversary: str = "increasing",
    seed: int = 0,
) -> RatioReport:
    """Exact expectations over all configurations for one drawn realization
    set, with the adversary minimizing per configuration when asked."""
    start = time.perf_counter()
    _check_policy_structure(instance, policy)
    if adversary not in EXACT_ADVERSARIES:
        raise ValueError(f"exact mode supports adversaries {EXACT_ADVERSARIES}")
    n = instance.ground_size
    if n > EXACT_MODE_CAP:
        raise CapExceededError(f"exact mode capped at n <= {EXACT_MODE_CAP}")
    realizations = instance.draw_realizations(trial_rng(seed, 0))
    ens = ConfigEnsemble(instance.structure, realizations, cap=EXACT_MODE_CAP)
    xval, xtb, ridx = _reward_matrices(ens)
    e_alg, z_violations = _exact_alg(
        ens, policy, adversary, instance, xval, xtb, ridx
    )
    e_opt = _exact_opt(ens, xval, xtb, ridx)
    e_opt_prime = _exact_opt_prime(ens)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return RatioReport(
        policy=policy,
        adversary=adversary,
        mode="exact",
        e_alg=e_alg,
        e_opt=e_opt,
        e_opt_prime=e_opt_prime,
        ratio=_ratio(e_opt, e_alg),
        ci=None,
        seed=seed,
        wall_ms=wall_ms,
        trials=None,
        z_violations=z_violations,
        instance=instance.name,
    )


# ---------------------------------------------------------------------------
# Monte Carlo mode
# ---------------------------------------------------------------------------


def _mc_chunk(args) -> tuple:
    (instance, policy, adversary, seed, start, stop) = args
    scheme = _scheme_for(instance, policy)
    sums = np.zeros(6)
    z_violations = 0
    for t in range(start, stop):
        rng = trial_rng(seed, t)
        realizations = instance.draw_realizations(rng)
        rewards, samples, _ = assign_coins(realizations, rng)
        n = len(rewards)
        if adversary == "fixed":
            order = tuple(range(n))
        elif adversary == "increasing":
            order = tuple(sorted(range(n), key=lambda e: rewards[e].key))
        elif adversary == "random":
            order = tuple(int(e) for e in rng.permutation(n))
        else:  # exhaustive-min
            order = adversarial_order(
                policy, instance.structure, samples, rewards, "exhaustive-min"
            ).order
        trace = run_policy(
            policy, instance.structure, samples, rewards, order,
            scheme=scheme, rng=rng,
        )
        alg = trace.chosen.total
        for e in trace.chosen.chosen:
            if rewards[e] < samples[e]:
                z_violations += 1
        opt = exact_optimum(instance.structure, rewards).total
        optp = greedy_prophet(instance.structure, rewards).total
        sums += (alg, alg * alg, opt, opt * opt, optp, optp * optp)
    return sums, z_violations


def estimate_ratio_mc(
    instance: Instance,
    policy: str,
    adversary: str = "increasing",
    trials: int = 10000,
    seed: int = 0,
    workers: int | None = None,
) -> RatioReport:
    start_time = time.perf_counter()
    _check_policy_structure(instance, policy)
    if adversary not in MC_ADVERSARIES:
        raise ValueError(f"mc mode supports adversaries {MC_ADVERSARIES}")
    if trials < 1:
        raise ValueError("need trials >= 1")
    chunks = [
        (instance, policy, adversary, seed, lo, min(lo + MC_CHUNK, trials))
        for lo in range(0, trials, MC_CHUNK)
    ]
    nworkers = worker_count(workers)
    if nworkers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            results = list(pool.map(_mc_chunk, chunks))
    else:
        results = [_mc_chunk(c) for c in chunks]
    sums = np.zeros(6)
    z_violations = 0
    for partial, z in results:
        sums += partial
        z_violations += z
    means = sums[0::2] / trials
    if trials > 1:
        variances = (sums[1::2] - trials * means**2) / (trials - 1)
        half = 1.96 * np.sqrt(np.maximum(variances, 0.0) / trials)
    else:
        half = np.zeros(3)
    wall_ms = (time.perf_counter() - start_time) * 1000.0
    return RatioReport(
        policy=policy,
        adversary=adversary,
        mode="mc",
        e_alg=float(means[0]),
        e_opt=float(means[1]),
        e_opt_prime=float(means[2]),
        ratio=_ratio(float(means[1]), float(means[0])),
        ci=float(half[0]),
        seed=seed,
        wall_ms=wall_ms,
        trials=trials,
        z_violations=z_violations,
        instance=instance.name,
    )


def estimate_ratio(
    instance: Instance,
    policy: str,
    adversary: str = "increasing",
    trials: int = 10000,
    seed: int = 0,
    mode: str = "mc",
    workers: int | None = None,
) -> RatioReport:
    if mode == "exact":
        return estimate_ratio_exact(instance, policy, adversary, seed)
    if mode == "mc":
        return estimate_ratio_mc(instance, policy, adversary, trials, seed, workers)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# The tight example
# ---------------------------------------------------------------------------


def tight_example(k: int, trials: int = 100_000, seed: int = 0) -> RatioReport:
    """Star graph with IID uniform [1-1/k, 1] edges under the random-vertex
    partition: the ratio approaches 4 from below as k grows.

    Vectorized rule-for-rule port of the reduction policy on this family
    (tests pin it against the traced policy): an edge owned by its leaf is
    collected iff its reward beats its own sample; the center group collects
    the smallest reward beating the largest sample in the group.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if trials < 1:
        raise ValueError("need trials >= 1")
    start_time = time.perf_counter()
    rng = np.random.default_rng((seed, 0))
    lo = 1.0 - 1.0 / k
    sum_alg = sum_alg2 = sum_opt = sum_opt2 = 0.0
    done = 0
    while done < trials:
        block = min(20_000, trials - done)
        rewards = rng.uniform(lo, 1.0, size=(block, k))
        samples = rng.uniform(lo, 1.0, size=(block, k))
        center_rank = rng.uniform(size=(block, 1))
        leaf_rank = rng.uniform(size=(block, k))
        leaf_owned = leaf_rank < center_rank
        leaf_take = leaf_owned & (rewards > samples)
        alg = (rewards * leaf_take).sum(axis=1)
        center = ~leaf_owned
        center_threshold = np.where(center, samples, -np.inf).max(axis=1)
        exceed = center & (rewards > center_threshold[:, None])
        center_pick = np.where(exceed, rewards, np.inf).min(axis=1)
        alg += np.where(np.isfinite(center_pick), center_pick, 0.0)
        opt = rewards.sum(axis=1)
        sum_alg += float(alg.sum())
        sum_alg2 += float((alg * alg).sum())
        sum_opt += float(opt.sum())
        sum_opt2 += float((opt * opt).sum())
        done += block
    mean_alg = sum_alg / trials
    mean_opt = sum_opt / trials
    var_alg = max(0.0, (sum_alg2 - trials * mean_alg**2) / max(1, trials - 1))
    wall_ms = (time.perf_counter() - start_time) * 1000.0
    return RatioReport(
        policy="reduction-graphic",
        adversary="increasing",
        mode="mc",
        e_alg=mean_alg,
        e_opt=mean_opt,
        e_opt_prime=mean_opt,
        ratio=_ratio(mean_opt, mean_alg),
        ci=1.96 * math.sqrt(var_alg / trials),
        seed=seed,
        wall_ms=wall_ms,
        trials=trials,
        instance=f"star-k{k}",
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _fmt_quantity(q) -> str:
    if q is None:
        return ""
    if isinstance(q, Fraction):
        return f"{q.numerator}/{q.denominator}"
    return _fmt_float(q)


def report_fields(report: RatioReport) -> dict[str, object]:
    """Deterministic serialization order shared by csv and json."""
    return {
        "policy": report.policy,
        "adversary": report.adversary,
        "mode": report.mode,
        "E_ALG": _fmt_quantity(report.e_alg),
        "E_OPT": _fmt_quantity(report.e_opt),
        "E_OPT_PRIME": _fmt_quantity(report.e_opt_prime),
        "ratio": _fmt_float(report.ratio),
        "ci": _fmt_quantity(report.ci),
        "seed": report.seed,
        "wall_ms": round(report.wall_ms, 3),
    }


def render_report(report: RatioReport, fmt: str) -> str:
    fields = report_fields(report)
    if fmt == "json":
        return json.dumps(fields, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerow(
            [
                fields["policy"], fields["adversary"], fields["mode"],
                fields["E_ALG"], fields["E_OPT"], fields["E_OPT_PRIME"],
                fields["ratio"], fields["ci"], fields["seed"], fields["wall_ms"],
            ]
        )
        return buf.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")


def emit_report(report: RatioReport, fmt: str, path) -> None:
    """Write a report; I/O failures propagate verbatim."""
    text = render_report(report, fmt)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
