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
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .core import CapExceededError, assign_coins, trial_rng
from .exact import (
    ConfigEnsemble,
    element_flags,
    min_maximal_accepts,
    optimum_accepts,
    replay_group_counts,
    replay_resources,
    vertex_masks,
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


def _mean_total(ens: ConfigEnsemble, ridx, runs) -> Fraction:
    """Exact mean reward total of (n, configs) accepted flags, averaged over
    the configurations and the runs."""
    counts = sum(np.bincount(ridx[acc], minlength=ens.length) for acc in runs)
    return ens.path_total(counts) / (ens.num_configs * len(runs))


def _exact_alg(
    ens: ConfigEnsemble, policy: str, adversary: str, instance: Instance, ridx
) -> tuple[Fraction, int]:
    """Exact E_ALG and the z-violation count. Each run gives the accepted
    flags of every configuration; the reduction-graphic policy is the custom
    reduction run once per vertex-order partition, each partition equally
    likely."""
    fs = ens.structure
    n = ens.n
    # Outside matching, the increasing order is the exhaustive-min minimizer
    # (see policies.adversarial_order); for matching it is a minimum-weight
    # maximal matching of the live edges.
    orders = None if adversary == "fixed" else np.argsort(-ridx, axis=0)
    if policy == "matching":
        searching = adversary == "exhaustive-min"
        if searching and n > ORDER_SEARCH_CAP:
            raise CapExceededError(
                f"exhaustive-min order search capped at n <= {ORDER_SEARCH_CAP}"
            )
        live = ens.matching_exceeds()
        runs = [
            min_maximal_accepts(ens, ridx, live) if searching
            else replay_resources(live, vertex_masks(fs), orders)
        ]
    elif policy == "transversal":
        targets = ens.transversal_targets()
        nodes = np.int64(1) << np.maximum(targets, 0)  # unused where targets < 0
        runs = [replay_resources(targets >= 0, nodes, orders)]
    elif policy in ("laminar", "rank1"):
        flags = (
            ens.laminar_accepts()[0]
            if policy == "laminar"
            else ens.group_exceeds((tuple(ens.elements),))
        )
        runs = [
            replay_group_counts(
                flags, fs.group_index, fs.group_capacities, fs.total_capacity, orders
            )
        ]
    elif policy in ("reduction-graphic", "reduction-custom"):
        if policy == "reduction-custom":
            if instance.partition is None:
                raise ValueError("reduction-custom needs a partition block in the instance")
            partitions = [instance.partition]
        elif fs.vertex_count > EXACT_SIGMA_VERTEX_CAP:
            raise CapExceededError(
                f"exact vertex-order enumeration capped at {EXACT_SIGMA_VERTEX_CAP} vertices"
            )
        else:
            partitions = [
                graphic_partition(fs, sigma=sigma)[0]
                for sigma in permutations(range(fs.vertex_count))
            ]
        runs = [
            replay_group_counts(
                ens.group_exceeds(p.groups), p.group_index, (1,) * len(p.groups),
                len(p.groups), orders,
            )
            for p in partitions
        ]
    else:
        raise ValueError(f"policy {policy!r} has no exact evaluator")

    rewards_are_y = element_flags(np.arange(ens.num_configs), n)
    z_violations = sum(int((acc & ~rewards_are_y).sum()) for acc in runs)
    return _mean_total(ens, ridx, runs), z_violations


def _exact_opt_prime(ens: ConfigEnsemble) -> Fraction:
    counts = (ens.heads & ens.free("H")).sum(axis=1)
    return ens.path_total(counts) / ens.num_configs


def _exact_opt(ens: ConfigEnsemble, ridx) -> Fraction:
    if not isinstance(ens.structure, (GeneralMatching, Transversal)):
        return _exact_opt_prime(ens)  # matroid greedy is exact
    return _mean_total(ens, ridx, [optimum_accepts(ens, ridx)])


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
    ridx = ens.reward_indices()
    e_alg, z_violations = _exact_alg(ens, policy, adversary, instance, ridx)
    e_opt = _exact_opt(ens, ridx)
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


def mc_summary(sums: np.ndarray, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Means and 95% normal half-widths (1.96 standard errors) of several
    quantities from running sums laid out as (sum, sum of squares) pairs."""
    means = sums[0::2] / trials
    if trials > 1:
        variances = (sums[1::2] - trials * means**2) / (trials - 1)
        half = 1.96 * np.sqrt(np.maximum(variances, 0.0) / trials)
    else:
        half = np.zeros(len(means))
    return means, half


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
    means, half = mc_summary(sums, trials)
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
    sums = np.zeros(4)  # alg, alg^2, opt, opt^2
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
        sums += (alg.sum(), (alg * alg).sum(), opt.sum(), (opt * opt).sum())
        done += block
    means, half = mc_summary(sums, trials)
    mean_alg, mean_opt = (float(x) for x in means)
    wall_ms = (time.perf_counter() - start_time) * 1000.0
    return RatioReport(
        policy="reduction-graphic",
        adversary="increasing",
        mode="mc",
        e_alg=mean_alg,
        e_opt=mean_opt,
        e_opt_prime=mean_opt,
        ratio=_ratio(mean_opt, mean_alg),
        ci=float(half[0]),
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
