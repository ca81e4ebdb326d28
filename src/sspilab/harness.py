"""Experiment harness: exact and Monte Carlo competitive-ratio estimation,
the star-graph tight example, and report emission.

Both modes evaluate a batch of coin configurations at once with the walks
and replay kernels of `exact.py`, one column per configuration. Exact mode
draws one realization set from the instance, evaluates all 2**n coin
configurations, and reports expectations as exact rationals; the worst-case
adversary minimizes the policy total per configuration. Monte Carlo mode
splits its trials into chunks of MC_CHUNK and evaluates each chunk as one
batch. Trial t still draws from its own stream (seed, t), in the order of
the scalar code (`core.draw_trials`), so results are those of a trial-by-
trial run; a trial's values, tokens and coins do not depend on the
adversary. Chunk sums merge in chunk order, so results do not depend on the
worker count.
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

from .core import CapExceededError, TrialDraws, draw_trials, trial_rng
from .exact import (
    EXACT_MODE_CAP,
    ConfigEnsemble,
    PathBatch,
    TrialBatch,
    group_ids,
    min_maximal_accepts,
    optimum_accepts,
    replay_group_counts,
    replay_resources,
    tables_fit,
    target_bits,
    vertex_masks,
)
from .feasibility import GeneralMatching, Transversal, exact_optimum, graphic_partition
from .instances import Instance
from .policies import check_policy

EXACT_SIGMA_VERTEX_CAP = 6
MC_CHUNK = 2048
TIGHT_CELLS = 1 << 22  # (trial, leaf) cells per tight-example block; caps k
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
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _ratio(e_opt, e_alg) -> float:
    if e_alg == 0:
        return float("inf") if e_opt > 0 else 1.0
    return float(e_opt / e_alg) if isinstance(e_opt, Fraction) else e_opt / e_alg


# ---------------------------------------------------------------------------
# Policies over a batch of columns
# ---------------------------------------------------------------------------


def _accepted_runs(
    batch: PathBatch, policy: str, orders, searching: bool, groupings=(),
) -> list[np.ndarray]:
    """The policy's (n, columns) accepted flags, in one run, or one run per
    (group, count) grouping for the reduction policies (`group` as in
    `replay_group_counts`). `orders` holds each column's arrival order (None:
    by element id). With `searching`, the adversary minimizes: for matching
    that is a minimum-weight maximal matching of the live edges; for every
    other policy it is the increasing order, which the caller passes (see
    policies.adversarial_order)."""
    fs = batch.structure
    if policy == "matching":
        if searching and batch.n > EXACT_MODE_CAP:
            raise CapExceededError(
                f"matching exhaustive-min search capped at n <= {EXACT_MODE_CAP}"
            )
        live = batch.matching_exceeds()
        if searching:
            return [min_maximal_accepts(batch, batch.reward_indices(), live)]
        return [replay_resources(live, vertex_masks(fs), orders)]
    if policy == "transversal":
        targets = batch.transversal_targets()
        nodes = target_bits(targets, fs.right_count)  # unused where targets < 0
        return [replay_resources(targets >= 0, nodes, orders)]
    if policy in ("laminar", "rank1"):
        flags = (
            batch.laminar_accepts()
            if policy == "laminar"
            else batch.group_exceeds(np.zeros(batch.n, dtype=np.int64), 1)
        )
        group = group_ids(fs.groups, batch.n)
        return [
            replay_group_counts(flags, group, fs.group_capacities, fs.total_capacity, orders)
        ]
    if policy in ("reduction-graphic", "reduction-custom"):
        return [
            replay_group_counts(
                batch.group_exceeds(group, count), group, (1,) * count, count, orders
            )
            for group, count in groupings
        ]
    raise RuntimeError(f"policy {policy!r} has no batched evaluator")


# ---------------------------------------------------------------------------
# Exact mode
# ---------------------------------------------------------------------------


def _mean_total(ens: ConfigEnsemble, ridx, runs) -> Fraction:
    """Exact mean reward total of (n, configs) accepted flags, averaged over
    the configurations and the runs."""
    counts = sum(np.bincount(ridx[acc], minlength=ens.length) for acc in runs)
    return ens.path_total(counts) / (ens.num_configs * len(runs))


def _exact_groupings(ens: ConfigEnsemble, policy: str, instance: Instance) -> list:
    """The reduction policies' partitions as (group, count) pairs: the
    instance's own, or every vertex-order partition, each equally likely."""
    fs = ens.structure
    if policy == "reduction-custom":
        partitions = [instance.partition]
    elif policy == "reduction-graphic":
        if fs.vertex_count > EXACT_SIGMA_VERTEX_CAP:
            raise CapExceededError(
                f"exact vertex-order enumeration capped at {EXACT_SIGMA_VERTEX_CAP} vertices"
            )
        partitions = [
            graphic_partition(fs, sigma=sigma)[0]
            for sigma in permutations(range(fs.vertex_count))
        ]
    else:
        return []
    return [(group_ids(p.groups, ens.n), len(p.groups)) for p in partitions]


def _exact_alg(
    ens: ConfigEnsemble, policy: str, adversary: str, instance: Instance, ridx
) -> tuple[Fraction, int]:
    """Exact E_ALG and the z-violation count, averaged over every
    configuration and, for the reductions, every partition."""
    orders = None if adversary == "fixed" else np.argsort(-ridx, axis=0)
    runs = _accepted_runs(
        ens, policy, orders, adversary == "exhaustive-min",
        _exact_groupings(ens, policy, instance),
    )
    below = ridx > ens.sample_indices()  # rewards below their own sample
    z_violations = sum(int((acc & below).sum()) for acc in runs)
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
    check_policy(policy, instance.structure, instance.partition)
    if adversary not in EXACT_ADVERSARIES:
        raise ValueError(f"exact mode supports adversaries {EXACT_ADVERSARIES}")
    n = instance.ground_size
    if n > EXACT_MODE_CAP:
        raise CapExceededError(f"exact mode capped at n <= {EXACT_MODE_CAP}")
    realizations = instance.draw_realizations(trial_rng(seed, 0))
    ens = ConfigEnsemble(instance.structure, realizations, cap=EXACT_MODE_CAP)
    ridx = ens.reward_indices()
    e_opt = _exact_opt(ens, ridx)  # first: its tables hold the bitmask caps
    e_alg, z_violations = _exact_alg(ens, policy, adversary, instance, ridx)
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


@dataclass
class TrialOutcome:
    """Per-trial results of one batch of Monte Carlo trials."""

    batch: TrialBatch
    orders: np.ndarray | None  # (n, trials) arrival orders; None: by element id
    vertex_ranks: np.ndarray | None  # reduction-graphic: (vertices, trials)
    accepted: np.ndarray  # (n, trials) flags
    alg: np.ndarray  # (trials,) float totals
    opt: np.ndarray
    opt_prime: np.ndarray
    z_violations: np.ndarray  # (n, trials): accepted rewards below their sample


def _mc_optimum(batch: TrialBatch, ridx: np.ndarray) -> np.ndarray:
    """(n, trials) flags of a maximum-weight feasible set per trial, for
    matching and transversal structures: from the subset tables where they
    fit, else from the scalar oracle on each trial's rewards."""
    if tables_fit(batch.structure, batch.n, EXACT_MODE_CAP):
        return optimum_accepts(batch, ridx)
    flags = np.zeros((batch.n, batch.num_configs), dtype=bool)
    for t in range(batch.num_configs):
        rewards, _ = batch.tagged(t)
        flags[sorted(exact_optimum(batch.structure, rewards).chosen), t] = True
    return flags


def _reduction_groupings(instance: Instance, policy: str, draws: TrialDraws) -> tuple:
    """(ranks, groupings): for reduction-graphic, each vertex's position in
    each trial's vertex order (the last permutation drawn), (vertices,
    trials), else None; and the reduction policies' partitions as one
    (group, count) pair for `_accepted_runs`: the instance's own, or for
    reduction-graphic each trial's vertex-order partition, where an edge
    joins the group of its endpoint ranked first."""
    fs = instance.structure
    if policy == "reduction-graphic":
        ranks = np.argsort(draws.permutations[-1], axis=1).T
        u, v = np.array(fs.edges, dtype=np.int64).reshape(-1, 2).T
        first = ranks[u] < ranks[v]
        return ranks, [(np.where(first, u[:, None], v[:, None]), fs.vertex_count)]
    if policy == "reduction-custom":
        groups = instance.partition.groups
        return None, [(group_ids(groups, instance.ground_size), len(groups))]
    return None, []


def optimum_totals(batch: TrialBatch, ridx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per trial, the float totals of E_OPT (a maximum-weight feasible set
    of the rewards) and of E_OPT_PRIME (the greedy on the rewards, which is
    optimal on a matroid)."""
    opt_prime = batch.path_sums(batch.heads & batch.free("H"))
    if isinstance(batch.structure, (GeneralMatching, Transversal)):
        return (batch.values_at(ridx) * _mc_optimum(batch, ridx)).sum(axis=0), opt_prime
    return opt_prime, opt_prime


def mc_trials(
    instance: Instance, policy: str, adversary: str, seed: int, trials: range
) -> TrialOutcome:
    """Evaluate the given trials as one batch. Trial t draws from the stream
    (seed, t): values, tokens and coins, then the random adversary's order,
    then the reduction-graphic vertex order, so the values, tokens and coins
    do not depend on the adversary."""
    fs = instance.structure
    n = instance.ground_size
    sizes = [n] if adversary == "random" else []
    if policy == "reduction-graphic":
        sizes.append(fs.vertex_count)
    draws = draw_trials([instance.distributions[e] for e in range(n)], seed, trials, sizes)
    batch = TrialBatch(fs, draws)
    ranks, groupings = _reduction_groupings(instance, policy, draws)
    ridx = batch.reward_indices()
    if adversary == "fixed":
        orders = None
    elif adversary == "random":
        orders = draws.permutations[0].T
    else:  # increasing rewards, also the exhaustive-min order outside matching
        orders = np.argsort(-ridx, axis=0)
    (accepted,) = _accepted_runs(
        batch, policy, orders, adversary == "exhaustive-min", groupings
    )
    opt, opt_prime = optimum_totals(batch, ridx)
    return TrialOutcome(
        batch=batch,
        orders=orders,
        vertex_ranks=ranks,
        accepted=accepted,
        alg=(batch.values_at(ridx) * accepted).sum(axis=0),
        opt=opt,
        opt_prime=opt_prime,
        z_violations=accepted & (ridx > batch.sample_indices()),
    )


def _mc_chunk(args) -> tuple[np.ndarray, int]:
    """Running sums of one chunk of trials."""
    (instance, policy, adversary, seed, start, stop) = args
    out = mc_trials(instance, policy, adversary, seed, range(start, stop))
    sums = [s for x in (out.alg, out.opt, out.opt_prime) for s in (x.sum(), (x * x).sum())]
    return np.array(sums), int(out.z_violations.sum())


def run_chunks(chunk_fn, trials: int, head: tuple, workers: int | None = None) -> list:
    """chunk_fn((*head, start, stop)) for each chunk of MC_CHUNK trials, in
    chunk order; in a pool of worker processes when there are several
    chunks and workers (see worker_count)."""
    chunks = [(*head, lo, min(lo + MC_CHUNK, trials)) for lo in range(0, trials, MC_CHUNK)]
    nworkers = worker_count(workers)
    if nworkers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            return list(pool.map(chunk_fn, chunks))
    return [chunk_fn(c) for c in chunks]


def estimate_ratio_mc(
    instance: Instance,
    policy: str,
    adversary: str = "increasing",
    trials: int = 10000,
    seed: int = 0,
    workers: int | None = None,
) -> RatioReport:
    start_time = time.perf_counter()
    check_policy(policy, instance.structure, instance.partition)
    if adversary not in MC_ADVERSARIES:
        raise ValueError(f"mc mode supports adversaries {MC_ADVERSARIES}")
    if trials < 1:
        raise ValueError("need trials >= 1")
    results = run_chunks(_mc_chunk, trials, (instance, policy, adversary, seed), workers)
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

    Blocks of at most 20,000 trials and TIGHT_CELLS (trial, leaf) cells bound
    the memory; they fix the draw order, smaller blocks from k = 210 on.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if k > TIGHT_CELLS:
        raise CapExceededError(f"tight example capped at k <= {TIGHT_CELLS}")
    if trials < 1:
        raise ValueError("need trials >= 1")
    start_time = time.perf_counter()
    rng = np.random.default_rng((seed, 0))
    lo = 1.0 - 1.0 / k
    sums = np.zeros(4)  # alg, alg^2, opt, opt^2
    done = 0
    while done < trials:
        block = min(20_000, TIGHT_CELLS // k, trials - done)
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


def csv_text(header, row) -> str:
    """A header line and one row of CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerow(row)
    return buf.getvalue()


def render_report(report: RatioReport, fmt: str) -> str:
    fields = report_fields(report)
    if fmt == "json":
        return json.dumps(fields, indent=2) + "\n"
    if fmt == "csv":
        return csv_text(CSV_HEADER, fields.values())  # fields come in header order
    raise ValueError(f"unknown report format {fmt!r}")


def emit_report(report: RatioReport, fmt: str, path) -> None:
    """Write a report; I/O failures propagate verbatim."""
    text = render_report(report, fmt)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
