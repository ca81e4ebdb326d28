"""Experiment harness: exact and Monte Carlo competitive-ratio estimation,
the star-graph tight example, and report emission.

Both modes evaluate a batch of coin configurations at once with the
batched policies of `exact.py` (`policy_run`), one column per
configuration. `exact.py` also builds the reduction partitions
(`reduction_partitions`) and decides E_OPT (`optimum_accepts`); this module
drives the batches and aggregates. Exact mode draws one realization set from
the instance and evaluates its 2**n coin configurations in blocks of
`exact.CONFIG_BLOCK`, one block at a time, with one run per partition; the
sample path, the subset tables and the reduction partitions are made once
per command. It sums integer path-index counts over the blocks and reports
expectations as exact rationals, the same for any block size; the
worst-case adversary minimizes the policy total per configuration. Monte
Carlo mode splits its trials into chunks of MC_CHUNK and evaluates each
chunk as one batch. Trial t still draws from its own stream (seed, t), in
the order of the scalar code (`core.draw_trials`), so results are those of
a trial-by-trial run; a trial's values, tokens and coins do not depend on
the adversary. Chunk sums merge in chunk order, so results do not depend on
the worker count.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import EXACT_MODE_CAP, CapExceededError, draw_trials, trial_rng
from .exact import (
    ConfigEnsemble,
    TrialBatch,
    config_blocks,
    optimum_accepts,
    policy_run,
    reduction_partitions,
)
from .instances import Instance, InstanceFormatError
from .policies import check_policy

MC_CHUNK = 2048
# (trial, leaf) cells per tight-example block: fixes the draw order, caps k
TIGHT_CELLS = 1 << 22
# (trial, leaf) cells per tight-example tile: bounds the memory
TIGHT_TILE_CELLS = 1 << 15
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


def worker_count() -> int:
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def competitive_ratio(e_opt, e_alg) -> float:
    """E_OPT / E_ALG as a float: inf for a positive E_OPT over 0, and 1 for
    0 / 0."""
    if e_alg == 0:
        return float("inf") if e_opt > 0 else 1.0
    return float(e_opt / e_alg) if isinstance(e_opt, Fraction) else e_opt / e_alg


# ---------------------------------------------------------------------------
# Exact mode
# ---------------------------------------------------------------------------


def _block_counts(
    ens: ConfigEnsemble, policy: str, adversary: str, partitions: list
) -> tuple[np.ndarray, int, int]:
    """On one block of configurations: the (3, 2n) path-index counts of the
    rewards of E_ALG (summed over the runs, one per partition, each times
    its weight), E_OPT and E_OPT_PRIME; the weighted number of runs; and the
    weighted z-violation count. Runs are summed as they are made, so one is
    alive at a time."""
    ridx = ens.ridx
    counts = np.zeros((3, ens.length), dtype=np.int64)
    opt = optimum_accepts(ens)  # first: its tables hold the bitmask caps
    z_violations = runs = 0
    for grouping, weight in partitions:
        run = policy_run(ens, policy, adversary, grouping)
        counts[0] += weight * np.bincount(ridx[run.accepted], minlength=ens.length)
        # rewards at Z indices
        z_violations += weight * int((run.accepted & (ridx > ens.y_idx)).sum())
        runs += weight
    counts[2] = (ens.heads & ens.free("H")).sum(axis=1)
    counts[1] = counts[2] if opt is None else np.bincount(ridx[opt], minlength=ens.length)
    return counts, runs, z_violations


def estimate_ratio_exact(
    instance: Instance,
    policy: str,
    adversary: str = "increasing",
    seed: int = 0,
) -> RatioReport:
    """Exact expectations over all configurations for one drawn realization
    set, with the adversary minimizing per configuration when asked. The
    configurations go in blocks (`exact.config_blocks`); integer path-index
    counts are summed over the blocks and turned into one Fraction each, so
    the results do not depend on the block size."""
    start = time.perf_counter()
    check_policy(policy, instance.structure, instance.partition)
    if adversary not in EXACT_ADVERSARIES:
        raise ValueError(f"exact mode supports adversaries {EXACT_ADVERSARIES}")
    n = instance.ground_size
    if n > EXACT_MODE_CAP:
        raise CapExceededError(f"exact mode capped at n <= {EXACT_MODE_CAP}")
    realizations = instance.draw_realizations(trial_rng(seed, 0))
    _, partitions = reduction_partitions(instance, policy)
    counts = np.zeros((3, 2 * n), dtype=np.int64)
    z_violations = run_columns = 0
    for ens in config_blocks(instance.structure, realizations):
        block, runs, z = _block_counts(ens, policy, adversary, partitions)
        counts += block
        z_violations += z
        run_columns += runs * ens.num_configs
    e_alg, e_opt, e_opt_prime = (
        ens.path_total(c) / columns for c, columns in zip(counts, (run_columns, 1 << n, 1 << n))
    )
    wall_ms = (time.perf_counter() - start) * 1000.0
    return RatioReport(
        policy=policy,
        adversary=adversary,
        mode="exact",
        e_alg=e_alg,
        e_opt=e_opt,
        e_opt_prime=e_opt_prime,
        ratio=competitive_ratio(e_opt, e_alg),
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


def mc_summary(partials, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Means and 95% normal half-widths (1.96 standard errors) of several
    quantities from the chunks' running sums, each laid out as (sum, sum of
    squares) pairs and added in chunk order. A sum that is not finite
    (values so large that they or their squares overflow) is an input error
    that names `distributions`."""
    sums = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for partial in partials:
            sums = sums + np.asarray(partial)
    if not np.isfinite(sums).all():
        raise InstanceFormatError(
            "distributions", "values too large: a Monte Carlo sum overflows"
        )
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
    # The adversary as `exact.policy_run` reads it: (n, trials) orders for
    # the random adversary, else its name.
    orders: np.ndarray | str
    vertex_ranks: np.ndarray | None  # reduction-graphic: (vertices, trials)
    accepted: np.ndarray  # (n, trials) flags
    alg: np.ndarray  # (trials,) float totals
    opt: np.ndarray
    opt_prime: np.ndarray
    z_violations: np.ndarray  # (n, trials): accepted rewards below their sample


def optimum_totals(batch: TrialBatch) -> tuple[np.ndarray, np.ndarray]:
    """Per trial, the float totals of E_OPT (a maximum-weight feasible set
    of the rewards, `exact.optimum_accepts`) and of E_OPT_PRIME (the greedy
    on the rewards)."""
    opt_prime = batch.path_sums(batch.heads & batch.free("H"))
    opt = optimum_accepts(batch)
    if opt is None:
        return opt_prime, opt_prime
    return (batch.values_at(batch.ridx) * opt).sum(axis=0), opt_prime


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
    ranks, ((grouping, _),) = reduction_partitions(instance, policy, draws)
    ridx = batch.ridx
    orders = draws.permutations[0].T if adversary == "random" else adversary
    accepted = policy_run(batch, policy, orders, grouping).accepted
    opt, opt_prime = optimum_totals(batch)
    return TrialOutcome(
        batch=batch,
        orders=orders,
        vertex_ranks=ranks,
        accepted=accepted,
        alg=(batch.values_at(ridx) * accepted).sum(axis=0),
        opt=opt,
        opt_prime=opt_prime,
        z_violations=accepted & (ridx > batch.y_idx),
    )


def _mc_chunk(args) -> tuple[np.ndarray, int]:
    """Running sums of one chunk of trials. Sums that overflow are left to
    `mc_summary` to reject, with no warning."""
    (instance, policy, adversary, seed, start, stop) = args
    with np.errstate(over="ignore", invalid="ignore"):
        out = mc_trials(instance, policy, adversary, seed, range(start, stop))
        sums = [s for x in (out.alg, out.opt, out.opt_prime) for s in (x.sum(), (x * x).sum())]
    return np.array(sums), int(out.z_violations.sum())


def run_chunks(chunk_fn, trials: int, head: tuple) -> list:
    """chunk_fn((*head, start, stop)) for each chunk of MC_CHUNK trials, in
    chunk order; in a pool of worker processes when there are several
    chunks and workers (see worker_count)."""
    chunks = [(*head, lo, min(lo + MC_CHUNK, trials)) for lo in range(0, trials, MC_CHUNK)]
    nworkers = worker_count()
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
) -> RatioReport:
    start_time = time.perf_counter()
    check_policy(policy, instance.structure, instance.partition)
    if adversary not in MC_ADVERSARIES:
        raise ValueError(f"mc mode supports adversaries {MC_ADVERSARIES}")
    if trials < 1:
        raise ValueError("need trials >= 1")
    results = run_chunks(_mc_chunk, trials, (instance, policy, adversary, seed))
    means, half = mc_summary([partial for partial, _ in results], trials)
    z_violations = sum(z for _, z in results)
    wall_ms = (time.perf_counter() - start_time) * 1000.0
    return RatioReport(
        policy=policy,
        adversary=adversary,
        mode="mc",
        e_alg=float(means[0]),
        e_opt=float(means[1]),
        e_opt_prime=float(means[2]),
        ratio=competitive_ratio(float(means[1]), float(means[0])),
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
) -> RatioReport:
    if mode == "exact":
        return estimate_ratio_exact(instance, policy, adversary, seed)
    if mode == "mc":
        return estimate_ratio_mc(instance, policy, adversary, trials, seed)
    raise RuntimeError(f"unknown mode {mode!r}")


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

    Blocks of at most 20,000 trials and TIGHT_CELLS (trial, leaf) cells fix
    the draw order (smaller blocks from k = 210 on) and cap k. Each block is
    evaluated in tiles of about TIGHT_TILE_CELLS cells read from the same
    stream positions, so the memory is bounded by the tile, not by --trials.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if k > TIGHT_CELLS:
        raise CapExceededError(f"tight example capped at k <= {TIGHT_CELLS}")
    if trials < 1:
        raise ValueError("need trials >= 1")
    start_time = time.perf_counter()
    bits = np.random.default_rng((seed, 0)).bit_generator
    lo = 1.0 - 1.0 / k
    tile = max(1, TIGHT_TILE_CELLS // k)
    partials = []  # per block: alg, alg^2, opt, opt^2
    done = 0
    while done < trials:
        block = min(20_000, TIGHT_CELLS // k, trials - done)
        cells = block * k
        # One 64-bit draw per double: the block's rewards, samples, center
        # ranks and leaf ranks lie back to back in the stream from here.
        rewards_rng, samples_rng, center_rng, leaf_rng = (
            np.random.Generator(copy.deepcopy(bits).advance(at))
            for at in (0, cells, 2 * cells, 2 * cells + block)
        )
        bits.advance(3 * cells + block)
        alg = np.empty(block)
        opt = np.empty(block)
        for first in range(0, block, tile):
            rows = slice(first, min(first + tile, block))
            shape = (rows.stop - first, k)
            rewards = rewards_rng.uniform(lo, 1.0, size=shape)
            samples = samples_rng.uniform(lo, 1.0, size=shape)
            center_rank = center_rng.random((shape[0], 1))
            leaf_owned = leaf_rng.random(shape) < center_rank
            alg[rows] = (rewards * (leaf_owned & (rewards > samples))).sum(axis=1)
            center = ~leaf_owned
            # Samples are >= 1 - 1/k > 0: with the leaves' samples zeroed the
            # max is the center's largest sample (0 if it has none, and then
            # `exceed` is all False).
            center_threshold = (samples * center).max(axis=1)
            exceed = center & (rewards > center_threshold[:, None])
            center_pick = np.min(rewards, axis=1, where=exceed, initial=np.inf)
            alg[rows] += np.where(np.isfinite(center_pick), center_pick, 0.0)
            opt[rows] = rewards.sum(axis=1)
        partials.append((alg.sum(), (alg * alg).sum(), opt.sum(), (opt * opt).sum()))
        done += block
    means, half = mc_summary(partials, trials)
    mean_alg, mean_opt = (float(x) for x in means)
    wall_ms = (time.perf_counter() - start_time) * 1000.0
    return RatioReport(
        policy="reduction-graphic",
        adversary="increasing",
        mode="mc",
        e_alg=mean_alg,
        e_opt=mean_opt,
        e_opt_prime=mean_opt,
        ratio=competitive_ratio(mean_opt, mean_alg),
        ci=float(half[0]),
        seed=seed,
        wall_ms=wall_ms,
        trials=trials,
        instance=f"star-k{k}",
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _fmt_quantity(q) -> str:
    if q is None:
        return ""
    if isinstance(q, Fraction):
        return f"{q.numerator}/{q.denominator}"
    return fmt_float(q)


def report_fields(report: RatioReport) -> dict[str, object]:
    """Deterministic serialization order shared by csv and json."""
    return {
        "policy": report.policy,
        "adversary": report.adversary,
        "mode": report.mode,
        "E_ALG": _fmt_quantity(report.e_alg),
        "E_OPT": _fmt_quantity(report.e_opt),
        "E_OPT_PRIME": _fmt_quantity(report.e_opt_prime),
        "ratio": fmt_float(report.ratio),
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
    raise RuntimeError(f"unknown report format {fmt!r}")
