"""Experiment harness: exact and Monte Carlo competitive-ratio estimation,
the star-graph tight example, and the fields of their reports.

Both modes evaluate a batch of coin configurations at once with the batched
policies of `exact.py` (`policy_run`), one column per configuration.
`exact.py` also builds the reduction partitions (`reduction_partitions`)
and decides E_OPT (`optimum_accepts`); this module drives the batches and
aggregates. Exact mode draws one realization set from the instance and
makes its sample path (`exact.PathLayout`) and reduction partitions once
per command. WALK_POLICIES (rank1 and both reductions) take E_ALG from
`exact.rank1_walk`, one walk per partition times its weight, so
z_violations is 0; so does E_OPT where the structure has an
`exact.optimum_grouping`. The walk keeps the n <= EXACT_MODE_CAP cap while
perfbench's `probe-cap` expects exit 3 from exact rank1 at n = 17. The rest
evaluates the 2**n coin configurations in blocks of `exact.CONFIG_BLOCK`,
one block at a time. Both give integer path-index counts, summed into exact
rationals by `PathLayout.path_total`, so the results do not depend on the
route or the block size; the
worst-case adversary minimizes the policy total per configuration. Monte
Carlo mode splits its trials into chunks of MC_CHUNK and evaluates each
chunk as one batch with `mc_trials`, the one chunk evaluator, which the
mechanism (`mechanism.py`) also runs on its own draws. Trial t still draws
its values, tokens and coins from its own stream (seed, t), in the order
of the scalar code (`core.draw_trials`), so they are those of a
trial-by-trial run. The random adversary's orders and the
reduction-graphic vertex orders come from the chunk's own order streams
(`core.chunk_orders`), so a trial's values, tokens, coins and vertex order
do not depend on the adversary. Chunk sums merge in chunk order, so
results do not depend on the worker count.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable

import numpy as np

from .core import (
    ARRIVAL_ORDERS,
    EXACT_MODE_CAP,
    VERTEX_ORDERS,
    CapExceededError,
    InputError,
    TrialDraws,
    chunk_orders,
    draw_trials,
    trial_rng,
)
from .exact import (
    ConfigEnsemble,
    PathLayout,
    TrialBatch,
    config_blocks,
    optimum_accepts,
    optimum_grouping,
    policy_run,
    rank1_walk,
    reduction_partitions,
)
from .instances import Instance
from .policies import check_policy

MC_CHUNK = 2048
TIGHT_K_CAP = 1 << 22
# Trials per tight-example block: one call per per-trial stream, one partial
# sum. Its per-trial arrays and the tile bound the memory.
TIGHT_BLOCK = 4096
# (trial, leaf) cells per tight-example tile: bounds the memory
TIGHT_TILE_CELLS = 1 << 15
WORKERS_ENV = "SSPILAB_WORKERS"

CSV_HEADER = (
    "policy", "adversary", "mode", "e_alg", "e_opt", "e_opt_prime",
    "ratio", "ci", "seed", "wall_ms",
)

EXACT_ADVERSARIES = ("fixed", "increasing", "exhaustive-min")
# Exact policies of capacity-1 groups, whose E_ALG is `exact.rank1_walk`.
WALK_POLICIES = ("rank1", "reduction-custom", "reduction-graphic")
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


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the
    platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count() -> int:
    """The workers asked for: SSPILAB_WORKERS (at least 1), else
    `usable_cpus`. `run_chunks` bounds the pool further."""
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise InputError(WORKERS_ENV, f"must be an integer, got {env!r}") from None
    return usable_cpus()


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
    ens: ConfigEnsemble, policy: str | None, adversary: str, grouping=None
) -> tuple[np.ndarray, int]:
    """On one block of configurations: the (3, 2n) path-index counts of the
    rewards of E_ALG (one run of `policy` on `grouping`, or none when
    `policy` is None), E_OPT and E_OPT_PRIME, and the z-violation count."""
    counts = np.zeros((3, ens.length), dtype=np.int64)
    opt = optimum_accepts(ens)  # first: its tables hold the bitmask caps
    z_violations = 0
    if policy is not None:
        ridx = ens.ridx
        run = policy_run(ens, policy, adversary, grouping)
        counts[0] = np.bincount(ridx[run.accepted], minlength=ens.length)
        # rewards at Z indices
        z_violations = int((run.accepted & (ridx > ens.y_idx)).sum())
    counts[2] = (ens.heads & ens.free("H")).sum(axis=1)
    counts[1] = counts[2] if opt is None else np.bincount(ens.ridx[opt], minlength=ens.length)
    return counts, z_violations


def estimate_ratio_exact(
    instance: Instance,
    policy: str,
    adversary: str = "increasing",
    seed: int = 0,
) -> RatioReport:
    """Exact expectations over all configurations for one drawn realization
    set, with the adversary minimizing per configuration when asked. The
    policies of WALK_POLICIES take `rank1_walk` for E_ALG, and for E_OPT
    where the structure has an `optimum_grouping`; the rest goes through the
    configurations in blocks (`exact.config_blocks`). Integer path-index
    counts become one Fraction each, whatever the route or block size."""
    start = time.perf_counter()
    check_policy(policy, instance.structure, instance.partition)
    if adversary not in EXACT_ADVERSARIES:
        raise InputError("--adversary", f"exact mode supports adversaries {EXACT_ADVERSARIES}")
    n = instance.ground_size
    if n > EXACT_MODE_CAP:
        raise CapExceededError(f"exact mode capped at n <= {EXACT_MODE_CAP}")
    realizations = instance.draw_realizations(trial_rng(seed, 0))
    partitions = reduction_partitions(instance, policy)
    layout = PathLayout(instance.structure, realizations)
    walked = policy in WALK_POLICIES
    opt_grouping = optimum_grouping(instance.structure) if walked else None
    counts = np.zeros((3, 2 * n), dtype=np.int64)
    z_violations = 0
    if walked:
        walks = [(weight, rank1_walk(layout, grouping, adversary)) for grouping, weight in partitions]
        counts[0] = [sum(w * walk[j] for w, walk in walks) for j in range(2 * n)]
    if opt_grouping is not None:
        counts[1] = counts[2] = rank1_walk(layout, opt_grouping)
    else:
        for ens in config_blocks(instance.structure, layout):
            block, z = _block_counts(ens, None if walked else policy, adversary)
            counts += block
            z_violations += z
    runs = sum(weight for _, weight in partitions)
    e_alg, e_opt, e_opt_prime = (
        layout.path_total(c) / columns for c, columns in zip(counts, (runs << n, 1 << n, 1 << n))
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
        raise InputError(
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
    """Per-trial results of one batch of Monte Carlo trials: the output of
    `mc_trials`, the one evaluator of a chunk for Monte Carlo `simulate` and
    for `mechanism`. E_OPT is the total of a maximum-weight feasible set of
    the rewards (`exact.optimum_accepts`), E_OPT_PRIME that of the greedy on
    the rewards."""

    batch: TrialBatch
    # The adversary as `exact.policy_run` reads it: (n, trials) orders for
    # the random adversary, else its name.
    orders: np.ndarray | str
    vertex_ranks: np.ndarray | None  # reduction-graphic: (touched vertices, trials)
    accepted: np.ndarray  # (n, trials) flags
    price: Callable[[], np.ndarray]  # the run's critical prices (`PolicyRun.price`)
    alg: np.ndarray  # (trials,) float totals
    opt: np.ndarray
    opt_prime: np.ndarray
    z_violations: np.ndarray  # (n, trials): accepted rewards below their sample


def mc_trials(
    instance: Instance, policy: str, adversary: str, seed: int, trials: range,
    draws: TrialDraws | None = None,
) -> TrialOutcome:
    """Evaluate the given trials as one batch. Trial t draws its values,
    tokens and coins from the stream (seed, t), unless the caller hands in
    its own `draws` (the mechanism's: valuations as draw 0 and pricing as
    draw 1, no coins). The random adversary's orders and the
    reduction-graphic vertex orders (as ranks of the touched vertices) come
    from the chunk's order streams (`core.chunk_orders`, keyed by the first
    trial of `trials`). So the values, tokens, coins and vertex orders do
    not depend on the adversary."""
    fs = instance.structure
    n = instance.ground_size
    if draws is None:
        draws = draw_trials([instance.distributions[e] for e in range(n)], seed, trials)
    batch = TrialBatch(fs, draws)
    ranks = None
    if policy == "reduction-graphic":
        ranks = chunk_orders(seed, trials, fs.edge_ends[0], VERTEX_ORDERS)
    ((grouping, _),) = reduction_partitions(instance, policy, ranks)
    ridx = batch.ridx
    orders = chunk_orders(seed, trials, n, ARRIVAL_ORDERS) if adversary == "random" else adversary
    run = policy_run(batch, policy, orders, grouping)
    rewards = batch.values_at(ridx)
    opt_prime = batch.path_sums(batch.heads & batch.free("H"))
    opt = optimum_accepts(batch)
    return TrialOutcome(
        batch=batch,
        orders=orders,
        vertex_ranks=ranks,
        accepted=run.accepted,
        price=run.price,
        alg=(rewards * run.accepted).sum(axis=0),
        opt=opt_prime if opt is None else (rewards * opt).sum(axis=0),
        opt_prime=opt_prime,
        z_violations=run.accepted & (ridx > batch.y_idx),
    )


def _mc_chunk(args) -> tuple[np.ndarray, int]:
    """Running sums of one chunk of trials. Sums that overflow are left to
    `mc_summary` to reject, with no warning."""
    (instance, policy, adversary, seed, start, stop) = args
    with np.errstate(over="ignore", invalid="ignore"):
        out = mc_trials(instance, policy, adversary, seed, range(start, stop))
        sums = [s for x in (out.alg, out.opt, out.opt_prime) for s in (x.sum(), (x * x).sum())]
    return np.array(sums), int(out.z_violations.sum())


_worker_job: tuple | None = None  # a pool worker's (chunk_fn, head), set once


def _start_worker(chunk_fn, head: tuple) -> None:
    global _worker_job
    _worker_job = (chunk_fn, head)


def _worker_chunk(bounds: tuple[int, int]):
    chunk_fn, head = _worker_job
    return chunk_fn((*head, *bounds))


def run_chunks(chunk_fn, trials: int, head: tuple):
    """Yield chunk_fn((*head, start, stop)) for each chunk of MC_CHUNK
    trials, in chunk order, as the caller asks for them; in a pool of worker
    processes when there are several chunks and workers, with at most two
    chunks per worker in flight. So the memory does not grow with the number
    of chunks when the caller folds the results as they come. The pool
    starts all its workers at once, so it has no more of them than the
    chunks, the CPUs this process may use or `worker_count` allow. Each
    worker gets chunk_fn and `head` (the instance and its cached tables
    with it) once, when it starts; a chunk sends only (start, stop)."""
    bounds = ((lo, min(lo + MC_CHUNK, trials)) for lo in range(0, trials, MC_CHUNK))
    nworkers = min(worker_count(), -(-trials // MC_CHUNK), usable_cpus())
    if nworkers <= 1:
        yield from (chunk_fn((*head, *b)) for b in bounds)
        return
    with ProcessPoolExecutor(
        max_workers=nworkers, initializer=_start_worker, initargs=(chunk_fn, head)
    ) as pool:
        window = deque(pool.submit(_worker_chunk, b) for b in islice(bounds, 2 * nworkers))
        while window:
            result = window.popleft().result()
            for b in islice(bounds, 1):
                window.append(pool.submit(_worker_chunk, b))
            yield result


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
        raise InputError("--adversary", f"mc mode supports adversaries {MC_ADVERSARIES}")
    if trials < 1:
        raise InputError("--trials", "need trials >= 1")
    z_violations = 0

    def partials():
        nonlocal z_violations
        for partial, z in run_chunks(_mc_chunk, trials, (instance, policy, adversary, seed)):
            z_violations += z
            yield partial

    means, half = mc_summary(partials(), trials)
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


def _segments(ufunc, values: np.ndarray, counts: np.ndarray, empty: float) -> np.ndarray:
    """ufunc.reduce over the consecutive segments of `values` with the given
    lengths, and `empty` for a segment of none. reduceat gets the starts of
    the non-empty segments only: it would give an empty segment the value at
    its start, and an empty last segment starts out of range."""
    out = np.full(len(counts), empty)
    some = counts > 0
    out[some] = ufunc.reduceat(values, (np.cumsum(counts) - counts)[some])
    return out


def tight_tile(counts: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per trial, the totals (alg, opt) of the reduction policy and of the
    optimum on a star, under the increasing order.

    Each leaf before the center in the vertex order owns its edge, a group of
    its own that collects its reward iff it beats its own sample; the center
    owns the other edges as one group that collects the smallest reward above
    T, the largest of the group's samples. `counts` holds per trial, row by
    row, the number of leaf-owned edges that beat their sample (winners) and
    that do not (losers), and of the center's rewards above T and below it.
    `values` holds the rewards kind by kind in that order, each kind trial
    after trial.
    """
    sums = _segments(np.add, values, counts.ravel(), 0.0).reshape(counts.shape)
    high = counts[2]
    first = counts[:2].sum()
    pick = _segments(np.minimum, values[first:first + high.sum()], high, np.inf)
    return sums[0] + np.where(high > 0, pick, 0.0), sums.sum(axis=0)


def _winners(rng: np.random.Generator, leaves: np.ndarray, k: int) -> np.ndarray:
    """Per trial with L = `leaves` leaf-owned edges, how many beat their
    sample, W ~ Bin(L, ½): the set bits among L bits of ceil(k/64) raw
    64-bit draws, the top bits of each. The raw draws are held a tile's
    worth at a time."""
    words = -(-k // 64)
    rows = max(1, TIGHT_TILE_CELLS // words)
    ends = 64 * np.arange(1, words + 1)
    won = np.empty(len(leaves), dtype=np.int64)
    for first in range(0, len(leaves), rows):
        part = leaves[first:first + rows]
        bits = rng.bit_generator.random_raw((len(part), words))
        bits >>= np.clip(ends - part[:, None], 0, 64).astype(np.uint64)  # >> 64 gives 0
        won[first:first + rows] = np.bitwise_count(bits).sum(axis=1)
    return won


def _center_draws(
    threshold_rng: np.random.Generator, above_rng: np.random.Generator, center: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per trial with m = `center` center-owned edges, T, the largest of
    their samples, and A ~ Bin(m, 1 - T), how many of their rewards exceed
    it. T is V^(1/m) by `math.pow`, as numpy's vectorized exp and log round
    differently on CPUs with AVX-512. A is drawn by inversion from one
    uniform U: P(A = 0) = T^m = V and P(A = a + 1) / P(A = a) =
    (m - a) / (a + 1) · (1 - T) / T. A is about geometric, so the loop runs
    a few dozen steps at most. A trial with no center edges draws a V and a
    U it never reads."""
    v = threshold_rng.random(len(center))
    # Python floats, not `astype`: the Monte Carlo commands make no other
    # int-to-float array cast, and numpy's cast code adds 64 KB of resident
    # memory to the process.
    m = np.fromiter(memoryview(np.maximum(center, 1)), float, len(center))
    threshold = np.fromiter(map(math.pow, memoryview(v), memoryview(1.0 / m)), float, len(v))
    with np.errstate(divide="ignore"):  # V = 0 gives T = 0
        odds = (1.0 - threshold) / threshold
    above = np.zeros(len(center), dtype=np.int64)
    live = np.flatnonzero(center)
    u, mass = above_rng.random(len(center))[live], v[live]
    total = mass.copy()
    a = 0  # every live trial has had the same number of steps
    while True:
        going = (u >= total) & (center[live] > a) & (mass > 0)
        if not going.any():
            break
        live, u, mass, total = live[going], u[going], mass[going], total[going]
        mass *= (m[live] - a) / (a + 1) * odds[live]
        total += mass
        a += 1
        above[live] = a
    return threshold, above


def _as_values(values: np.ndarray, counts: np.ndarray, threshold: np.ndarray, k: int) -> None:
    """Maps a tile's uniforms V, laid out as `tight_tile` reads its values,
    to values in place. In u-space, a winner's reward is the larger of two
    uniforms, √V, and a loser's the smaller, 1 - √V; the center's rewards
    are uniform on (T, 1) above T and on (0, T) below it. An edge's value is
    lo + u/k with lo = 1 - 1/k. A one-trial tile scales by broadcasting, so
    at the k cap it holds no per-cell copy of T."""
    won, lost, high, low = np.cumsum(counts.sum(axis=1))
    np.sqrt(values[:lost], out=values[:lost])
    np.subtract(1.0, values[won:lost], out=values[won:lost])
    above, below = values[lost:high], values[high:low]
    top = bottom = threshold
    if len(threshold) > 1:
        top, bottom = np.repeat(threshold, counts[2]), np.repeat(threshold, counts[3])
    above *= 1.0 - top
    above += top
    below *= bottom
    lo = 1.0 - 1.0 / k
    values *= 1.0 - lo
    values += lo


def _tight_trials(k: int, trials: int, seed: int):
    """Per block of TIGHT_BLOCK trials, the trials' totals (alg, opt).

    Each trial draws only the order statistics that the policy reads. It
    puts L ~ U{0..k} leaves before the center; W ~ Bin(L, ½) of their edges
    beat their sample (`_winners`); T is the largest of the center's
    m = k - L samples, and A ~ Bin(m, 1 - T) of its rewards exceed T
    (`_center_draws`); then the k rewards are drawn by kind (`_as_values`).
    That is k + 3 draws and ceil(k/64) raw words, against 2k draws for
    every reward and sample. Eight streams spawned from
    SeedSequence((seed, 0)) hold, in this order: L, W, T and A (drawn per
    block), then the winners', losers', above-T and below-T rewards, trial
    after trial. Each block is evaluated in tiles of about TIGHT_TILE_CELLS
    cells, one float buffer for all k rewards of the tile's trials, so the
    memory is bounded by the tile, not by --trials; every call reads the
    next draws of its stream, so each trial's totals depend on neither the
    tile nor the block."""
    leaves_rng, winners_rng, threshold_rng, above_rng, *value_rngs = (
        np.random.default_rng(s) for s in np.random.SeedSequence((seed, 0)).spawn(8)
    )
    tile = max(1, TIGHT_TILE_CELLS // k)
    for start in range(0, trials, TIGHT_BLOCK):
        leaves = leaves_rng.integers(0, k + 1, size=min(TIGHT_BLOCK, trials - start))
        won = _winners(winners_rng, leaves, k)
        center = k - leaves
        threshold, above = _center_draws(threshold_rng, above_rng, center)
        counts = np.stack((won, leaves - won, above, center - above))
        alg = np.empty(len(leaves))
        opt = np.empty(len(leaves))
        for first in range(0, len(leaves), tile):
            rows = slice(first, first + tile)
            tile_counts = counts[:, rows]
            values = np.empty(tile_counts.shape[1] * k)
            ends = np.cumsum(tile_counts.sum(axis=1))
            for rng, begin, end in zip(value_rngs, (0, *ends[:3]), ends):
                rng.random(out=values[begin:end])
            _as_values(values, tile_counts, threshold[rows], k)
            alg[rows], opt[rows] = tight_tile(tile_counts, values)
        yield alg, opt


def tight_example(k: int, trials: int = 100_000, seed: int = 0) -> RatioReport:
    """Star graph with IID uniform [1-1/k, 1] edges under the random-vertex
    partition: the ratio approaches 4 from below as k grows.

    The partition depends only on how many leaves precede the center in the
    vertex order, uniform on 0..k; the edges are IID, so by exchangeability
    the first that many edges can be the leaf-owned ones, and the policy
    reads only order statistics of their rewards and samples, which each
    trial draws directly (`_tight_trials`; tests check `tight_tile` against
    the traced policy, the draws' law against brute force, and the results
    against `estimate_ratio` and the exact E_ALG).
    """
    if k < 2:
        raise InputError("--k", "need k >= 2")
    if k > TIGHT_K_CAP:
        raise CapExceededError(f"tight example capped at k <= {TIGHT_K_CAP}")
    if trials < 1:
        raise InputError("--trials", "need trials >= 1")
    start_time = time.perf_counter()
    sums = ((alg.sum(), (alg * alg).sum(), opt.sum(), (opt * opt).sum())
            for alg, opt in _tight_trials(k, trials, seed))
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
        ratio=competitive_ratio(mean_opt, mean_alg),
        ci=float(half[0]),
        seed=seed,
        wall_ms=wall_ms,
        trials=trials,
        instance=f"star-k{k}",
    )


# ---------------------------------------------------------------------------
# Report fields
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
    """The report's fields in CSV_HEADER order, shared by CSV and JSON."""
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
