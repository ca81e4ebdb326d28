"""The batched Monte Carlo engine against the traced policies and oracles.

`harness.mc_trials` draws a chunk of trials in bulk and evaluates them as one
batch; the traced `run_policy`, `exact_optimum` and `greedy_prophet` on each
trial's tagged rewards and samples are the reference.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import sspilab.core as harness_core
import sspilab.harness as harness
from sspilab.core import (
    ARRIVAL_ORDERS, VERTEX_ORDERS, TaggedValue, TrialDraws, chunk_orders, discrete, exponential,
    point_mass, trial_rng, uniform,
)
from sspilab.exact import TrialBatch
from sspilab.feasibility import (
    GeneralMatching,
    Graphic,
    SimplePartition,
    Transversal,
    exact_optimum,
    graphic_partition,
    greedy_prophet,
)
from sspilab.generators import random_instance
from sspilab.harness import MC_CHUNK, WORKERS_ENV, estimate_ratio, mc_trials, report_fields
from sspilab.instances import Instance
from sspilab.policies import adversarial_order, run_policy

from conftest import several_group_rank1, vertex_order

KINDS = {
    "matching": "matching",
    "transversal": "transversal",
    "laminar": "truncated-partition",
    "rank1": "rank1",
    "reduction-graphic": "graphic",
    "reduction-custom": "simple-partition",
}


def _instance(policy, n, rng, zeros):
    inst = random_instance(KINDS[policy], n, rng)
    if zeros:  # point masses at 0 on some elements
        dists = dict(inst.distributions)
        for e in rng.choice(n, size=1 + n // 3, replace=False):
            dists[int(e)] = point_mass(0.0)
        inst = replace(inst, distributions=dists)
    if policy == "reduction-custom":
        labels = rng.integers(0, n + 1, size=n)  # label n leaves an element out
        groups = (tuple(int(e) for e in np.flatnonzero(labels == g)) for g in range(n))
        inst = replace(
            inst, partition=SimplePartition(tuple(g for g in groups if g)),
            partition_alpha=2.0,
        )
    return inst


def _close(a, b):
    return a == pytest.approx(b, rel=1e-12, abs=1e-300)


def _check_against_traced(inst, policy, adversary, out):
    """Every trial of `out` against the traced policy and oracles on the
    same draws, order and partition."""
    fs = inst.structure
    batch = out.batch
    for t in range(batch.num_configs):
        rewards, samples = batch.tagged(t)
        if adversary == "fixed":
            order = tuple(range(batch.n))
        elif adversary == "random":
            order = tuple(int(e) for e in out.orders[:, t])
        else:
            order = adversarial_order(policy, fs, samples, rewards, adversary).order
        name, partition = policy, inst.partition
        if policy == "reduction-graphic":
            partition, _ = graphic_partition(fs, sigma=vertex_order(out.vertex_ranks[:, t]))
            name = "reduction-custom"
        chosen = run_policy(name, fs, samples, rewards, order, partition=partition).chosen.chosen
        got = set(np.flatnonzero(out.accepted[:, t]).tolist())
        want_alg = math.fsum(rewards[e].value for e in chosen)
        if policy == "matching" and adversary == "exhaustive-min":
            # Exactly tied minimum matchings may differ; their totals agree.
            assert _close(out.alg[t], want_alg), (t, got, chosen)
        else:
            assert got == chosen, (t, order)
            assert _close(out.alg[t], want_alg)
        assert _close(out.opt[t], exact_optimum(fs, rewards).total), t
        assert _close(out.opt_prime[t], greedy_prophet(fs, rewards).total), t
        z_got = sorted(np.flatnonzero(out.z_violations[:, t]).tolist())
        assert z_got == sorted(e for e in got if rewards[e] < samples[e])


@pytest.mark.parametrize("policy", list(KINDS))
@pytest.mark.parametrize("adversary", ["fixed", "increasing", "random", "exhaustive-min"])
def test_batch_matches_traced_policies(policy, adversary, rng):
    for i in range(4):
        inst = _instance(policy, int(rng.integers(1, 8)), rng, zeros=i % 2 == 0)
        seed = int(rng.integers(0, 99))
        out = mc_trials(inst, policy, adversary, seed, range(30 * i, 30 * i + 30))
        _check_against_traced(inst, policy, adversary, out)


@pytest.mark.parametrize("adversary", ["fixed", "increasing", "random", "exhaustive-min"])
def test_rank1_on_several_groups_matches_traced_policy(adversary, rng):
    # Batched rank1 runs as one group of capacity 1 (see test_exact).
    for i in range(4):
        inst = several_group_rank1(int(rng.integers(2, 8)), rng, zeros=i % 2 == 0)
        out = mc_trials(inst, "rank1", adversary, int(rng.integers(0, 99)), range(40))
        _check_against_traced(inst, "rank1", adversary, out)


def test_draws_without_coins_reward_draw_zero(rng):
    # The mechanism's layout: no coins, so draw 0 is the reward and draw 1
    # the sample, whichever is larger. Point masses tie the two values, and
    # their tokens decide the path order.
    n, trials = 7, 40
    inst = random_instance("transversal", n, rng)
    values = rng.random((2 * n, trials))
    point = rng.random(n) < 0.5
    values[n:][point] = values[:n][point] = rng.choice([0.0, 0.5], size=(int(point.sum()), 1))
    tokens = rng.random((2 * n, trials))
    batch = TrialBatch(inst.structure, TrialDraws(values, tokens, None))
    assert np.array_equal(batch.values_at(batch.ridx), values[:n])
    assert np.array_equal(batch.values_at(batch.sidx), values[n:])
    for t in range(trials):
        path = sorted(((values[r, t], tokens[r, t], r % n), r) for r in range(2 * n))[::-1]
        at = {r: j for j, (_, r) in enumerate(path)}
        assert batch.ridx[:, t].tolist() == [at[e] for e in range(n)]
        assert batch.sidx[:, t].tolist() == [at[e + n] for e in range(n)]
        for got, rows in zip(batch.tagged(t), (range(n), range(n, 2 * n))):
            assert got == {r % n: TaggedValue(values[r, t], tokens[r, t], r % n) for r in rows}


def test_draws_do_not_depend_on_adversary(rng):
    # The random adversary's orders come from a stream of their own, so
    # every trial's values, tokens, coins and vertex ranks are the same
    # under all four adversaries.
    inst = random_instance("graphic", 6, rng)
    outs = [
        mc_trials(inst, "reduction-graphic", a, 5, range(50))
        for a in ("fixed", "increasing", "random", "exhaustive-min")
    ]
    for out in outs[1:]:
        assert np.array_equal(out.batch.values, outs[0].batch.values)
        assert np.array_equal(out.batch.tokens, outs[0].batch.tokens)
        assert np.array_equal(out.batch.ridx, outs[0].batch.ridx)
        assert np.array_equal(out.opt, outs[0].opt)
        assert np.array_equal(out.vertex_ranks, outs[0].vertex_ranks)


@pytest.mark.parametrize("policy", list(KINDS))
def test_exhaustive_min_at_most_increasing(policy, rng, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "1")
    for i in range(3):
        inst = _instance(policy, int(rng.integers(2, 8)), rng, zeros=i == 0)
        worst, inc = (
            mc_trials(inst, policy, a, 11 + i, range(200))
            for a in ("exhaustive-min", "increasing")
        )
        assert (worst.alg <= inc.alg * (1 + 1e-12)).all()
        reports = [
            estimate_ratio(inst, policy, adversary=a, trials=300, seed=i)
            for a in ("exhaustive-min", "increasing")
        ]
        assert reports[0].e_alg <= reports[1].e_alg * (1 + 1e-12)


def test_reproducible_across_workers_and_chunks(rng, monkeypatch):
    # The second chunk's orders come from its own streams, keyed by its
    # first trial, whichever worker draws them.
    for kind, policy in (("transversal", "transversal"), ("graphic", "reduction-graphic")):
        inst = random_instance(kind, 5, rng)
        fields = []
        for workers in ("1", "2"):
            monkeypatch.setenv(WORKERS_ENV, workers)
            rep = estimate_ratio(inst, policy, adversary="random", trials=MC_CHUNK + 3, seed=4)
            fields.append({**report_fields(rep), "wall_ms": None})
        assert fields[0] == fields[1], policy


def _order_stream(seed, first, kind, size, count):
    """The orders of the chunk that starts at trial `first`, as laid out:
    one `permuted` call on SeedSequence(seed, spawn_key=(first, kind))."""
    stream = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(first, kind)))
    return stream.permuted(np.tile(np.arange(size)[:, None], (1, count)), axis=0)


@pytest.mark.parametrize("adversary", ["increasing", "random"])
def test_draws_are_the_scalar_streams(adversary, rng):
    # Trial t's draws are those of the scalar code on the stream (seed, t):
    # realizations, then coins. The random orders (key 0) and the vertex
    # orders (key 1) come from the chunk's own streams.
    inst = random_instance("graphic", 7, rng)
    dists = dict(inst.distributions)
    dists[1], dists[4] = point_mass(2.0), exponential(0.5)
    dists[5] = discrete([0.0, 3.0], [0.25, 0.75])
    inst = replace(inst, distributions=dists)
    out = mc_trials(inst, "reduction-graphic", adversary, 7, range(40, 70))
    batch, n = out.batch, inst.ground_size
    for i, t in enumerate(range(40, 70)):
        stream = trial_rng(7, t)
        reals = inst.draw_realizations(stream)
        heads = [stream.random() < 0.5 for _ in range(n)]
        rewards, samples = batch.tagged(i)
        for r, h in zip(reals, heads):
            assert (rewards[r.element], samples[r.element]) == ((r.y, r.z) if h else (r.z, r.y))
    if adversary == "random":
        assert np.array_equal(out.orders, _order_stream(7, 40, ARRIVAL_ORDERS, n, 30))
    touched = len({v for edge in inst.structure.edges for v in edge})
    assert np.array_equal(out.vertex_ranks, _order_stream(7, 40, VERTEX_ORDERS, touched, 30))


def test_tied_tokens_are_redrawn(monkeypatch, rng):
    # A stream that repeats each double makes every pair of tokens tie in
    # the bulk draw; such a trial is drawn again by the scalar code, which
    # redraws the second token, so every trial's order stays strict.
    inst = random_instance("rank1", 4, rng)
    real_rng = harness_core.trial_rng

    class Repeating:
        def __init__(self, seed, t):
            self.inner = real_rng(seed, t)
            self.last = None

        def random(self, out=None):
            if out is not None:
                out[:] = np.repeat(self.inner.random((len(out) + 1) // 2), 2)[: len(out)]
                return out
            if self.last is None:
                self.last = self.inner.random()
                return self.last
            value, self.last = self.last, None
            return value

    monkeypatch.setattr(harness_core, "trial_rng", Repeating)
    laws = [uniform(0.0, 1.0)] * 4
    draws = harness_core.draw_trials(laws, 1, range(6))
    assert (draws.tokens[:4] != draws.tokens[4:]).all()


@pytest.mark.parametrize("size", [0, 1, 2, 7, 40])
def test_every_drawn_order_is_a_permutation(size):
    for first, count in ((0, 1), (2048, 300)):
        for kind in (ARRIVAL_ORDERS, VERTEX_ORDERS):
            orders = chunk_orders(3, range(first, first + count), size, kind)
            assert orders.shape == (size, count)
            assert (np.sort(orders, axis=0) == np.arange(size)[:, None]).all()
    # The two kinds and two chunks draw different orders.
    if size > 2:
        a, b = (chunk_orders(3, range(300), size, k) for k in (ARRIVAL_ORDERS, VERTEX_ORDERS))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, chunk_orders(3, range(1, 301), size, ARRIVAL_ORDERS))


@pytest.mark.parametrize("kind, policy, n", [("transversal", "transversal", 17),
                                             ("matching", "matching", 18)])
def test_scalar_optimum_beyond_the_tables(kind, policy, n, rng, monkeypatch):
    # Above EXACT_MODE_CAP elements E_OPT comes from the scalar oracle on
    # each trial; the policy itself still runs batched.
    inst = random_instance(kind, n, rng)
    out = mc_trials(inst, policy, "increasing", 3, range(12))
    _check_against_traced(inst, policy, "increasing", out)
    monkeypatch.setenv(WORKERS_ENV, "1")
    report = estimate_ratio(inst, policy, trials=40, seed=3)
    assert report.e_alg <= report.e_opt * (1 + 1e-12)


@pytest.mark.parametrize("kind, policy", [("transversal", "transversal"),
                                          ("matching", "matching")])
def test_scalar_optimum_equals_tables(kind, policy, rng, monkeypatch):
    for _ in range(3):
        inst = random_instance(kind, int(rng.integers(2, 10)), rng)
        tables = mc_trials(inst, policy, "fixed", 6, range(60))
        monkeypatch.setattr(harness, "EXACT_MODE_CAP", 0)
        scalar = mc_trials(inst, policy, "fixed", 6, range(60))
        monkeypatch.undo()
        assert np.allclose(tables.opt, scalar.opt, rtol=1e-12, atol=0)


@pytest.mark.parametrize("policy", ["rank1", "laminar", "reduction-custom"])
@pytest.mark.parametrize("adversary", ["increasing", "random"])
def test_int16_path_indices_match_traced_policies(policy, adversary, rng):
    # At n = 40 pair sums (Y index + Z index) pass 127, so the path-index
    # tables take int16, the next type that holds 4n.
    inst = _instance(policy, 40, rng, zeros=False)
    out = mc_trials(inst, policy, adversary, int(rng.integers(0, 99)), range(20))
    batch = out.batch
    assert batch.ridx.dtype == batch.sidx.dtype == batch.y_idx.dtype == np.int16
    assert (batch.ridx + batch.sidx).max() > 127
    _check_against_traced(inst, policy, adversary, out)


def test_target_nodes_wider_than_the_index_type(rng):
    # 200 right nodes on 6 left nodes: path indices fit int8, but the target
    # nodes, and the extra group past them, need int16.
    adjacency = tuple(tuple(sorted(rng.choice(200, size=3, replace=False).tolist()))
                      for _ in range(6))
    inst = Instance("wide-200", Transversal(6, 200, adjacency),
                    {e: uniform(0.0, 1.0) for e in range(6)})
    out = mc_trials(inst, "transversal", "increasing", 2, range(40))
    assert out.batch.ridx.dtype == np.int8
    assert out.batch.transversal_targets.dtype == np.int16
    _check_against_traced(inst, "transversal", "increasing", out)


def test_wide_structures_run_batched(rng):
    # 70 right nodes do not fit an int64 mask: the walks use python ints and
    # E_OPT the scalar oracle. Matching masks cover only touched vertices.
    adjacency = tuple(tuple(sorted(rng.choice(70, size=4, replace=False).tolist()))
                      for _ in range(5))
    wide = Instance("wide-t", Transversal(5, 70, adjacency),
                    {e: uniform(0.0, 1.0) for e in range(5)})
    out = mc_trials(wide, "transversal", "random", 1, range(40))
    _check_against_traced(wide, "transversal", "random", out)
    far = Instance("far-m", GeneralMatching(100, ((0, 99), (99, 50), (50, 70), (1, 2))),
                   {e: uniform(0.0, 1.0) for e in range(4)})
    out = mc_trials(far, "matching", "exhaustive-min", 1, range(40))
    _check_against_traced(far, "matching", "exhaustive-min", out)


def test_isolated_vertices_take_no_memory():
    # 2 edges on 10**5 vertices: the vertex orders and the component labels
    # once held a row per declared vertex, 875 MiB at 256 trials.
    inst = Instance("sparse", Graphic(10**5, ((0, 1), (2, 3))),
                    {e: uniform(0.0, 1.0) for e in range(2)})
    mc_trials(inst, "reduction-graphic", "random", 1, range(256))  # first calls untraced
    tracemalloc.start()
    try:
        mc_trials(inst, "reduction-graphic", "random", 1, range(256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
