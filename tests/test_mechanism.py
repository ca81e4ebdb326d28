import csv
import dataclasses
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

import sspilab.exact as exact
import sspilab.mechanism as mechanism
from sspilab.cli import main
from sspilab.core import (
    VERTEX_ORDERS, InputError, TaggedValue, chunk_orders, discrete, draw_trials, exponential,
    point_mass, trial_rng, uniform,
)
from sspilab.exact import ConfigEnsemble, TrialBatch, policy_run, reduction_partitions
from sspilab.feasibility import (
    GeneralMatching,
    Graphic,
    SimplePartition,
    Solution,
    Transversal,
    TruncatedPartition,
    exact_optimum,
    graphic_partition,
)
from sspilab.generators import random_instance, star_graphic_instance
from sspilab.harness import MC_CHUNK, WORKERS_ENV
from sspilab.instances import Instance, instance_to_document
from sspilab.mechanism import (
    MECHANISM_CSV_HEADER,
    PAYMENT_RULE,
    estimate_mechanism_ratios,
    mechanism_report_fields,
    mechanism_trials,
    optimal_posted_price_revenue,
    run_opm,
)
from sspilab.policies import PolicyDecision, PolicyTrace, run_policy

from conftest import tv, vertex_order


RANK1 = Instance(
    "rank1-pair",
    TruncatedPartition(((0, 1),), (1,), 1),
    {0: exponential(1.0), 1: exponential(1.0)},
)


def vectors(pricing, reserve, vals):
    mk = lambda d: {e: tv(v, 0.5, e) for e, v in d.items()}
    return mk(pricing), mk(reserve), mk(vals)


class TestRunOpm:
    def test_hand_trace_reserve_binds(self):
        pricing, reserve, vals = vectors(
            {0: 3, 1: 1}, {0: 8, 1: 2}, {0: 10, 1: 7}
        )
        out = run_opm(RANK1, "rank1", pricing, reserve, vals, (0, 1))
        assert out.winners == frozenset({0})
        assert out.payments == {0: 8}
        assert out.welfare == 10 and out.revenue == 8

    def test_reserve_above_valuation_drops_winner(self):
        pricing, reserve, vals = vectors(
            {0: 3, 1: 1}, {0: 12, 1: 2}, {0: 10, 1: 7}
        )
        out = run_opm(RANK1, "rank1", pricing, reserve, vals, (0, 1))
        assert out.winners == frozenset()
        assert out.revenue == 0 and out.welfare == 0

    def test_no_winner_when_nothing_beats_pricing(self):
        pricing, reserve, vals = vectors(
            {0: 9, 1: 9}, {0: 0.5, 1: 0.5}, {0: 5, 1: 5}
        )
        out = run_opm(RANK1, "rank1", pricing, reserve, vals, (0, 1))
        assert out.winners == frozenset()
        assert out.welfare == 0 and out.revenue == 0

    def test_mismatched_lengths(self):
        pricing, reserve, vals = vectors({0: 3}, {0: 1, 1: 2}, {0: 5, 1: 6})
        with pytest.raises(ValueError):
            run_opm(RANK1, "rank1", pricing, reserve, vals, (0, 1))

    def test_individual_rationality_random(self, rng):
        for _ in range(60):
            inst = random_instance("truncated-partition", int(rng.integers(1, 6)), rng)
            n = inst.ground_size
            stream = np.random.default_rng(int(rng.integers(0, 10_000)))
            draw = lambda: {
                e: TaggedValue(float(stream.uniform(0, 5)), stream.random(), e)
                for e in range(n)
            }
            pricing, reserve, vals = draw(), draw(), draw()
            order = sorted(range(n), key=lambda e: vals[e].key)
            out = run_opm(inst, "laminar", pricing, reserve, vals, order)
            policy_winners = out.trace.chosen.chosen
            assert out.winners <= policy_winners
            for e in out.winners:
                assert out.payments[e] <= vals[e].value
                assert vals[e].value >= reserve[e].value
            for e in policy_winners - out.winners:
                assert vals[e].value < reserve[e].value
            # Reserve filtering never raises welfare above the policy's take.
            assert out.welfare <= sum(vals[e].value for e in policy_winners) + 1e-12


class TestPostedPriceBenchmark:
    def test_single_exponential_agent(self):
        price, revenue = optimal_posted_price_revenue({0: exponential(1.0)})
        assert price == pytest.approx(1.0, abs=2e-3)
        assert revenue == pytest.approx(np.exp(-1.0), abs=1e-4)

    def test_point_mass_atom_is_candidate(self):
        price, revenue = optimal_posted_price_revenue({0: point_mass(3.0)})
        assert price == 3.0 and revenue == 3.0

    def test_discrete_pair(self):
        # Selling at 4 to either of two buyers with P[v=4] = 1/2 each beats
        # selling at 1 for sure: 4 * (1 - 1/4) = 3.
        d = discrete([1.0, 4.0], [0.5, 0.5])
        price, revenue = optimal_posted_price_revenue({0: d, 1: d})
        assert price == 4.0 and revenue == pytest.approx(3.0)

    @staticmethod
    def _prob_at_least(d, x):
        # The scalar law tails of the price scan below.
        if d.kind == "point-mass":
            return 1.0 if d.params[0] >= x else 0.0
        if d.kind == "discrete":
            return sum(w for v, w in zip(d.atoms, d.weights) if v >= x)
        if d.kind == "uniform":
            a, b = d.params
            return min(1.0, max(0.0, (b - x) / (b - a)))
        return math.exp(-d.params[0] * x) if x > 0 else 1.0

    def _scan(self, distributions, grid_points):
        # The one-price-at-a-time scan that the batched benchmark replaced.
        candidates, hi = set(), 0.0
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
        best_price, best_revenue = 0.0, 0.0
        for p in sorted(set(np.linspace(0.0, hi, grid_points + 1).tolist()) | candidates):
            miss = 1.0
            for d in distributions.values():
                miss *= 1.0 - self._prob_at_least(d, p)
            revenue = p * (1.0 - miss)
            if revenue > best_revenue:
                best_price, best_revenue = p, revenue
        return best_price, best_revenue

    def test_matches_the_price_scan(self, rng):
        # Point masses and discrete atoms sit on grid points, where a price
        # is both a candidate and a grid price and revenues tie.
        for _ in range(300):
            hi = float(rng.integers(1, 9))
            grid_points = int(rng.choice([8, 40, 4000]))
            on_grid = np.linspace(0.0, hi, grid_points + 1)
            dists = {0: uniform(0.0, hi)} if rng.random() < 0.5 else {0: point_mass(hi)}
            for e in range(1, int(rng.integers(1, 6))):
                kind = rng.integers(4)
                if kind == 0:
                    dists[e] = point_mass(float(rng.choice(on_grid)))
                elif kind == 1:
                    size = int(rng.integers(1, 4))
                    atoms = np.sort(rng.choice(on_grid, size=size, replace=False))
                    weights = rng.dirichlet(np.ones(len(atoms)))
                    weights[-1] = 1.0 - weights[:-1].sum()
                    dists[e] = discrete(atoms.tolist(), weights.tolist())
                elif kind == 2:
                    a = float(rng.uniform(0.0, hi))
                    dists[e] = uniform(a, float(rng.uniform(a + 0.1, hi + 1.0)))
                else:
                    dists[e] = exponential(float(rng.choice([0.5, 1.0, 2.0, 3.7])))
            want = self._scan(dists, grid_points)
            assert optimal_posted_price_revenue(dists, grid_points) == want, dists
        assert optimal_posted_price_revenue({0: point_mass(0.0)}) == (0.0, 0.0)


class TestEstimateRatios:
    def test_regime_required(self):
        inst = star_graphic_instance(3)  # uniform, not flagged mhr
        with pytest.raises(InputError, match="--regime"):
            estimate_mechanism_ratios(inst, "reduction-graphic", trials=10, seed=0)

    def test_iid_regular_declaration_checked(self):
        bad = Instance(
            "mixed",
            TruncatedPartition(((0, 1),), (1,), 1),
            {0: uniform(0, 1), 1: uniform(0, 2)},
        )
        with pytest.raises(InputError, match="--regime"):
            estimate_mechanism_ratios(bad, "rank1", trials=10, seed=0, regime="iid-regular")

    def test_rank1_bound_and_fields(self):
        inst = Instance(
            "rank1-exp3",
            TruncatedPartition(((0, 1, 2),), (1,), 1),
            {e: exponential(1.0) for e in range(3)},
        )
        rep = estimate_mechanism_ratios(inst, "rank1", trials=4000, seed=2)
        assert rep.regime == "mhr"
        assert rep.revenue_benchmark_kind == "posted-price-optimal"
        assert rep.welfare_ratio <= 4.0
        assert rep.table_bound == 4.0
        fields = mechanism_report_fields(rep)
        assert fields["payment_rule"].startswith("max(critical")

    def test_combinatorial_revenue_labeled_as_upper_bound(self, rng):
        inst = random_instance("transversal", 3, rng)
        inst = Instance(
            inst.name, inst.structure,
            {e: exponential(1.0) for e in range(3)},
        )
        rep = estimate_mechanism_ratios(inst, "transversal", trials=500, seed=1)
        assert rep.revenue_benchmark_kind == "welfare-optimum-upper-bound"

    def test_iid_regular_uniform_accepted(self):
        inst = Instance(
            "u-pair",
            TruncatedPartition(((0, 1),), (1,), 1),
            {e: uniform(0, 1) for e in range(2)},
        )
        rep = estimate_mechanism_ratios(
            inst, "rank1", trials=500, seed=1, regime="iid-regular"
        )
        assert rep.regime == "iid-regular"

    def test_all_zero_rank1_ratios_are_one(self):
        # Both means are 0: every ratio is 0/0, reported as 1 with no spread,
        # as simulate reports it in both modes.
        inst = Instance(
            "zeros",
            TruncatedPartition(((0, 1, 2),), (1,), 1),
            {e: point_mass(0.0) for e in range(3)},
        )
        rep = estimate_mechanism_ratios(
            inst, "rank1", trials=50, seed=0, regime="iid-regular"
        )
        assert (rep.mech_welfare, rep.opt_welfare, rep.revenue) == (0.0, 0.0, 0.0)
        assert rep.welfare_ratio == 1.0
        assert rep.welfare_ratio_halfwidth == 0.0
        assert rep.revenue_ratio == 1.0


def _pin_distributions(n):
    palette = [
        exponential(1.0), uniform(0.0, 2.0, mhr=True), point_mass(1.0, mhr=True),
        discrete([0.5, 1.5], [0.5, 0.5], mhr=True), exponential(0.5),
    ]
    return {e: palette[e % len(palette)] for e in range(n)}


_PIN_EDGES = ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2))
_PIN_INSTANCES = {
    "rank1": Instance(
        "pin-rank1", TruncatedPartition(((0, 1, 2, 3),), (1,), 1), _pin_distributions(4)
    ),
    "matching": Instance("pin-matching", GeneralMatching(4, _PIN_EDGES), _pin_distributions(5)),
    "transversal": Instance(
        "pin-transversal", Transversal(4, 3, ((0, 1), (0,), (1, 2), (2,))),
        _pin_distributions(4),
    ),
    "laminar": Instance(
        "pin-laminar", TruncatedPartition(((0, 1), (2, 3), (4,)), (1, 2, 1), 3),
        _pin_distributions(5),
    ),
    "reduction-graphic": Instance("pin-graphic", Graphic(4, _PIN_EDGES), _pin_distributions(5)),
    "reduction-custom": Instance(
        "pin-custom", Graphic(4, _PIN_EDGES), _pin_distributions(5),
        SimplePartition(((0, 1), (2,), (3, 4))), 2.0,
    ),
}

_PAYMENT = "max(critical-price-at-acceptance, lazy-reserve)"
_UPPER = "welfare-optimum-upper-bound"

# Every report field but wall_ms at 100 trials, seed 7, recorded before the
# traced layer's greedy walks and partitions were merged; compared exactly.
MECHANISM_PINS = {
    "rank1": dict(
        welfare_ratio=2.1079415301094486, welfare_ratio_halfwidth=0.5104619152902438,
        mech_welfare=0.7727012639153561, opt_welfare=1.6288090845752405,
        revenue=0.6292039971660733, revenue_ratio=1.6894532136974307,
        revenue_benchmark=1.0630107150834918, revenue_benchmark_kind="posted-price-optimal",
        table_bound=4.0,
    ),
    "matching": dict(
        welfare_ratio=2.867654867008322, welfare_ratio_halfwidth=0.8556697445420136,
        mech_welfare=1.0763697622648247, opt_welfare=3.086656987459315,
        revenue=0.7790240298180504, revenue_ratio=3.9622102391119274,
        revenue_benchmark=3.086656987459315, revenue_benchmark_kind=_UPPER,
        table_bound=64.0,
    ),
    "transversal": dict(
        welfare_ratio=2.1919909249036955, welfare_ratio_halfwidth=0.3227508455374477,
        mech_welfare=1.6242693917710909, opt_welfare=3.5603837663610767,
        revenue=1.3485159691463056, revenue_ratio=2.640223659060575,
        revenue_benchmark=3.5603837663610767, revenue_benchmark_kind=_UPPER,
        table_bound=16.0,
    ),
    "laminar": dict(
        welfare_ratio=1.8374925212390092, welfare_ratio_halfwidth=0.33985126895416473,
        mech_welfare=2.7001767596093367, opt_welfare=4.961554601805538,
        revenue=1.818911134114259, revenue_ratio=2.7277608612922304,
        revenue_benchmark=4.961554601805538, revenue_benchmark_kind=_UPPER,
        table_bound=16.0,
    ),
    # Re-recorded when the vertex orders moved to the chunks' order streams.
    "reduction-graphic": dict(
        welfare_ratio=2.513983510546827, welfare_ratio_halfwidth=0.55273071638635,
        mech_welfare=1.9684149129432376, opt_welfare=4.9485626330537675,
        revenue=1.2717659985281926, revenue_ratio=3.891095247695496,
        revenue_benchmark=4.9485626330537675, revenue_benchmark_kind=_UPPER,
        table_bound=8.0,
    ),
    "reduction-custom": dict(
        welfare_ratio=2.3406588756462186, welfare_ratio_halfwidth=0.47052848973887457,
        mech_welfare=2.114175066064485, opt_welfare=4.9485626330537675,
        revenue=1.559502941331894, revenue_ratio=3.173166591675323,
        revenue_benchmark=4.9485626330537675, revenue_benchmark_kind=_UPPER,
        table_bound=8.0,
    ),
}


@pytest.mark.parametrize("policy", list(MECHANISM_PINS))
def test_mechanism_report_pins(policy):
    inst = _PIN_INSTANCES[policy]
    rep = estimate_mechanism_ratios(inst, policy, trials=100, seed=7)
    got = dataclasses.asdict(rep)
    got.pop("wall_ms")
    want = dict(
        policy=policy, regime="mhr", trials=100, seed=7, payment_rule=_PAYMENT,
        instance=inst.name, **MECHANISM_PINS[policy],
    )
    assert got == want


# ---------------------------------------------------------------------------
# The batched mechanism against the scalar run_opm loop on the same draws
# ---------------------------------------------------------------------------

_KINDS = {
    "matching": "matching",
    "transversal": "transversal",
    "laminar": "truncated-partition",
    "rank1": "rank1",
    "reduction-graphic": "graphic",
    "reduction-custom": "simple-partition",
}
_LAWS = [
    discrete([0.0, 1.0, 2.5], [0.2, 0.3, 0.5]), discrete([0.5, 1.5], [0.5, 0.5]),
    uniform(0.0, 2.0), uniform(1.0, 1.25), point_mass(0.0), point_mass(1.0),
    exponential(1.5),
]


def _mechanism_instance(policy, rng):
    inst = random_instance(_KINDS[policy], int(rng.integers(1, 8)), rng)
    n = inst.ground_size
    laws = {e: _LAWS[int(rng.integers(0, len(_LAWS)))] for e in range(n)}
    inst = dataclasses.replace(inst, distributions=laws)
    if policy == "reduction-custom":
        labels = rng.integers(0, n + 1, size=n)  # label n leaves an element out
        groups = (tuple(int(e) for e in np.flatnonzero(labels == g)) for g in range(n))
        inst = dataclasses.replace(
            inst, partition=SimplePartition(tuple(g for g in groups if g)), partition_alpha=2.0,
        )
    return inst


def _scalar_trial(inst, policy, seed, t, vertex_ranks=None):
    """Trial t of the scalar loop: its draws, run_opm and the optimum. A
    reduction-graphic trial runs on the partition of its vertex order,
    given as its column of the batch's `vertex_ranks`."""
    rng = trial_rng(seed, t)
    draws = ({}, {}, {})  # pricing, reserve, valuations
    for e in range(inst.ground_size):
        d = inst.distributions[e]
        for vector in draws:
            vector[e] = TaggedValue(d.sample(rng), rng.random(), e)
    pricing, reserve, valuations = draws
    order = sorted(range(inst.ground_size), key=lambda e: valuations[e].key)
    if policy == "reduction-graphic":
        sigma = vertex_order(vertex_ranks)
        partition, _ = graphic_partition(inst.structure, sigma=sigma)
        inst, policy = dataclasses.replace(inst, partition=partition), "reduction-custom"
    out = run_opm(inst, policy, pricing, reserve, valuations, order)
    return draws, out, exact_optimum(inst.structure, valuations).total


def _close(a, b):
    return a == pytest.approx(b, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("policy", list(_KINDS))
def test_batch_matches_scalar_mechanism(policy, rng):
    for i in range(5):
        inst = _mechanism_instance(policy, rng)
        seed = int(rng.integers(0, 99))
        trials = range(25 * i, 25 * i + 25)
        got = mechanism_trials(inst, policy, seed, trials)
        for k, t in enumerate(trials):
            ranks = None if got.vertex_ranks is None else got.vertex_ranks[:, k]
            (pricing, reserve, valuations), want, opt = _scalar_trial(inst, policy, seed, t, ranks)
            rewards, samples = got.batch.tagged(k)
            assert (samples, rewards) == (pricing, valuations)
            assert got.reserves[:, k].tolist() == [reserve[e].value for e in sorted(reserve)]
            assert set(np.flatnonzero(got.accepted[:, k]).tolist()) == want.trace.chosen.chosen
            assert set(np.flatnonzero(got.winners[:, k]).tolist()) == want.winners
            for e, pay in want.payments.items():
                assert _close(got.payments[e, k], pay), (t, e)
            assert _close(got.welfare[k], want.welfare)
            assert _close(got.revenue[k], want.revenue)
            assert _close(got.opt[k], opt)


@pytest.mark.parametrize("policy", list(_KINDS))
def test_prices_are_the_traced_critical_values(policy, rng):
    # The price of every accepted (element, trial) on its own, not through
    # max(price, reserve), where a reserve above it would hide it.
    for i in range(4):
        inst = _mechanism_instance(policy, rng)
        fs, n = inst.structure, inst.ground_size
        draws = draw_trials([inst.distributions[e] for e in range(n)], i, range(40))
        batch = TrialBatch(fs, draws)
        ranks = None
        if policy == "reduction-graphic":
            ranks = chunk_orders(i, range(40), fs.edge_ends[0], VERTEX_ORDERS)
        ((grouping, _),) = reduction_partitions(inst, policy, ranks)
        orders = np.argsort(-batch.ridx, axis=0)
        run = policy_run(batch, policy, orders, grouping)
        critical = run.price()
        for t in range(batch.num_configs):
            rewards, samples = batch.tagged(t)
            name, partition = policy, inst.partition
            if policy == "reduction-graphic":
                partition, _ = graphic_partition(fs, sigma=vertex_order(ranks[:, t]))
                name = "reduction-custom"
            trace = run_policy(name, fs, samples, rewards, orders[:, t].tolist(),
                               partition=partition)
            want = {d.element: d.critical_value for d in trace.decisions if d.accepted}
            assert set(np.flatnonzero(run.accepted[:, t]).tolist()) == set(want)
            for e, value in want.items():
                assert critical[e, t] == value, (i, t, e)


@pytest.mark.parametrize("policy", [p for p in _KINDS if p != "reduction-graphic"])
def test_exact_prices_are_the_traced_critical_values(policy, rng):
    # An exact ensemble has one sample path for all its configurations.
    for i in range(3):
        inst = _mechanism_instance(policy, rng)
        reals = inst.draw_realizations(trial_rng(i, 0))
        ens = ConfigEnsemble(inst.structure, reals)
        orders = np.argsort(-ens.ridx, axis=0)
        ((grouping, _),) = reduction_partitions(inst, policy)
        run = policy_run(ens, policy, orders, grouping)
        critical = run.price()
        for mask in range(ens.num_configs):
            rewards, samples = {}, {}
            for r in reals:
                high = (mask >> r.element) & 1
                rewards[r.element], samples[r.element] = (r.y, r.z) if high else (r.z, r.y)
            trace = run_policy(policy, inst.structure, samples, rewards,
                               orders[:, mask].tolist(), partition=inst.partition)
            want = {d.element: d.critical_value for d in trace.decisions if d.accepted}
            assert set(np.flatnonzero(run.accepted[:, mask]).tolist()) == set(want)
            for e, value in want.items():
                assert critical[e, mask] == value, (i, mask, e)


def test_reduction_graphic_draws_its_vertex_order_last(rng):
    # A trial's stream holds its pricing, reserve and valuation draws only;
    # the vertex orders come from the chunk's vertex-order stream, keyed by
    # its first trial.
    inst = _mechanism_instance("reduction-graphic", rng)
    got = mechanism_trials(inst, "reduction-graphic", 3, range(30))
    for t in range(30):
        stream = trial_rng(3, t)
        valuations, pricing = got.batch.tagged(t)
        for e, law in inst.distributions.items():
            (p, pt), (r, _), (v, vt) = [(law.sample(stream), stream.random()) for _ in range(3)]
            assert pricing[e] == TaggedValue(p, pt, e) and valuations[e] == TaggedValue(v, vt, e)
            assert got.reserves[e, t] == r
    order_stream = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(0, VERTEX_ORDERS)))
    touched = inst.structure.edge_ends[0]
    want = order_stream.permuted(np.tile(np.arange(touched)[:, None], (1, 30)), axis=0)
    assert np.array_equal(got.vertex_ranks, want)


def test_isolated_vertices_take_no_memory():
    # 2 matching edges on 10**5 vertices: the vertex thresholds once held a
    # row per declared vertex, 24.5 MiB at 256 trials.
    inst = Instance("sparse", GeneralMatching(10**5, ((0, 1), (2, 3))),
                    {e: uniform(0.0, 1.0) for e in range(2)})
    mechanism_trials(inst, "matching", 1, range(256))  # first calls untraced
    tracemalloc.start()
    try:
        mechanism_trials(inst, "matching", 1, range(256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_mechanism_reports_agree_across_workers(monkeypatch, rng):
    for kind, policy in (("transversal", "transversal"), ("graphic", "reduction-graphic")):
        inst = random_instance(kind, 5, rng)
        inst = dataclasses.replace(inst, distributions={e: exponential(1.0) for e in range(5)})
        reports = []
        for workers in ("1", "2"):
            monkeypatch.setenv(WORKERS_ENV, workers)
            rep = estimate_mechanism_ratios(inst, policy, trials=MC_CHUNK + 3, seed=4)
            reports.append({**dataclasses.asdict(rep), "wall_ms": None})
        assert reports[0] == reports[1], policy


def _mechanism_file(tmp_path):
    inst = Instance(
        "r1", TruncatedPartition(((0, 1, 2),), (1,), 1),
        {e: exponential(1.0) for e in range(3)},
    )
    path = tmp_path / "mech.json"
    path.write_text(json.dumps(instance_to_document(inst)))
    return str(path)


def test_mechanism_csv_report(tmp_path, capsys):
    code = main(["--trials", "50", "--format", "csv", "mechanism",
                 "--instance", _mechanism_file(tmp_path), "--policy", "rank1"])
    assert code == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert tuple(header) == MECHANISM_CSV_HEADER and len(header) == 15
    assert len(rows) == 1
    assert dict(zip(header, rows[0]))["payment_rule"] == PAYMENT_RULE


def test_individual_rationality_violation_exits_4(tmp_path, monkeypatch, capsys):
    # A critical price above the valuation is a fault of the program: the
    # check raises RuntimeError (kept under python -O), which exits 4.
    monkeypatch.setattr(
        exact, "_laminar_critical", lambda batch, accepted: np.full(accepted.shape, 1e9),
    )
    code = main(["--trials", "50", "mechanism", "--instance", _mechanism_file(tmp_path),
                 "--policy", "laminar"])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: internal error: RuntimeError: individual rationality")
    assert "Traceback" not in err


def test_run_opm_individual_rationality_raises(monkeypatch):
    def overpriced(policy, structure, samples, rewards, order, **kw):
        trace = PolicyTrace(policy, {})
        trace.decisions.append(PolicyDecision(0, rewards[0], True, "forced", 1e9))
        trace.chosen = Solution(frozenset({0}), rewards[0].value)
        return trace

    monkeypatch.setattr(mechanism, "run_policy", overpriced)
    pricing, reserve, vals = vectors({0: 3, 1: 1}, {0: 1, 1: 2}, {0: 10, 1: 7})
    with pytest.raises(RuntimeError, match="individual rationality"):
        run_opm(RANK1, "rank1", pricing, reserve, vals, (0, 1))
