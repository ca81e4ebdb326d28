import numpy as np
import pytest
from hypothesis import given, strategies as st

from sspilab.core import (
    CapExceededError,
    Configuration,
    ElementRealization,
    TaggedValue,
    assign_coins,
    build_sample_path,
    compare,
    discrete,
    draw_realization,
    enumerate_configurations,
    exponential,
    point_mass,
    trial_rng,
    uniform,
    validate_configuration,
)

from conftest import make_realizations, tv


class TestCompare:
    def test_tiebreak_decides_equal_values(self):
        assert compare(tv(5.0, 0.3, 1), tv(5.0, 0.7, 2)) == -1

    def test_value_dominates(self):
        assert compare(tv(5.0, 0.3, 1), tv(4.0, 0.9, 2)) == 1

    def test_element_id_is_final_tiebreak(self):
        assert compare(tv(5.0, 0.3, 1), tv(5.0, 0.3, 2)) == -1

    def test_identical_rejected(self):
        a = tv(5.0, 0.3, 1)
        with pytest.raises(ValueError):
            compare(a, tv(5.0, 0.3, 1))

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            tv(-1.0)

    tagged = st.builds(
        TaggedValue,
        value=st.sampled_from([0.0, 1.0, 2.0, 2.5]),
        tiebreak=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        element=st.integers(0, 3),
    )

    @given(tagged, tagged)
    def test_antisymmetry(self, a, b):
        if a.key == b.key:
            return
        assert compare(a, b) == -compare(b, a)

    @given(tagged, tagged, tagged)
    def test_transitivity(self, a, b, c):
        if len({a.key, b.key, c.key}) < 3:
            return
        if compare(a, b) == -1 and compare(b, c) == -1:
            assert compare(a, c) == -1


class TestDistributions:
    def test_discrete_weight_validation(self):
        with pytest.raises(ValueError):
            discrete([1.0, 2.0], [0.5, 0.499])
        with pytest.raises(ValueError):
            discrete([1.0], [])
        with pytest.raises(ValueError):
            discrete([1.0, 2.0], [1.5, -0.5])

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            uniform(2.0, 2.0)
        with pytest.raises(ValueError):
            uniform(-1.0, 2.0)

    def test_exponential_validation(self):
        with pytest.raises(ValueError):
            exponential(0.0)

    def test_cdf_and_tail(self):
        d = discrete([1.0, 3.0], [0.25, 0.75])
        assert d.cdf(2.0) == 0.25
        assert d.prob_at_least(3.0) == 0.75
        assert d.prob_at_least(1.0) == 1.0
        u = uniform(0.0, 2.0)
        assert u.cdf(1.0) == 0.5
        assert u.prob_at_least(1.5) == 0.25

    @pytest.mark.parametrize("dist", [
        discrete([0.0, 2.0, 7.0], [0.1, 0.2, 0.7]),
        discrete([1.0, 2.0, 3.0], [1 / 3, 1 / 3, 1 / 3]),
        uniform(1.0, 4.0),
    ])
    def test_from_uniform_is_the_scalar_sample(self, dist):
        # `sample` takes one double per draw; mapping the same doubles in
        # bulk gives the same values.
        bulk = dist.from_uniform(np.random.default_rng(8).random((3, 400)))
        rng = np.random.default_rng(8)
        assert bulk.shape == (3, 400)
        assert bulk.ravel().tolist() == [dist.sample(rng) for _ in range(1200)]

    def test_from_uniform_discrete_boundaries(self):
        d = discrete([1.0, 2.0, 3.0], [0.25, 0.25, 0.5])
        us = np.array([0.0, 0.2499, 0.25, 0.4999, 0.5, 0.9999])
        assert d.from_uniform(us).tolist() == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        with pytest.raises(ValueError):
            exponential(1.0).from_uniform(us)


class TestDrawRealization:
    def test_point_mass_ordered_by_tiebreak(self, rng):
        r = draw_realization(point_mass(7.0), 0, rng)
        assert r.y.value == 7.0 and r.z.value == 7.0
        assert r.y.tiebreak > r.z.tiebreak

    def test_uniform_relabeled(self, rng):
        for _ in range(50):
            r = draw_realization(uniform(0.0, 1.0), 3, rng)
            assert r.y > r.z
            assert r.y.element == r.z.element == 3

    def test_discrete_split_probability(self):
        # P[y=2, z=1] for a fair two-atom law is 2 * 0.5 * 0.5 = 0.5.
        d = discrete([1.0, 2.0], [0.5, 0.5])
        stream = np.random.default_rng(77)
        hits = 0
        trials = 100_000
        for _ in range(trials):
            r = draw_realization(d, 0, stream)
            hits += r.y.value == 2.0 and r.z.value == 1.0
        assert abs(hits / trials - 0.5) < 0.01


class TestSamplePath:
    def test_two_element_layout(self):
        path = build_sample_path(make_realizations([(10, 3), (7, 1)]))
        assert path.values() == (10, 7, 3, 1)
        assert path.elements() == (0, 1, 0, 1)
        assert tuple(e.label for e in path.entries) == ("Y", "Y", "Z", "Z")

    def test_single_element_partner(self):
        path = build_sample_path(make_realizations([(10, 3)]))
        assert path.values() == (10, 3)
        assert path.partner == (1, 0)

    def test_interleaving_forced_by_sorting(self):
        path = build_sample_path(make_realizations([(2, 1), (4, 3)]))
        assert path.elements() == (1, 1, 0, 0)

    def test_duplicate_ids_rejected(self):
        r = make_realizations([(5, 2)])[0]
        with pytest.raises(ValueError):
            build_sample_path([r, r])

    def test_y_precedes_z_random(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 8))
            reals = [draw_realization(uniform(0, 1), e, rng) for e in range(n)]
            path = build_sample_path(reals)
            for e in range(n):
                jy = path.y_index(e)
                assert path.entries[path.partner[jy]].label == "Z"
                assert jy < path.partner[jy]
            vals = [p.value.key for p in path.entries]
            assert vals == sorted(vals, reverse=True)


class TestConfigurations:
    def test_n1_enumeration(self):
        path = build_sample_path(make_realizations([(5, 2)]))
        coins = {c.coins for c in enumerate_configurations(path)}
        assert coins == {("H", "T"), ("T", "H")}

    def test_n2_count(self):
        path = build_sample_path(make_realizations([(10, 3), (7, 1)]))
        assert len(list(enumerate_configurations(path))) == 4

    def test_n3_distinct_and_paired(self):
        path = build_sample_path(make_realizations([(9, 1), (8, 2), (7, 3)]))
        seen = set()
        for config in enumerate_configurations(path):
            assert config.coins not in seen
            seen.add(config.coins)
            validate_configuration(path, config)
        assert len(seen) == 8

    def test_cap(self):
        path = build_sample_path(
            make_realizations([(100 - e, 50 - e) for e in range(21)])
        )
        with pytest.raises(CapExceededError):
            list(enumerate_configurations(path))

    def test_partner_coin_mismatch_rejected(self):
        path = build_sample_path(make_realizations([(5, 2)]))
        with pytest.raises(ValueError):
            validate_configuration(path, Configuration(("H", "H")))

    def test_mask_round_trip(self, rng):
        reals = [draw_realization(uniform(0, 1), e, rng) for e in range(4)]
        path = build_sample_path(reals)
        for mask in range(16):
            config = Configuration.from_heads_mask(path, mask)
            assert config.heads_mask(path) == mask


class TestAssignCoins:
    def test_deferred_decision_semantics(self, rng):
        reals = make_realizations([(5, 2)])
        for _ in range(20):
            rewards, samples, config = assign_coins(reals, rng)
            if config.coins[0] == "H":
                assert rewards[0].value == 5 and samples[0].value == 2
            else:
                assert rewards[0].value == 2 and samples[0].value == 5

    def test_four_configurations_equiprobable(self):
        reals = make_realizations([(10, 3), (7, 1)])
        path = build_sample_path(reals)
        stream = np.random.default_rng(5)
        counts = {}
        trials = 100_000
        for _ in range(trials):
            _, _, config = assign_coins(reals, stream)
            counts[config.coins] = counts.get(config.coins, 0) + 1
        assert len(counts) == 4
        for c in counts.values():
            assert abs(c / trials - 0.25) < 0.01

    def test_marginals_and_independence(self):
        reals = make_realizations([(9, 1), (8, 2), (7, 3)])
        stream = np.random.default_rng(9)
        trials = 100_000
        flips = np.empty((trials, 3))
        for t in range(trials):
            rewards, _, _ = assign_coins(reals, stream)
            flips[t] = [rewards[e].value == reals[e].y.value for e in range(3)]
        means = flips.mean(axis=0)
        assert np.all(np.abs(means - 0.5) < 0.01)
        corr = np.corrcoef(flips, rowvar=False)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 0.02)


def test_trial_streams_reproducible():
    a = trial_rng(3, 17).random(4)
    b = trial_rng(3, 17).random(4)
    c = trial_rng(3, 18).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
