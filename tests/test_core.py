import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sspilab.core import (
    ElementRealization,
    build_sample_path,
    discrete,
    draw_realization,
    exponential,
    point_mass,
    trial_rng,
    uniform,
)

from conftest import make_realizations, tv


class TestCompare:
    def test_tiebreak_decides_equal_values(self):
        assert tv(5.0, 0.3, 1) < tv(5.0, 0.7, 2)

    def test_value_dominates(self):
        assert tv(5.0, 0.3, 1) > tv(4.0, 0.9, 2)

    def test_element_id_is_final_tiebreak(self):
        assert tv(5.0, 0.3, 1) < tv(5.0, 0.3, 2)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            tv(-1.0)


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
        assert d.prob_at_least(3.0) == 0.75
        assert d.prob_at_least(1.0) == 1.0
        u = uniform(0.0, 2.0)
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

    def test_ids_beyond_0_to_n_minus_1_rejected(self):
        # Configuration bit e is element e's coin: with ids {0, 5} the masks
        # 0..3 could not show every coin vector.
        reals = [ElementRealization(e, tv(9, 0.75, e), tv(1, 0.25, e)) for e in (0, 5)]
        with pytest.raises(ValueError, match=re.escape("0..1, got ids [0, 5]")):
            build_sample_path(reals)

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
    @given(st.integers(1, 7), st.integers(0, 2**32 - 1), st.booleans())
    def test_heads_mask_is_one_coin_vector(self, n, seed, ties):
        # Partners show opposite coins, element e's Y index shows heads iff
        # bit e is set, and the 2**n masks give 2**n distinct coin vectors.
        rng = np.random.default_rng(seed)
        dist = discrete([1.0, 2.0], [0.5, 0.5]) if ties else uniform(0.0, 1.0)
        path = build_sample_path([draw_realization(dist, e, rng) for e in range(n)])
        vectors = set()
        for mask in range(1 << n):
            heads = path.heads(mask)
            assert len(heads) == path.length
            assert all(heads[j] != heads[p] for j, p in enumerate(path.partner))
            assert [heads[path.y_index(e)] for e in range(n)] == [
                bool(mask >> e & 1) for e in range(n)
            ]
            vectors.add(heads)
        assert len(vectors) == 1 << n
        for mask in (-1, 1 << n):
            with pytest.raises(ValueError):
                path.heads(mask)


def test_trial_streams_reproducible():
    a = trial_rng(3, 17).random(4)
    b = trial_rng(3, 17).random(4)
    c = trial_rng(3, 18).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
