"""Tests for the negative sampler."""

import numpy as np
import pytest

from repro.core.negative import NegativeSampler


class TestConstruction:
    def test_normalizes(self):
        s = NegativeSampler(np.asarray([2.0, 2.0]))
        assert s.vocab_size == 2
        assert s.support_size == 2

    def test_rejects_bad_distributions(self):
        with pytest.raises(ValueError):
            NegativeSampler(np.asarray([]))
        with pytest.raises(ValueError):
            NegativeSampler(np.asarray([0.5, -0.5]))
        with pytest.raises(ValueError):
            NegativeSampler(np.zeros(3))
        with pytest.raises(ValueError):
            NegativeSampler(np.ones((2, 2)))

    def test_support_counts_nonzero(self):
        s = NegativeSampler(np.asarray([0.5, 0.0, 0.5]))
        assert s.support_size == 2


class TestSampling:
    def test_distribution_matched(self, rng):
        s = NegativeSampler(np.asarray([0.1, 0.3, 0.6]))
        draws = s.sample(120000, rng)
        freq = np.bincount(draws, minlength=3) / 120000
        np.testing.assert_allclose(freq, [0.1, 0.3, 0.6], atol=0.01)

    def test_zero_mass_never_drawn(self, rng):
        s = NegativeSampler(np.asarray([0.5, 0.0, 0.5]))
        draws = s.sample(10000, rng)
        assert not np.any(draws == 1)

    def test_shape_tuple(self, rng):
        s = NegativeSampler(np.ones(4) / 4)
        assert s.sample((3, 5), rng).shape == (3, 5)

    def test_int_shape(self, rng):
        s = NegativeSampler(np.ones(4) / 4)
        assert s.sample(7, rng).shape == (7,)

    def test_avoid_reduces_collisions(self, rng):
        s = NegativeSampler(np.asarray([0.9, 0.1]))
        avoid = np.zeros((2000, 1), dtype=np.int64)
        draws = s.sample((2000, 3), rng, avoid=avoid)
        # With avoid=0 and heavy mass on 0, retries should push most
        # draws to 1 (collisions may survive max_retries occasionally).
        assert (draws == 0).mean() < 0.6

    def test_avoid_single_support_no_hang(self, rng):
        s = NegativeSampler(np.asarray([1.0]))
        draws = s.sample(5, rng, avoid=np.zeros(5, dtype=np.int64))
        assert np.all(draws == 0)  # nothing else to draw; returns anyway

    def test_deterministic_given_rng(self):
        s = NegativeSampler(np.ones(10) / 10)
        a = s.sample(100, np.random.default_rng(3))
        b = s.sample(100, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_all_draws_in_range(self, rng):
        s = NegativeSampler(np.ones(7) / 7)
        draws = s.sample(10000, rng)
        assert draws.min() >= 0 and draws.max() < 7


def _reference_ids(sampler, u):
    return np.searchsorted(sampler._cdf, u, side="right")


class TestGuideTableLookup:
    """The guide-table lookup returns exactly what ``searchsorted`` does."""

    @pytest.mark.parametrize("size", [1, 2, 7, 1000, 4099])
    def test_matches_searchsorted_on_random_distributions(self, rng, size):
        s = NegativeSampler(rng.random(size) ** 4)
        u = rng.random(200_000)
        np.testing.assert_array_equal(s._lookup(u), _reference_ids(s, u))

    def test_matches_unigram_noise(self, rng):
        counts = rng.zipf(1.5, 5000).astype(np.float64)
        s = NegativeSampler(counts**0.75)
        u = rng.random(1_000_000)
        np.testing.assert_array_equal(s._lookup(u), _reference_ids(s, u))

    def test_long_zero_mass_runs(self, rng):
        # Vertices that never appear in the corpus have zero noise mass:
        # long runs of equal CDF entries pile into single buckets.
        dist = np.zeros(50_000)
        dist[[0, 17, 20_000, 20_001, 49_000]] = [0.3, 0.1, 0.2, 0.25, 0.15]
        s = NegativeSampler(dist)
        u = np.concatenate([rng.random(200_000), s._cdf, np.nextafter(s._cdf, 0)])
        u = u[u < 1.0]
        ids = s._lookup(u)
        np.testing.assert_array_equal(ids, _reference_ids(s, u))
        assert set(np.unique(ids)) <= {0, 17, 20_000, 20_001, 49_000}
        # A bisection: steps bounded by log2 of the widest bucket, not
        # a walk across the ~30k-wide zero-mass run.
        widest = int(np.diff(s._guide).max())
        assert widest > 10_000
        assert len(s._steps) <= int(np.ceil(np.log2(widest + 1)))

    def test_leading_and_trailing_zero_mass(self, rng):
        dist = np.concatenate([np.zeros(300), rng.random(40), np.zeros(700)])
        s = NegativeSampler(dist)
        u = rng.random(100_000)
        np.testing.assert_array_equal(s._lookup(u), _reference_ids(s, u))

    def test_edge_uniforms(self, rng):
        s = NegativeSampler(rng.random(1000))
        below_one = np.nextafter(1.0, 0.0) - np.arange(64) * 2.0**-53
        edges = np.arange(s._buckets) / s._buckets
        u = np.concatenate([
            [0.0, 2.0**-60],
            below_one,
            edges,
            np.nextafter(edges[1:], 0.0),
            s._cdf[:-1],
            np.nextafter(s._cdf[:-1], 0.0),
        ])
        np.testing.assert_array_equal(s._lookup(u), _reference_ids(s, u))
        assert s._lookup(below_one).max() < s.vocab_size

    def test_sample_equals_searchsorted_on_same_uniforms(self, rng):
        s = NegativeSampler(rng.random(300))
        draws = s.sample((40, 5), np.random.default_rng(4))
        u = np.random.default_rng(4).random((40, 5))
        np.testing.assert_array_equal(draws, _reference_ids(s, u))
        assert draws.dtype == np.int64
