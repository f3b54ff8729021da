"""Tests for the popularity-distribution builders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verify.reference import sample_pages
from repro.workloads import zipf


class TestZipf:
    def test_normalised(self):
        p = zipf.zipf_popularity(100, 1.0)
        assert p.sum() == pytest.approx(1.0)

    def test_rank_ordered(self):
        p = zipf.zipf_popularity(10, 1.0)
        assert (np.diff(p) <= 0).all()

    def test_zero_exponent_uniform(self):
        p = zipf.zipf_popularity(10, 0.0)
        assert np.allclose(p, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf.zipf_popularity(0, 1.0)
        with pytest.raises(ValueError):
            zipf.zipf_popularity(10, -1.0)

    @settings(max_examples=20)
    @given(st.integers(1, 500), st.floats(0.0, 3.0))
    def test_always_a_distribution(self, n, s):
        p = zipf.zipf_popularity(n, s)
        assert p.sum() == pytest.approx(1.0)
        assert (p > 0).all()


class TestMixture:
    def test_tiers_have_requested_heat_ratios(self):
        p = zipf.mixture_popularity(100, [(0.1, 10.0), (0.9, 1.0)])
        assert p[0] / p[-1] == pytest.approx(10.0)
        assert p.sum() == pytest.approx(1.0)

    def test_tier_sizes(self):
        p = zipf.mixture_popularity(100, [(0.1, 10.0), (0.9, 1.0)])
        assert (p == p[0]).sum() == 10

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            zipf.mixture_popularity(100, [(0.5, 2.0)])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            zipf.mixture_popularity(100, [(0.5, -1.0), (0.5, 1.0)])


class TestBlendAndShuffle:
    def test_blend_weights(self):
        a = zipf.uniform_popularity(4)
        b = np.array([1.0, 0, 0, 0])
        out = zipf.blend((1.0, a), (1.0, b))
        assert out.sum() == pytest.approx(1.0)
        assert out[0] == pytest.approx(0.625)

    def test_blend_validates_lengths(self):
        with pytest.raises(ValueError):
            zipf.blend((1.0, np.ones(3)), (1.0, np.ones(4)))

    def test_blend_requires_components(self):
        with pytest.raises(ValueError):
            zipf.blend()

    def test_shuffled_preserves_multiset(self):
        p = zipf.zipf_popularity(50, 1.0)
        s = zipf.shuffled(p, seed=1)
        assert sorted(s) == pytest.approx(sorted(p))
        assert not np.array_equal(s, p)

    def test_spatially_clustered_preserves_mass(self):
        p = zipf.zipf_popularity(100, 1.0)
        s = zipf.spatially_clustered(p, cluster_pages=8, seed=0)
        assert s.sum() == pytest.approx(1.0)

    def test_spatially_clustered_keeps_clusters_together(self):
        p = np.zeros(32)
        p[:4] = 1.0  # one hot cluster of 4
        s = zipf.spatially_clustered(p / p.sum(), cluster_pages=4, seed=3)
        hot = np.nonzero(s > 0)[0]
        assert len(hot) == 4
        assert hot[-1] - hot[0] == 3  # still contiguous


class TestSamplePages:
    def test_respects_distribution(self):
        rng = np.random.default_rng(0)
        p = np.array([0.9, 0.1])
        pages = zipf.PageSampler(p).sample(10_000, rng)
        assert (pages == 0).mean() == pytest.approx(0.9, abs=0.02)

    def test_all_pages_in_range(self):
        rng = np.random.default_rng(0)
        p = zipf.uniform_popularity(7)
        pages = zipf.PageSampler(p).sample(1000, rng)
        assert pages.min() >= 0 and pages.max() < 7


class _Uniforms:
    """A generator stand-in whose ``random(count)`` returns set draws."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)

    def random(self, count):
        assert count == self.draws.size
        return self.draws.copy()


def _hard_draws(popularity: np.ndarray) -> np.ndarray:
    """Uniforms on and just below every guide-bucket edge and every
    CDF value, plus 0.0 and the largest double below 1."""
    buckets = 1 << (8 * popularity.size - 1).bit_length()
    edges = np.arange(buckets) / buckets
    cdf = np.cumsum(popularity)
    cdf = cdf[cdf < 1.0]
    points = np.concatenate([edges, cdf, [np.nextafter(1.0, 0.0)]])
    below = np.nextafter(points, 0.0)
    return np.concatenate([points, below[below >= 0.0], [0.0]])


_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-9, 1e3)), min_size=1, max_size=64
).filter(lambda w: sum(w) > 0)
# Small integer weights (uniform ones among them) put CDF values on
# exact fractions, where a bucket edge computed inexactly would land.
_counts = st.lists(st.integers(0, 4), min_size=1, max_size=200).filter(
    lambda w: sum(w) > 0)
_popularity = st.one_of(
    _weights.map(lambda w: np.array(w) / sum(w)),
    _counts.map(lambda w: np.array(w, dtype=np.float64) / sum(w)),
    st.integers(1, 200).map(zipf.uniform_popularity),
    st.just(np.array([1.0])),
    st.builds(lambda n, s, seed: zipf.shuffled(zipf.zipf_popularity(n, s), seed),
              st.integers(1, 300), st.floats(2.0, 8.0), st.integers(0, 3)),
)


class TestPageSamplerExact:
    """The guide table answers every uniform exactly as one
    ``searchsorted`` of the CDF does, on the draws where a bucket
    boundary or a repeated CDF value could shift the answer by one."""

    @settings(max_examples=150)
    @given(_popularity, st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=32))
    def test_equals_reference_on_hard_draws(self, popularity, extra):
        draws = np.concatenate([_hard_draws(popularity), extra])
        got = zipf.PageSampler(popularity).sample(draws.size, _Uniforms(draws))
        want = sample_pages(popularity, draws.size, _Uniforms(draws))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
