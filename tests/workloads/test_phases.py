"""Tests for the temporal phase models."""

import pickle

import numpy as np
import pytest

from repro.verify.reference import sample_pages
from repro.workloads.phases import RotatingWorkingSet, Stationary, SweepMix
from repro.workloads.zipf import shuffled, uniform_popularity, zipf_popularity


class TestStationary:
    def test_matches_popularity(self):
        rng = np.random.default_rng(0)
        pop = np.array([0.8, 0.2])
        phase = Stationary(pop)
        pages = phase.sample(20_000, rng)
        assert (pages == 0).mean() == pytest.approx(0.8, abs=0.02)

    def test_rejects_bad_popularity(self):
        with pytest.raises(ValueError):
            Stationary(np.array([]))
        with pytest.raises(ValueError):
            Stationary(np.zeros(4))

    def test_pickle_carries_no_sampler(self):
        pop = shuffled(zipf_popularity(8192, 0.8), seed=1)
        fresh = pickle.dumps(Stationary(pop))
        phase = Stationary(pop)
        phase.sample(1000, np.random.default_rng(0))
        phase.reset()  # the same access count as the fresh phase
        assert len(pickle.dumps(phase)) <= len(fresh)
        # The clone rebuilds its sampler and continues the same stream.
        clone = pickle.loads(pickle.dumps(phase))
        assert np.array_equal(clone.sample(5000, np.random.default_rng(1)),
                              phase.sample(5000, np.random.default_rng(1)))


class TestRotatingWorkingSet:
    def test_window_pages_boosted(self):
        rng = np.random.default_rng(1)
        phase = RotatingWorkingSet(
            uniform_popularity(100), window_fraction=0.1, boost=50.0,
            accesses_per_phase=1_000_000,
        )
        pages = phase.sample(20_000, rng)
        start = phase.current_window_start()
        window = set((start + np.arange(10)) % 100)
        in_window = np.isin(pages, list(window)).mean()
        assert in_window > 0.7

    def test_window_rotates(self):
        rng = np.random.default_rng(2)
        phase = RotatingWorkingSet(
            uniform_popularity(100), window_fraction=0.1,
            accesses_per_phase=1000, stride_fraction=1.0,
        )
        first = phase.current_window_start()
        phase.sample(1000, rng)
        assert phase.current_window_start() != first

    def test_reset_restores_phase(self):
        rng = np.random.default_rng(3)
        phase = RotatingWorkingSet(uniform_popularity(100),
                                   accesses_per_phase=10)
        phase.sample(100, rng)
        phase.reset()
        assert phase.current_window_start() == 0

    def test_chunks_across_phases_match_reference(self):
        """Chunks that start inside, on and across window moves draw
        what the plain sampler draws from that call's boosted weights."""
        pop = shuffled(zipf_popularity(500, 0.7), seed=2)
        phase = RotatingWorkingSet(pop, window_fraction=0.1, boost=20.0,
                                   accesses_per_phase=1000, stride_fraction=0.5)
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        emitted = 0
        for count in (700, 300, 650, 900, 1450, 2000, 1):
            start = (emitted // 1000) * 25 % 500
            weights = pop.copy()
            weights[(start + np.arange(50)) % 500] *= 20.0
            weights /= weights.sum()
            assert np.array_equal(phase.sample(count, rng),
                                  sample_pages(weights, count, ref_rng))
            emitted += count

    def test_validation(self):
        with pytest.raises(ValueError):
            RotatingWorkingSet(uniform_popularity(10), window_fraction=0.0)
        with pytest.raises(ValueError):
            RotatingWorkingSet(uniform_popularity(10), boost=0.0)


class TestSweepMix:
    def test_sweep_fraction_zero_is_stationary(self):
        rng = np.random.default_rng(4)
        pop = zipf_popularity(50, 1.0)
        phase = SweepMix(pop, sweep_fraction=0.0)
        pages = phase.sample(5000, rng)
        assert (pages == 0).mean() == pytest.approx(pop[0], abs=0.05)

    def test_sweep_advances_through_footprint(self):
        rng = np.random.default_rng(5)
        phase = SweepMix(uniform_popularity(1000), sweep_fraction=1.0,
                         hits_per_page=10, sweep_start=0)
        seen = set()
        for _ in range(5):
            seen |= set(phase.sample(2000, rng).tolist())
        # 5 chunks x 200 pages per chunk = 1000 pages covered
        assert len(seen) == 1000

    def test_sweep_pages_hit_repeatedly(self):
        rng = np.random.default_rng(6)
        phase = SweepMix(uniform_popularity(100), sweep_fraction=1.0,
                         hits_per_page=16, sweep_start=0)
        pages = phase.sample(1600, rng)
        _, counts = np.unique(pages, return_counts=True)
        assert counts.min() >= 16

    def test_sweep_start_randomised_by_default(self):
        phase = SweepMix(uniform_popularity(1000))
        assert 0 <= phase._sweep_start < 1000

    def test_reset_restores_sweep(self):
        rng = np.random.default_rng(7)
        phase = SweepMix(uniform_popularity(100), sweep_start=5)
        phase.sample(1000, rng)
        phase.reset()
        assert phase._sweep_pos == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepMix(uniform_popularity(10), sweep_fraction=1.5)
        with pytest.raises(ValueError):
            SweepMix(uniform_popularity(10), hits_per_page=0)
