"""Tests for the HPT/HWT top-K trackers."""

import numpy as np
import pytest

from repro.core.trackers import (
    CmSketchTopK,
    ExactTopK,
    SpaceSavingTopK,
    make_hpt,
    make_hwt,
)
from repro.verify import as_exact_sequence


def skewed_addresses(rng, num_pages=200, count=20_000, exponent=1.2):
    ranks = np.arange(1, num_pages + 1, dtype=np.float64) ** -exponent
    p = ranks / ranks.sum()
    pages = rng.choice(num_pages, size=count, p=p)
    words = rng.integers(0, 64, count)
    return ((pages.astype(np.uint64) << np.uint64(12))
            | (words.astype(np.uint64) << np.uint64(6)))


class TestGranularity:
    def test_page_keys(self):
        t = ExactTopK(4, granularity="page")
        t.observe(np.array([0x5000, 0x5040, 0x6000], dtype=np.uint64))
        top = dict(t.peek())
        assert top[5] == 2
        assert top[6] == 1

    def test_word_keys(self):
        t = ExactTopK(4, granularity="word")
        t.observe(np.array([0x5000, 0x5040, 0x5040], dtype=np.uint64))
        top = dict(t.peek())
        assert top[0x5040 >> 6] == 2

    def test_rejects_bad_granularity(self):
        with pytest.raises(ValueError):
            ExactTopK(4, granularity="byte")

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            ExactTopK(0)


class TestQueryReset:
    def test_query_returns_and_resets(self):
        t = ExactTopK(4)
        t.observe(np.array([0x5000] * 3, dtype=np.uint64))
        result = t.query()
        assert result == [(5, 3)]
        assert t.peek() == []
        assert t.queries_served == 1

    def test_peek_does_not_reset(self):
        t = ExactTopK(4)
        t.observe(np.array([0x5000], dtype=np.uint64))
        t.peek()
        assert t.peek() == [(5, 1)]


class TestCmSketchTracker:
    def test_exact_sequence_matches_hardware_semantics(self):
        t = as_exact_sequence(CmSketchTopK(2, num_counters=1024))
        t.observe(np.array([0x1000] * 5 + [0x2000] * 3 + [0x3000],
                           dtype=np.uint64))
        top = t.query()
        assert [k for k, _ in top] == [1, 2]

    def test_batched_finds_same_heavy_hitters(self):
        rng = np.random.default_rng(0)
        pa = skewed_addresses(rng)
        exact = as_exact_sequence(CmSketchTopK(5, num_counters=32 * 1024))
        chunked = CmSketchTopK(5, num_counters=32 * 1024)
        exact.observe(pa)
        chunked.observe(pa)
        top_e = {k for k, _ in exact.query()}
        top_b = {k for k, _ in chunked.query()}
        assert len(top_e & top_b) >= 4

    def test_large_sketch_near_oracle(self):
        rng = np.random.default_rng(1)
        pa = skewed_addresses(rng)
        cms = CmSketchTopK(5, num_counters=32 * 1024)
        oracle = ExactTopK(5)
        cms.observe(pa)
        oracle.observe(pa)
        assert {k for k, _ in cms.query()} == {k for k, _ in oracle.query()}

    def test_small_sketch_degrades(self):
        """§7.1: CM-Sketch suffers hash collisions at small N."""
        rng = np.random.default_rng(2)
        pa = skewed_addresses(rng, num_pages=5000, count=50_000, exponent=0.8)
        small = CmSketchTopK(5, num_counters=64)
        oracle = ExactTopK(5)
        small.observe(pa)
        oracle.observe(pa)
        small_top = {k for k, _ in small.query()}
        oracle_top = {k for k, _ in oracle.query()}
        assert small_top != oracle_top  # collisions displace true tops

    def test_counters_validated(self):
        with pytest.raises(ValueError):
            CmSketchTopK(5, num_counters=2, depth=4)


class TestSpaceSavingTracker:
    def test_capacity_must_cover_k(self):
        with pytest.raises(ValueError):
            SpaceSavingTopK(10, capacity=5)

    def test_finds_heavy_hitters(self):
        rng = np.random.default_rng(3)
        pa = skewed_addresses(rng, exponent=1.5)
        ss = SpaceSavingTopK(5, capacity=50)
        oracle = ExactTopK(5)
        ss.observe(pa)
        oracle.observe(pa)
        overlap = {k for k, _ in ss.query()} & {k for k, _ in oracle.query()}
        assert len(overlap) >= 3

    def test_exact_sequence_mode(self):
        ss = as_exact_sequence(SpaceSavingTopK(2, capacity=4))
        ss.observe(np.array([0x1000] * 5 + [0x2000], dtype=np.uint64))
        assert ss.query()[0][0] == 1

    def test_accuracy_grows_with_capacity(self):
        """§7.1: preciseness strongly depends on N."""
        rng = np.random.default_rng(4)
        pa = skewed_addresses(rng, num_pages=2000, count=40_000, exponent=0.9)
        oracle = ExactTopK(5)
        oracle.observe(pa)
        truth = dict(oracle.query())

        def score(capacity):
            t = SpaceSavingTopK(5, capacity=capacity)
            t.observe(pa)
            got = [k for k, _ in t.query()]
            return sum(truth.get(k, 0) for k in got)

        assert score(2000) >= score(10)


class TestFactories:
    def test_make_hpt_defaults(self):
        hpt = make_hpt()
        assert hpt.granularity == "page"
        assert isinstance(hpt, CmSketchTopK)
        assert hpt.num_counters == 32 * 1024

    def test_make_hwt_word_granularity(self):
        hwt = make_hwt(algorithm="space-saving", num_counters=50)
        assert hwt.granularity == "word"
        assert isinstance(hwt, SpaceSavingTopK)

    def test_make_exact(self):
        t = make_hpt(algorithm="exact")
        assert isinstance(t, ExactTopK)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            make_hpt(algorithm="bloom")
