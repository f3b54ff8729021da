"""Tests for the Misra-Gries and Sticky-Sampling tracker variants."""

import numpy as np

from repro.core.trackers import (
    ExactTopK,
    MisraGriesTopK,
    StickySamplingTopK,
    make_hpt,
)
from repro.verify import as_exact_sequence


def skewed_addresses(rng, num_pages=200, count=20_000, exponent=1.4):
    ranks = np.arange(1, num_pages + 1, dtype=np.float64) ** -exponent
    p = ranks / ranks.sum()
    pages = rng.choice(num_pages, size=count, p=p)
    return pages.astype(np.uint64) << np.uint64(12)


class TestMisraGriesTopK:
    def test_finds_heavy_hitters(self):
        rng = np.random.default_rng(0)
        pa = skewed_addresses(rng)
        mg = MisraGriesTopK(5, capacity=64)
        oracle = ExactTopK(5)
        mg.observe(pa)
        oracle.observe(pa)
        overlap = {k for k, _ in mg.query()} & {k for k, _ in oracle.query()}
        assert len(overlap) >= 3

    def test_underestimates(self):
        pa = np.array([0x1000] * 100 + [0x2000] * 3, dtype=np.uint64)
        mg = as_exact_sequence(MisraGriesTopK(2, capacity=4))
        mg.observe(pa)
        top = dict(mg.peek())
        assert top[1] <= 100

    def test_factory(self):
        t = make_hpt(algorithm="misra-gries", num_counters=32)
        assert isinstance(t, MisraGriesTopK)
        assert t.capacity == 32


class TestStickySamplingTopK:
    def test_finds_heavy_hitters(self):
        rng = np.random.default_rng(1)
        pa = skewed_addresses(rng, exponent=1.6)
        ss = StickySamplingTopK(5, seed=2)
        oracle = ExactTopK(5)
        ss.observe(pa)
        oracle.observe(pa)
        overlap = {k for k, _ in ss.query()} & {k for k, _ in oracle.query()}
        assert len(overlap) >= 3

    def test_query_resets(self):
        ss = StickySamplingTopK(5, seed=3)
        ss.observe(np.array([0x1000] * 50, dtype=np.uint64))
        assert ss.query()
        assert ss.peek() == []

    def test_factory(self):
        t = make_hpt(algorithm="sticky-sampling")
        assert isinstance(t, StickySamplingTopK)

    def test_word_granularity(self):
        t = StickySamplingTopK(4, granularity="word", seed=4)
        t.observe(np.array([0x1000, 0x1040], dtype=np.uint64))
        keys = {k for k, _ in t.peek()}
        assert keys <= {0x1000 >> 6, 0x1040 >> 6}


class TestThreeFamilies:
    def test_all_families_agree_on_extreme_skew(self):
        """Counter-, sketch-, and sampling-based trackers must all
        find an overwhelming heavy hitter."""
        stream = np.array([0x7000] * 5000 + list(range(0, 64 * 4096, 4096)),
                          dtype=np.uint64)
        rng = np.random.default_rng(5)
        rng.shuffle(stream)
        for t in (
            make_hpt(k=1, algorithm="cm-sketch", num_counters=4096),
            make_hpt(k=1, algorithm="space-saving", num_counters=50),
            make_hpt(k=1, algorithm="misra-gries", num_counters=50),
            make_hpt(k=1, algorithm="sticky-sampling"),
        ):
            t.observe(stream)
            assert t.query()[0][0] == 7, type(t).__name__
