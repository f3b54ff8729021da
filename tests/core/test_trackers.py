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
from repro.cxl.batch import AccessBatch
from repro.verify import as_exact_sequence

#: Every algorithm ``make_hpt`` / ``make_hwt`` accept.
ALGORITHMS = ("cm-sketch", "space-saving", "misra-gries", "exact")


def skewed_addresses(rng, num_pages=200, count=20_000, exponent=1.2):
    ranks = np.arange(1, num_pages + 1, dtype=np.float64) ** -exponent
    p = ranks / ranks.sum()
    pages = rng.choice(num_pages, size=count, p=p)
    words = rng.integers(0, 64, count)
    return ((pages.astype(np.uint64) << np.uint64(12))
            | (words.astype(np.uint64) << np.uint64(6)))


def tracker(algorithm, factory=make_hpt):
    return factory(k=4, algorithm=algorithm, num_counters=256)


class TestGranularity:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_page_keys(self, algorithm):
        t = tracker(algorithm)
        t.observe(np.array([0x5000, 0x5040, 0x5FC0, 0x6000], dtype=np.uint64))
        assert dict(t.peek()) == {5: 3, 6: 1}

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_word_keys(self, algorithm):
        t = tracker(algorithm, factory=make_hwt)
        t.observe(np.array([0x5000, 0x5040, 0x5040, 0x507F], dtype=np.uint64))
        assert dict(t.peek()) == {0x5000 >> 6: 1, 0x5040 >> 6: 3}

    def test_rejects_bad_granularity(self):
        with pytest.raises(ValueError):
            ExactTopK(4, granularity="byte")

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            ExactTopK(0)


class TestQueryReset:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_query_returns_and_resets(self, algorithm):
        t = tracker(algorithm)
        t.observe(np.array([0x5000] * 3, dtype=np.uint64))
        assert t.query() == [(5, 3)]
        assert t.peek() == []
        assert (t.queries_served, t.accesses_observed) == (1, 3)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_peek_does_not_reset(self, algorithm):
        t = tracker(algorithm)
        t.observe(np.array([0x5000], dtype=np.uint64))
        t.peek()
        assert t.peek() == [(5, 1)]
        assert t.queries_served == 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_next_epoch_starts_fresh(self, algorithm):
        """After a query the next epoch sees nothing of the last one."""
        rng = np.random.default_rng(7)
        first, second = skewed_addresses(rng), skewed_addresses(rng)
        reused, fresh = tracker(algorithm), tracker(algorithm)
        reused.observe(first)
        reused.query()
        reused.observe(second)
        fresh.observe(second)
        assert reused.query() == fresh.query()


class TestTrackerContract:
    """What every back-end keeps beyond keying and query-and-reset:
    a hottest-first top-K of at most K entries, and one result whichever
    snoop entry point fed the stream."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_top_k_is_bounded_and_hottest_first(self, algorithm):
        t = tracker(algorithm)
        t.observe(skewed_addresses(np.random.default_rng(6), count=5_000))
        counts = [c for _, c in t.peek()]
        assert len(counts) == t.k
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_empty_observe_is_a_no_op(self, algorithm):
        t = tracker(algorithm)
        t.observe(np.empty(0, dtype=np.uint64))
        t.observe_batch(AccessBatch(np.empty(0, dtype=np.uint64)))
        assert t.peek() == []
        assert t.accesses_observed == 0

    @pytest.mark.parametrize("factory", (make_hpt, make_hwt))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_observe_batch_matches_observe(self, algorithm, factory):
        """The controller's digested batch and the raw address stream
        leave a tracker with the same top-K."""
        rng = np.random.default_rng(8)
        raw, digested = tracker(algorithm, factory), tracker(algorithm, factory)
        for _ in range(3):
            pa = skewed_addresses(rng, count=4_000)
            raw.observe(pa)
            digested.observe_batch(AccessBatch(pa))
        assert raw.peek() == digested.peek()
        assert raw.accesses_observed == digested.accesses_observed


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

    # The paper evaluates only CM-Sketch and Space-Saving; there is no
    # sampling-based back-end.
    @pytest.mark.parametrize("algorithm", ("bloom", "sticky-sampling"))
    def test_unknown_algorithm(self, algorithm):
        with pytest.raises(ValueError, match="unknown tracker algorithm"):
            make_hpt(algorithm=algorithm)
