"""Hypothesis property suites for the paper's analytical guarantees.

Each class encodes a bound the paper (or the underlying streaming
literature) proves, checked against randomly generated streams:
CM-Sketch never underestimates, Space-Saving overestimates by at most
N/K, the sorted CAM fed exact counts reproduces the exact top-K, and
MGLRU victim selection stays within its candidate set.

The Hypothesis profile (``tests/conftest.py``) decides randomness:
tier-1 derandomizes, so CI replays the same examples on every run, and
``HYPOTHESIS_PROFILE=explore`` searches randomly.
"""

import collections

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketch import CountMinSketch
from repro.core.spacesaving import SpaceSaving
from repro.core.topk import SortedCam
from repro.core.trackers import ExactTopK
from repro.memory.mglru import MultiGenLru
from tests.topk_helpers import estimate_one

SETTINGS = settings(max_examples=60, deadline=None)

streams = st.lists(st.integers(0, 200), min_size=1, max_size=400)


class TestCmSketchNeverUnderestimates:
    @SETTINGS
    @given(streams)
    def test_sequential_update(self, keys):
        sketch = CountMinSketch(64, depth=2)
        for key in keys:
            sketch.update_one(key)
        true = collections.Counter(keys)
        for key, count in true.items():
            assert estimate_one(sketch, key) >= count

    @SETTINGS
    @given(streams)
    def test_batched_update(self, keys):
        sketch = CountMinSketch(64, depth=2)
        sketch.update_batch(np.asarray(keys, dtype=np.uint64))
        true = collections.Counter(keys)
        for key, count in true.items():
            assert estimate_one(sketch, key) >= count


class TestSpaceSavingBounds:
    @SETTINGS
    @given(streams, st.integers(2, 16))
    def test_overestimate_within_n_over_k(self, keys, capacity):
        ss = SpaceSaving(capacity)
        for key in keys:
            ss.update_one(key)
        true = collections.Counter(keys)
        error_bound = len(keys) / capacity  # classic N/K guarantee
        for addr, est in ss.top_k(capacity):
            assert est >= true[addr]
            assert est - true[addr] <= error_bound

    @SETTINGS
    @given(streams, st.integers(1, 8))
    def test_size_and_heap_bounded(self, keys, capacity):
        ss = SpaceSaving(capacity)
        for key in keys:
            ss.update_one(key)
        assert len(ss) <= capacity
        assert len(ss._heap) <= ss._heap_bound

    @SETTINGS
    @given(st.integers(2, 10))
    def test_majority_item_retained(self, capacity):
        ss = SpaceSaving(capacity)
        stream = [999] * 100 + list(range(50))
        for key in stream:
            ss.update_one(key)
        # An item with count > N/K cannot be fully displaced.
        assert 999 in ss


class TestSortedCamMatchesExactOracle:
    @SETTINGS
    @given(streams, st.integers(1, 8))
    def test_single_offer_per_key_selects_exact_topk(self, keys, k):
        """Offered each key's exact count once, in one pass sorted
        hottest-first, the CAM must hold exactly the exact top-K set
        (modulo count ties at the boundary)."""
        true = collections.Counter(keys)
        cam = SortedCam(k)
        ranked = sorted(true.items(), key=lambda kv: (-kv[1], kv[0]))
        for addr, count in ranked:
            cam.offer(addr, count)
        kept = {addr: count for addr, count in cam.entries()}
        assert len(kept) == min(k, len(true))
        if len(true) > k:
            boundary = ranked[k - 1][1]
            for addr, count in kept.items():
                assert count >= boundary
                assert true[addr] == count

    @SETTINGS
    @given(streams, st.integers(1, 8))
    def test_exact_tracker_matches_counter(self, keys, k):
        tracker = ExactTopK(k, granularity="word")
        # Keys are 64B-word indices; feed them as aligned addresses.
        tracker.observe(np.asarray(keys, dtype=np.uint64) << np.uint64(6))
        true = collections.Counter(keys)
        expected = sorted(true.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        assert tracker.peek() == expected


class TestMglruVictims:
    @SETTINGS
    @given(
        st.lists(st.integers(0, 63), min_size=1, max_size=40, unique=True),
        st.lists(st.integers(0, 63), min_size=1, max_size=40, unique=True),
        st.integers(0, 20),
    )
    def test_coldest_within_candidates(self, tracked, among, n):
        lru = MultiGenLru(64)
        lru.track(np.asarray(tracked))
        victims = lru.coldest(n, among=np.asarray(among))
        assert victims.size <= n
        assert victims.size == np.unique(victims).size
        allowed = set(tracked) & set(among)
        assert set(victims.tolist()) <= allowed
        # coldest() must exhaust the candidate pool before going short.
        assert victims.size == min(n, len(allowed))

    @SETTINGS
    @given(st.lists(st.integers(0, 31), min_size=2, max_size=20, unique=True))
    def test_older_generation_evicted_first(self, pages):
        lru = MultiGenLru(32)
        old, young = pages[: len(pages) // 2], pages[len(pages) // 2:]
        lru.track(np.asarray(old))
        lru.age()
        lru.track(np.asarray(young))
        victims = lru.coldest(len(old))
        assert set(victims.tolist()) == set(old)

    @SETTINGS
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 31), max_size=8),
                # Repeats give integer heats, so exact float ties occur.
                st.lists(st.integers(0, 31), max_size=16),
                st.booleans(),
            ),
            max_size=6,
        ),
        # Unsorted, with repeats and untracked pages (possibly all).
        st.lists(st.integers(0, 31), max_size=24),
    )
    def test_single_victim_is_first_of_full_order(self, rounds, among):
        lru = MultiGenLru(32)
        for tracked, accessed, age in rounds:
            lru.track(np.asarray(tracked, dtype=np.int64))
            lru.record_accesses(np.asarray(accessed, dtype=np.int64))
            if age:
                lru.age()
        among = np.asarray(among, dtype=np.int64)
        # n > len(among) keeps the reference on the full-order path.
        full = lru.coldest(among.size + 1, among=among)
        victim = lru.coldest(1, among=among)
        assert victim.dtype == np.int64
        assert victim.tolist() == full[:1].tolist()
        assert lru.coldest(1).tolist() == lru.coldest(33)[:1].tolist()
