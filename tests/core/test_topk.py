"""Tests for the sorted-CAM top-K table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.topk import SortedCam
from tests.topk_helpers import (
    addresses,
    count_of,
    replacement_rate,
    table_min,
    tracks,
)


class TestOffer:
    def test_fills_free_entries(self):
        cam = SortedCam(2)
        assert cam.offer(1, 10)
        assert cam.offer(2, 5)
        assert len(cam) == 2

    def test_hit_updates_count(self):
        cam = SortedCam(2)
        cam.offer(1, 10)
        cam.offer(1, 25)
        assert count_of(cam, 1) == 25
        assert cam.hits == 1

    def test_miss_replaces_minimum_when_larger(self):
        cam = SortedCam(2)
        cam.offer(1, 10)
        cam.offer(2, 5)
        assert cam.offer(3, 7)
        assert not tracks(cam, 2)
        assert tracks(cam, 3)

    def test_miss_rejected_when_not_larger(self):
        cam = SortedCam(2)
        cam.offer(1, 10)
        cam.offer(2, 5)
        assert not cam.offer(3, 5)  # equal to min: not larger
        assert cam.rejections == 1
        assert tracks(cam, 2)

    def test_table_min(self):
        cam = SortedCam(2)
        assert table_min(cam) == 0
        cam.offer(1, 10)
        assert table_min(cam) == 0  # free entry remains
        cam.offer(2, 4)
        assert table_min(cam) == 4

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            SortedCam(0)


class TestEntries:
    def test_entries_sorted_desc(self):
        cam = SortedCam(3)
        cam.offer(1, 5)
        cam.offer(2, 9)
        cam.offer(3, 7)
        assert [a for a, _ in cam.entries()] == [2, 3, 1]

    def test_tie_break_by_address(self):
        cam = SortedCam(3)
        cam.offer(9, 5)
        cam.offer(3, 5)
        assert [a for a, _ in cam.entries()] == [3, 9]

    def test_addresses(self):
        cam = SortedCam(2)
        cam.offer(1, 5)
        cam.offer(2, 9)
        assert addresses(cam) == [2, 1]

    def test_reset(self):
        cam = SortedCam(2)
        cam.offer(1, 5)
        cam.reset()
        assert len(cam) == 0
        assert count_of(cam, 1) == 0


class TestInvariants:
    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 100)),
                    min_size=1, max_size=200))
    def test_size_bounded_and_min_never_decreases_on_replace(self, offers):
        cam = SortedCam(4)
        for addr, est in offers:
            was_full = len(cam) == 4 and not tracks(cam, addr)
            before = table_min(cam)
            cam.offer(addr, est)
            assert len(cam) <= 4
            if was_full and est > before:
                # replacement keeps at least the old minimum's successor
                assert table_min(cam) >= before

    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.integers(0, 10), st.integers(1, 50)),
                    min_size=1, max_size=100))
    def test_entries_always_sorted(self, offers):
        cam = SortedCam(3)
        for addr, est in offers:
            cam.offer(addr, est)
            counts = [c for _, c in cam.entries()]
            assert counts == sorted(counts, reverse=True)


class TestOfferStats:
    """Insertions into free entries must not count as replacements."""

    def test_free_entry_insert_is_not_a_replacement(self):
        cam = SortedCam(4)
        for addr in range(4):
            cam.offer(addr, 10 + addr)
        assert cam.insertions == 4
        assert cam.replacements == 0

    def test_eviction_counts_as_replacement(self):
        cam = SortedCam(2)
        cam.offer(1, 5)
        cam.offer(2, 6)
        cam.offer(3, 7)  # evicts 1 (min, count 5)
        assert cam.insertions == 2
        assert cam.replacements == 1
        assert cam.rejections == 0

    def test_offer_stats_are_conserved(self):
        cam = SortedCam(3)
        offers = [(1, 5), (2, 6), (1, 7), (3, 4), (4, 9), (5, 1), (2, 8)]
        for addr, est in offers:
            cam.offer(addr, est)
        assert cam.offers == len(offers)
        assert (cam.hits + cam.insertions + cam.replacements
                + cam.rejections) == cam.offers

    def test_replacement_rate_only_counts_evictions(self):
        cam = SortedCam(2)
        cam.offer(1, 5)
        cam.offer(2, 6)
        assert replacement_rate(cam) == 0.0
        cam.offer(3, 9)  # one genuine eviction in three offers
        assert replacement_rate(cam) == 1 / 3

    def test_replacement_rate_empty_table(self):
        assert replacement_rate(SortedCam(2)) == 0.0
