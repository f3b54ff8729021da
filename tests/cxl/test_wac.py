"""Tests for the Word Access Counter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.address import PAGE_SIZE, WORD_SIZE, AddressRegion
from repro.analysis.sparsity import from_wac
from repro.cxl.wac import WordAccessCounter
from tests.sparsity_helpers import from_trace

BASE = 0x2000_0000


def device(pages=64):
    return AddressRegion(BASE, pages * PAGE_SIZE)


def wac_for(pages=64, window_pages=None, counter_bits=4):
    window = (window_pages or pages) * PAGE_SIZE
    return WordAccessCounter(device(pages), window_bytes=window,
                             counter_bits=counter_bits)


def word_addresses(pairs):
    """Byte addresses for (page, word) pairs relative to BASE."""
    return np.array(
        [BASE + p * PAGE_SIZE + w * WORD_SIZE for p, w in pairs], dtype=np.uint64
    )


class TestExactCounting:
    def test_counts_per_word(self):
        wac = wac_for()
        wac.observe(word_addresses([(0, 0), (0, 0), (0, 5)]))
        counts = wac.counts()
        assert counts[0] == 2
        assert counts[5] == 1

    def test_distinct_words_of_same_page(self):
        wac = wac_for()
        wac.observe(word_addresses([(1, w) for w in range(10)]))
        assert wac.counts_by_page()[1].sum() == 10
        assert (wac.counts_by_page()[1] > 0).sum() == 10

    def test_saturation_spills(self):
        wac = wac_for(counter_bits=2)
        wac.observe(word_addresses([(0, 0)] * 40))
        assert wac.counts()[0] == 40
        assert wac.spills >= 1

    @settings(max_examples=20)
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 63)),
                    min_size=1, max_size=300))
    def test_exactness_property(self, pairs):
        wac = wac_for(16)
        wac.observe(word_addresses(pairs))
        expected = np.zeros(16 * 64, dtype=np.int64)
        for p, w in pairs:
            expected[p * 64 + w] += 1
        assert np.array_equal(wac.counts(), expected)


class TestWindowing:
    def test_window_caps_at_device_size(self):
        wac = WordAccessCounter(device(4), window_bytes=1 << 30)
        assert wac.window_bytes == 4 * PAGE_SIZE

    def test_out_of_window_ignored(self):
        wac = wac_for(64, window_pages=2)
        wac.observe(word_addresses([(1, 0), (10, 0)]))
        assert wac.total_accesses == 1

    def test_move_window(self):
        wac = wac_for(64, window_pages=2)
        wac.set_monitor_window(BASE + 8 * PAGE_SIZE)
        wac.observe(word_addresses([(8, 3)]))
        assert wac.total_accesses == 1
        assert wac.counts()[3] == 1

    def test_move_window_clears_counters(self):
        wac = wac_for(64, window_pages=2)
        wac.observe(word_addresses([(0, 0)]))
        wac.set_monitor_window(BASE + 2 * PAGE_SIZE)
        assert wac.counts().sum() == 0

    def test_window_outside_device_rejected(self):
        wac = wac_for(4, window_pages=2)
        with pytest.raises(ValueError):
            wac.set_monitor_window(BASE + 3 * PAGE_SIZE)

    def test_sweeping_window_covers_device(self):
        """§3: monitor all regions over multiple intervals."""
        wac = wac_for(8, window_pages=2)
        touched = word_addresses([(p, 1) for p in range(8)])
        seen = 0
        for start_page in range(0, 8, 2):
            wac.set_monitor_window(BASE + start_page * PAGE_SIZE)
            wac.observe(touched)
            seen += int(wac.counts().sum())
        assert seen == 8


class TestSparsityStatistics:
    def test_unique_words_per_page(self):
        wac = wac_for()
        wac.observe(word_addresses([(0, 0), (0, 1), (0, 1), (2, 9)]))
        uniques = wac.unique_words_per_page()
        assert uniques[0] == 2
        assert uniques[1] == 0
        assert uniques[2] == 1

    def test_min_accesses_filter(self):
        wac = wac_for()
        wac.observe(word_addresses([(0, 0)] * 10 + [(1, 0)]))
        uniques = wac.unique_words_per_page(min_accesses=5)
        assert uniques[0] == 1
        assert uniques[1] == 0  # below the observability threshold

    def test_sparsity_profile_monotone(self):
        wac = wac_for()
        rng = np.random.default_rng(0)
        pairs = [(int(p), int(w)) for p, w in
                 zip(rng.integers(0, 64, 2000), rng.integers(0, 8, 2000))]
        wac.observe(word_addresses(pairs))
        prof = from_wac("t", wac).probabilities
        values = [prof[n] for n in (4, 8, 16, 32, 48)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert prof[8] == 1.0  # words drawn only from [0, 8)

    def test_sparsity_profile_empty(self):
        wac = wac_for()
        profile = from_wac("t", wac)
        assert all(v == 0.0 for v in profile.probabilities.values())
        assert profile.pages_observed == 0

    def test_sparsity_profile_min_accesses(self):
        wac = wac_for()
        wac.observe(word_addresses([(0, w) for w in range(8)] * 2 + [(1, 0)]))
        assert from_wac("t", wac).pages_observed == 2
        profile = from_wac("t", wac, min_accesses=5)
        assert profile.pages_observed == 1
        assert profile.at(4) == 0.0 and profile.at(8) == 1.0

    @pytest.mark.parametrize("words", (4, 16, 64))
    def test_sparsity_profile_matches_trace_measurement(self, words):
        """Fig. 4 measured from WAC's counters equals Fig. 4 measured
        from the raw trace when the window covers the device."""
        rng = np.random.default_rng(words)
        pairs = list(zip(rng.integers(0, 64, 3000).tolist(),
                         rng.integers(0, words, 3000).tolist()))
        pa = word_addresses(pairs)
        wac = wac_for()
        wac.observe(pa)
        assert from_wac("t", wac) == from_trace("t", pa)


class TestTopWords:
    def test_reset(self):
        wac = wac_for()
        wac.observe(word_addresses([(0, 0)]))
        wac.reset()
        assert wac.counts().sum() == 0


class TestValidation:
    def test_bad_counter_bits(self):
        with pytest.raises(ValueError):
            WordAccessCounter(device(), counter_bits=0)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            WordAccessCounter(device(), window_bytes=0)
