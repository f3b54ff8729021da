"""Tests for the analysis metrics: ratio, sparsity, CDF, tables."""

import numpy as np
import pytest

from repro.analysis import (
    AccessCdf,
    print_table,
    render_series,
    render_table,
    tracker_ratio,
)
from repro.cxl.pac import PageAccessCounter
from repro.memory.address import PAGE_SIZE, AddressRegion
from repro.sim import access_count_ratio, ratio_k_cap
from tests.sparsity_helpers import from_trace


def pac_with_counts(counts):
    region = AddressRegion(0, len(counts) * PAGE_SIZE)
    pac = PageAccessCounter(region)
    pages = np.repeat(np.arange(len(counts)), counts)
    pac.observe(pages.astype(np.uint64) << np.uint64(12))
    return pac


class TestRatioMetric:
    def test_ratio_perfect(self):
        pac = pac_with_counts([10, 5, 1])
        assert access_count_ratio(pac, [0, 1]) == pytest.approx(1.0)

    def test_ratio_warm(self):
        pac = pac_with_counts([10, 5, 1])
        assert access_count_ratio(pac, [2]) == pytest.approx(0.1)

    def test_ratio_dedups(self):
        pac = pac_with_counts([10, 5, 1])
        assert access_count_ratio(pac, [0, 0, 0]) == pytest.approx(1.0)

    def test_ratio_k_cap(self):
        """The cap keeps the first identified pages, not the hottest."""
        pac = pac_with_counts([10, 5, 1])
        assert access_count_ratio(pac, [2, 0], k_cap=1) == pytest.approx(0.1)

    def test_ratio_empty(self):
        pac = pac_with_counts([10])
        assert access_count_ratio(pac, []) == 0.0

    @pytest.mark.parametrize("footprint, cap", [(15, 1), (16, 1), (32, 2)])
    def test_k_cap_is_a_sixteenth_never_zero(self, footprint, cap):
        """§4.1's K cap: the paper's 128K ≈ footprint/16.  A footprint
        under 16 pages still scores one page."""
        assert ratio_k_cap(footprint) == cap

    def test_tracker_ratio(self):
        truth = {1: 10, 2: 5, 3: 1}
        assert tracker_ratio(truth, [1, 2], k=2) == pytest.approx(1.0)
        assert tracker_ratio(truth, [3, 2], k=2) == pytest.approx(6 / 15)
        assert tracker_ratio(truth, [], k=2) == 0.0

    def test_tracker_ratio_scores_the_first_k_keys(self):
        """Keys past K are ignored in the tracker's order, not by heat."""
        truth = {1: 10, 2: 5, 3: 1}
        assert tracker_ratio(truth, [3, 1], k=1) == pytest.approx(1 / 10)

    def test_tracker_ratio_without_ground_truth_heat(self):
        """Unknown keys score nothing; an all-cold truth scores 0."""
        assert tracker_ratio({1: 10, 2: 5}, [99], k=1) == 0.0
        assert tracker_ratio({1: 0, 2: 0}, [1, 2], k=2) == 0.0


class TestSparsityMetric:
    def test_from_trace(self):
        # page 0: 4 words; page 1: 64 words
        pa = [w * 64 for w in range(4)] + [4096 + w * 64 for w in range(64)]
        prof = from_trace("t", np.array(pa, dtype=np.uint64))
        assert prof.at(4) == pytest.approx(0.5)
        assert prof.at(48) == pytest.approx(0.5)
        assert prof.pages_observed == 2

    def test_classification_flags(self):
        sparse = from_trace("s", np.array([0, 64], dtype=np.uint64))
        assert sparse.mostly_sparse and not sparse.mostly_dense

    def test_every_word_touched_is_dense(self):
        pa = [page * 4096 + w * 64 for page in range(2) for w in range(64)]
        dense = from_trace("d", np.array(pa, dtype=np.uint64))
        assert dense.at(48) == 0.0
        assert dense.mostly_dense and not dense.mostly_sparse


class TestCdfMetric:
    def cdf(self):
        counts = np.concatenate([
            np.full(90, 10.0), np.full(9, 100.0), np.full(1, 1000.0),
        ])
        return AccessCdf.from_counts("x", counts)

    def test_percentiles(self):
        cdf = self.cdf()
        assert cdf.percentile(50) == pytest.approx(10.0)
        assert cdf.percentile(99) == pytest.approx(100.0, rel=0.2)

    def test_hotness_ratio(self):
        cdf = self.cdf()
        assert cdf.hotness_ratio(95) == pytest.approx(10.0, rel=0.2)

    def test_zero_counts_dropped(self):
        cdf = AccessCdf.from_counts("x", np.array([0, 0, 5]))
        assert cdf.counts.size == 1

    def test_gini_bounds(self):
        flat = AccessCdf.from_counts("f", np.full(100, 7.0))
        skew = AccessCdf.from_counts("s", np.array([1.0] * 99 + [1e6]))
        assert flat.gini() == pytest.approx(0.0, abs=0.01)
        assert skew.gini() > 0.9

    def test_cdf_points_monotone(self):
        x, f = self.cdf().cdf_points()
        assert (np.diff(f) >= 0).all()
        assert f[-1] == pytest.approx(1.0)

    def test_empty_cdf(self):
        cdf = AccessCdf.from_counts("e", np.array([]))
        assert cdf.percentile(50) == 0.0
        assert cdf.gini() == 0.0

    def test_empty_cdf_curve_is_flat_zero(self):
        x, f = AccessCdf.from_counts("e", np.array([])).cdf_points(
            [0.0, 1.0, 2.0])
        assert list(x) == [0.0, 1.0, 2.0]
        assert list(f) == [0.0, 0.0, 0.0]

    def test_hotness_ratio_infinite_without_a_base_page(self):
        assert AccessCdf.from_counts("e", np.array([])).hotness_ratio(99) == (
            float("inf"))

    def test_cdf_points_step_at_each_decade(self):
        """F(x) counts the pages with log10(count) <= x."""
        cdf = AccessCdf.from_counts("x", np.array([1000, 1, 100, 10]))
        _, f = cdf.cdf_points([0.0, 1.0, 2.0, 3.0])
        assert list(f) == [0.25, 0.5, 0.75, 1.0]

    def test_skew_summary_reads_p90_p95_p99_over_p50(self):
        """§7.2's roms reading: p90/p95/p99 pages 2x/8x/17x the p50."""
        counts = np.interp(np.linspace(0, 100, 101),
                           [0, 50, 90, 95, 99, 100],
                           [1.0, 100.0, 200.0, 800.0, 1700.0, 2000.0])
        skew = AccessCdf.from_counts("roms", counts).skew_summary()
        assert skew == {
            "p90_over_p50": pytest.approx(2.0),
            "p95_over_p50": pytest.approx(8.0),
            "p99_over_p50": pytest.approx(17.0),
        }

    def test_bottom_gap_measures_the_bottom_half(self):
        """§7.2's TC reading: count(p50) - count(p10) ≈ 288."""
        counts = np.interp(np.linspace(0, 100, 101), [0, 10, 50, 100],
                           [1.0, 12.0, 300.0, 5000.0])
        cdf = AccessCdf.from_counts("tc", counts)
        assert cdf.bottom_gap() == pytest.approx(288.0)
        assert cdf.bottom_gap(hi=100.0, lo=50.0) == pytest.approx(4700.0)


class TestTables:
    def test_render_table(self):
        out = render_table("T", ["a", "b"], [[1, 2.5], ["x", None]])
        assert "T" in out
        assert "2.500" in out
        assert "-" in out  # None cell

    def test_render_series(self):
        out = render_series("S", [("k", 1.0)])
        assert "S" in out and "k" in out

    def test_render_table_fixed_width_and_precision(self):
        out = render_table("T", ["a", "b"], [[1, 2.26], [None, "x"]],
                           precision=1, col_width=6)
        assert out.splitlines()[1:] == [
            "=" * 12, "T", "=" * 12,
            "     a     b",
            "-" * 12,
            "     1   2.3",
            "     -     x",
        ]

    def test_print_table_prints_the_rendered_table(self, capsys):
        rows = [[1, 2.5]]
        print_table("T", ["a", "b"], rows, precision=2)
        assert capsys.readouterr().out == (
            render_table("T", ["a", "b"], rows, precision=2) + "\n")
