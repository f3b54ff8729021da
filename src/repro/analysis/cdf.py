"""Per-page access-count distribution analysis (Figure 10).

Figure 10 plots the CDF of log10(access count) over all pages of each
benchmark, and §7.2 reads skew off it: roms_r's p90/p95/p99 pages are
2x/8x/17x hotter than its p50 page, Liblinear is the most skewed,
while TC's bottom half is nearly flat (bottom-p50 minus bottom-p10 ≈
288 accesses) — which decides whether precise migration pays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.memory.migration import MIGRATION_COST_US
from repro.memory.tiers import CXL_LATENCY_NS, DDR_LATENCY_NS

@dataclass(frozen=True)
class AccessCdf:
    """Distribution of per-page access counts for one benchmark."""

    benchmark: str
    counts: np.ndarray  # per-page access counts, touched pages only

    @classmethod
    def from_counts(cls, benchmark: str, counts: np.ndarray) -> AccessCdf:
        arr = np.asarray(counts, dtype=np.float64)
        return cls(benchmark=benchmark, counts=np.sort(arr[arr > 0]))

    def percentile(self, p: float) -> float:
        """Access count of the p-th percentile page (hotness order)."""
        if self.counts.size == 0:
            return 0.0
        return float(np.quantile(self.counts, p / 100.0))

    def hotness_ratio(self, p: float, base: float = 50.0) -> float:
        """How much hotter the p-th percentile page is than the base
        percentile page (the §7.2 roms reading: p99/p50 ≈ 17)."""
        denom = self.percentile(base)
        if denom <= 0:
            return float("inf")
        return self.percentile(p) / denom

    def skew_summary(self) -> Dict[str, float]:
        return {
            "p90_over_p50": self.hotness_ratio(90),
            "p95_over_p50": self.hotness_ratio(95),
            "p99_over_p50": self.hotness_ratio(99),
        }

    def bottom_gap(self, hi: float = 50.0, lo: float = 10.0) -> float:
        """Bottom-half flatness: count(p_hi) − count(p_lo) (§7.2 TC:
        ≈ 288 accesses)."""
        return self.percentile(hi) - self.percentile(lo)

    def cdf_points(
        self, log10_grid: Sequence[float] = tuple(np.arange(0.0, 8.25, 0.25))
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(x, F(x)) on a log10 access-count grid — the Figure 10 curve."""
        x = np.asarray(log10_grid, dtype=np.float64)
        if self.counts.size == 0:
            return x, np.zeros_like(x)
        logc = np.log10(self.counts)
        f = np.searchsorted(np.sort(logc), x, side="right") / logc.size
        return x, f

    def gini(self) -> float:
        """Gini coefficient of page heat — a scalar skew index."""
        c = self.counts
        if c.size == 0 or c.sum() == 0:
            return 0.0
        sorted_c = np.sort(c)
        n = c.size
        cum = np.cumsum(sorted_c)
        return float((n + 1 - 2 * (cum / cum[-1]).sum()) / n)


def breakeven_migration_accesses(
    migration_cost_us: float = MIGRATION_COST_US,
    cxl_latency_ns: float = CXL_LATENCY_NS,
    ddr_latency_ns: float = DDR_LATENCY_NS,
) -> float:
    """§7.2 arithmetic: accesses to amortise one migration (≈318).

    A slow tier no slower than the fast one never repays a migration:
    the break-even is then infinite.
    """
    delta = cxl_latency_ns - ddr_latency_ns
    if delta <= 0:
        return float("inf")
    return migration_cost_us * 1000.0 / delta
