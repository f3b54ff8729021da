"""DAMON: the region-based PTE-scanning baseline (§2.1 Solution 2).

Models the kernel's Data Access MONitor as evaluated in the paper
(Linux 6.11, DAMON-based promotion):

* the monitored address space is partitioned into **regions**; every
  *sampling interval* DAMON checks the access bit of one page per
  region (clearing it afterwards), incrementing the region's
  ``nr_accesses`` when set;
* every *aggregation interval* regions are scored, adjacent regions
  with similar counts are **merged**, and regions are **split** to
  keep adaptivity, bounded by ``min_nr_regions``/``max_nr_regions``;
* regions whose ``nr_accesses`` crosses the hot threshold are promoted
  — *every page of the region* is treated as hot, which is the
  granularity blur behind Observation 1: one hot page drags its whole
  region's warm pages into the hot list.

Because the simulation advances in epochs that are long relative to
the 5ms sampling interval, the access-bit checks inside an epoch are
evaluated statistically: a sampled page's bit reads as set with
probability ``1 − exp(−rate_miss × interval)``, where ``rate_miss`` is
the page's TLB-*missing* access rate during the epoch — the access
bit is only set on a page walk, so TLB-resident pages undercount
(§2.1's staleness caveat).  This is exact in expectation for Poisson
arrivals and preserves the two DAMON failure modes the paper
demonstrates: region blur and intensity blindness (a bit per sample,
not a count).

CPU cost: every sample is a PTE walk + clear, and the sampling never
stops — even "after page migration reaches an equilibrium state",
which is how DAMON degrades Redis by 16% while ANB backs off (§7.2).
DAMON's sampling work is footprint-independent (one page per region),
so its costs are *not* scaled under time dilation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.baselines.base import MigrationPolicy
from repro.memory.page_table import PageTable
from repro.memory.tiers import TieredMemory

#: Cost per sampled PTE (walk + read-clear + bookkeeping), us.
SAMPLE_COST_US = 0.6
#: Cost of one aggregation pass (merge/split over the region list), us.
AGGREGATE_COST_US = 15.0

DEFAULT_SAMPLING_INTERVAL_S = 0.005
DEFAULT_AGGREGATION_INTERVAL_S = 0.1


@dataclass
class Region:
    """One DAMON region: [start, end) logical pages."""

    start: int
    end: int
    nr_accesses: int = 0

    @property
    def size(self) -> int:
        return self.end - self.start


class Damon(MigrationPolicy):
    """DAMON model with adaptive region split/merge.

    Args:
        min_nr_regions / max_nr_regions: kernel defaults 10 / 1000.
        hot_threshold: minimum fraction of the aggregation window's
            samples a region must score to be promotable.
        quota_pages: DAMOS-style quota — at most this many pages are
            promoted per aggregation, taken from the highest-scoring
            regions first (0 derives footprint/32).
        merge_threshold: max |Δnr_accesses| for adjacent-region merge.
        access_scale: under time dilation, real access counts per page
            are ``access_scale`` times the model's counts (set by the
            engine; affects only the statistical bit probability).
    """

    name = "damon"

    def __init__(
        self,
        memory: TieredMemory,
        page_table: Optional[PageTable] = None,
        sampling_interval_s: float = DEFAULT_SAMPLING_INTERVAL_S,
        aggregation_interval_s: float = DEFAULT_AGGREGATION_INTERVAL_S,
        min_nr_regions: int = 10,
        max_nr_regions: int = 1000,
        hot_threshold: float = 0.05,
        quota_pages: int = 0,
        merge_threshold: int = 2,
        access_scale: float = 1.0,
        seed: int = 42,
    ):
        super().__init__(memory, page_table)
        if sampling_interval_s <= 0 or aggregation_interval_s <= 0:
            raise ValueError("intervals must be positive")
        if not 2 <= min_nr_regions <= max_nr_regions:
            raise ValueError("bad region bounds")
        self.sampling_interval_s = float(sampling_interval_s)
        self.aggregation_interval_s = float(aggregation_interval_s)
        self.min_nr_regions = int(min_nr_regions)
        self.max_nr_regions = int(max_nr_regions)
        self.hot_threshold = float(hot_threshold)
        self.quota_pages = (
            int(quota_pages) if quota_pages else max(32, memory.num_logical_pages // 32)
        )
        self.merge_threshold = int(merge_threshold)
        self.access_scale = float(access_scale)
        self._rng = np.random.default_rng(seed)
        n = memory.num_logical_pages
        bounds = np.linspace(0, n, self.min_nr_regions + 1).astype(int)
        self.regions: List[Region] = [
            Region(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a
        ]
        # Per-region sample counts live in this array (index-aligned
        # with self.regions, which only mutates inside _aggregate) and
        # are materialised into Region.nr_accesses at aggregation time.
        self._nr_accesses = np.zeros(len(self.regions), dtype=np.int64)
        self._sample_debt_s = 0.0
        self._next_aggregate_s = self.aggregation_interval_s
        self._samples_this_window = 0
        self.samples_taken = 0
        self.aggregations = 0

    # ------------------------------------------------------------------
    # sampling

    def _tlb_miss_ratio(self) -> float:
        tlb = self.page_table.tlb
        total = tlb.hits + tlb.misses
        return tlb.misses / total if total else 1.0

    def _sample_passes(self, num_passes: int, counts: np.ndarray,
                       epoch_s: float) -> None:
        """Run ``num_passes`` sampling passes over the current regions.

        Vectorised: pass p picks one uniform page per region; the bit
        probability follows the page's TLB-missing access rate.
        """
        if num_passes <= 0 or not self.regions:
            return
        starts = np.array([r.start for r in self.regions])
        sizes = np.array([r.size for r in self.regions])
        picks = starts[None, :] + (
            self._rng.random((num_passes, len(self.regions))) * sizes[None, :]
        ).astype(np.int64)
        rate = (
            counts[picks] * self.access_scale * self._tlb_miss_ratio()
            / max(epoch_s, 1e-12)
        )
        p_bit = 1.0 - np.exp(-rate * self.sampling_interval_s)
        self._nr_accesses += (self._rng.random(picks.shape) < p_bit).sum(axis=0)
        total = num_passes * len(self.regions)
        self.samples_taken += total
        self._samples_this_window += num_passes
        self.costs.charge(total * SAMPLE_COST_US, "pte_sample")

    # ------------------------------------------------------------------
    # aggregation (merge/split)

    def _merge_regions(self) -> None:
        merged: List[Region] = []
        for region in self.regions:
            if (
                merged
                and abs(merged[-1].nr_accesses - region.nr_accesses)
                <= self.merge_threshold
                and len(self.regions) > self.min_nr_regions
            ):
                last = merged[-1]
                total = last.size + region.size
                last.nr_accesses = (
                    last.nr_accesses * last.size + region.nr_accesses * region.size
                ) // total
                last.end = region.end
            else:
                merged.append(region)
        self.regions = merged

    def _split_regions(self) -> None:
        if len(self.regions) * 2 > self.max_nr_regions:
            return
        split: List[Region] = []
        for region in self.regions:
            if region.size < 2:
                split.append(region)
                continue
            lo = region.start + max(1, region.size // 4)
            hi = region.end - max(1, region.size // 4)
            cut = int(self._rng.integers(lo, max(lo + 1, hi)))
            split.append(Region(region.start, cut, region.nr_accesses))
            split.append(Region(cut, region.end, region.nr_accesses))
        self.regions = split

    def _aggregate(self) -> None:
        """Score regions, promote the hottest under quota, then
        merge + split (the DAMOS hot-page scheme with a size quota)."""
        self.aggregations += 1
        self.costs.charge(AGGREGATE_COST_US, "aggregate")
        # Materialise the array counts: scoring and merge/split read
        # Region.nr_accesses.
        for region, n in zip(self.regions, self._nr_accesses.tolist()):
            region.nr_accesses = int(n)
        max_samples = max(1, self._samples_this_window)
        threshold = max(1.0, self.hot_threshold * max_samples)
        # Highest scoring regions first (quota prioritisation).
        budget = self.quota_pages
        for region in sorted(
            self.regions, key=lambda r: (-r.nr_accesses, r.start)
        ):
            if region.nr_accesses < threshold or budget <= 0:
                break
            pages = np.arange(region.start, region.end)
            pages = pages[self.memory.node_map[pages] == 1][:budget]
            budget -= int(pages.size)
            self.record_hot(pages)
        self._merge_regions()
        self._split_regions()
        for region in self.regions:
            region.nr_accesses = 0
        self._nr_accesses = np.zeros(len(self.regions), dtype=np.int64)
        self._samples_this_window = 0

    def _detect(self, pages: np.ndarray, now_s: float, epoch_s: float) -> None:
        # Drive the page table/TLB so the miss-ratio estimate (and any
        # co-resident policy semantics) stay realistic.
        self.page_table.touch(pages)
        counts = np.bincount(pages, minlength=self.memory.num_logical_pages)
        end_s = now_s + epoch_s
        # Position aggregation boundaries inside the epoch; sampling
        # passes between boundaries run in batches.
        cursor = now_s
        while self._next_aggregate_s <= end_s:
            span = self._next_aggregate_s - cursor
            self._sample_passes(
                int(span / self.sampling_interval_s), counts, epoch_s
            )
            cursor = self._next_aggregate_s
            self._next_aggregate_s += self.aggregation_interval_s
            self._aggregate()
        self._sample_debt_s += end_s - cursor
        passes = int(self._sample_debt_s / self.sampling_interval_s)
        if passes:
            self._sample_debt_s -= passes * self.sampling_interval_s
            self._sample_passes(passes, counts, epoch_s)
