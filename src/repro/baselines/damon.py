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
(§2.1's staleness caveat).  The TLB miss ratio is fixed once the
epoch's accesses have touched the page table, so the probability is
computed once per page per epoch and every sample looks it up.  This
is exact in expectation for Poisson arrivals and preserves the two
DAMON failure modes the paper demonstrates: region blur and intensity
blindness (a bit per sample, not a count).

CPU cost: every sample is a PTE walk + clear, and the sampling never
stops — even "after page migration reaches an equilibrium state",
which is how DAMON degrades Redis by 16% while ANB backs off (§7.2).
DAMON's sampling work is footprint-independent (one page per region),
so its costs are *not* scaled under time dilation.
"""

from __future__ import annotations

from typing import Optional

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
        # Empty buckets (a footprint under min_nr_regions) are dropped.
        bounds = np.unique(np.linspace(0, n, self.min_nr_regions + 1).astype(np.int64))
        # The regions: [starts[i], ends[i]) logical pages, contiguous and
        # ascending, with the sample count of each in _nr_accesses.  The
        # three arrays stay index-aligned; only _aggregate reshapes them.
        self.starts, self.ends = bounds[:-1], bounds[1:]
        self._nr_accesses = np.zeros(self.starts.size, dtype=np.int64)
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

    def _sample_passes(self, num_passes: int, p_page: np.ndarray) -> None:
        """Run ``num_passes`` sampling passes over the current regions.

        Vectorised: pass p picks one uniform page per region, whose
        access bit reads as set with probability ``p_page[page]``.
        """
        num_regions = self.starts.size
        if num_passes <= 0 or not num_regions:
            return
        sizes = self.ends - self.starts
        picks = self.starts[None, :] + (
            self._rng.random((num_passes, num_regions)) * sizes[None, :]
        ).astype(np.int64)
        self._nr_accesses += (self._rng.random(picks.shape) < p_page[picks]).sum(axis=0)
        total = num_passes * num_regions
        self.samples_taken += total
        self._samples_this_window += num_passes
        self.costs.charge(total * SAMPLE_COST_US, "pte_sample")

    # ------------------------------------------------------------------
    # aggregation (promote, merge, split)

    def _promote_hot(self, threshold: float) -> None:
        """Promote the CXL pages of regions scoring ``threshold`` or
        more, highest score first (ties by address), until
        ``quota_pages`` pages are taken."""
        nr = self._nr_accesses
        order = np.lexsort((self.starts, -nr))
        hot = order[nr[order] >= threshold]
        if hot.size == 0 or self.quota_pages <= 0:
            return
        # Every page of the hot regions, concatenated in that order.
        starts = self.starts[hot]
        sizes = self.ends[hot] - starts
        cumsizes = np.cumsum(sizes)
        pages = np.repeat(starts - (cumsizes - sizes), sizes) + np.arange(cumsizes[-1])
        # Regions are disjoint, so one call appends the same pages in
        # the same order as one call per region.
        self.record_hot(pages[self.memory.node_map[pages] == 1][:self.quota_pages])

    def _merge_regions(self) -> None:
        """Merge each region into its left neighbour's group when its
        score is within ``merge_threshold`` of the group's running
        size-weighted floor average.  Whether merging is allowed at all
        is decided once, on the pre-merge region count."""
        if self.starts.size <= self.min_nr_regions:
            return
        threshold = self.merge_threshold
        nrs, sizes = self._nr_accesses, self.ends - self.starts
        firsts, scores = [0], []
        score, size = int(nrs[0]), int(sizes[0])
        # lint: disable=PERF001 -- each merge test reads the running
        # average of the group being grown, so the scan is sequential
        # (at most max_nr_regions steps per aggregation)
        for i, nr, region_size in zip(range(1, nrs.size), nrs[1:].tolist(),
                                      sizes[1:].tolist()):
            if -threshold <= score - nr <= threshold:
                total = size + region_size
                score = (score * size + nr * region_size) // total
                size = total
            else:
                firsts.append(i)
                scores.append(score)
                score, size = nr, region_size
        scores.append(score)
        lasts = np.append(np.array(firsts[1:], dtype=np.int64) - 1, nrs.size - 1)
        self.starts = self.starts[firsts]
        self.ends = self.ends[lasts]
        self._nr_accesses = np.array(scores, dtype=np.int64)

    def _split_regions(self) -> None:
        """Split every region of two or more pages at a random cut in
        its middle half (both halves keep its score), unless that would
        exceed ``max_nr_regions``."""
        if self.starts.size * 2 > self.max_nr_regions:
            return
        sizes = self.ends - self.starts
        splits = sizes >= 2
        if not splits.any():
            return
        quarter = np.maximum(1, sizes[splits] // 4)
        lo = self.starts[splits] + quarter
        # One draw per split region, in address order: the same stream
        # (and end state) as one scalar draw per region.
        cuts = self._rng.integers(lo, np.maximum(lo + 1, self.ends[splits] - quarter))
        # Each cut lies strictly inside its region and the regions tile
        # the space, so the new starts are the sorted union and each
        # region ends where the next one starts.
        self.starts = np.sort(np.concatenate((self.starts, cuts)))
        self.ends = np.append(self.starts[1:], self.ends[-1])
        self._nr_accesses = np.repeat(self._nr_accesses, splits + 1)

    def _aggregate(self) -> None:
        """Score regions, promote the hottest under quota, then
        merge + split (the DAMOS hot-page scheme with a size quota)."""
        self.aggregations += 1
        self.costs.charge(AGGREGATE_COST_US, "aggregate")
        max_samples = max(1, self._samples_this_window)
        self._promote_hot(max(1.0, self.hot_threshold * max_samples))
        self._merge_regions()
        self._split_regions()
        self._nr_accesses = np.zeros(self.starts.size, dtype=np.int64)
        self._samples_this_window = 0

    def _detect(self, pages: np.ndarray, now_s: float, epoch_s: float) -> None:
        # Drive the page table/TLB so the miss-ratio estimate (and any
        # co-resident policy semantics) stay realistic.
        self.page_table.touch(pages)
        counts = np.bincount(pages, minlength=self.memory.num_logical_pages)
        # The TLB counters, hence the miss ratio, are fixed for the rest
        # of the epoch: one bit probability per page serves every pass.
        rate = (
            counts * self.access_scale * self._tlb_miss_ratio()
            / max(epoch_s, 1e-12)
        )
        p_page = 1.0 - np.exp(-rate * self.sampling_interval_s)
        end_s = now_s + epoch_s
        # Position aggregation boundaries inside the epoch; sampling
        # passes between boundaries run in batches.
        cursor = now_s
        while self._next_aggregate_s <= end_s:
            span = self._next_aggregate_s - cursor
            self._sample_passes(int(span / self.sampling_interval_s), p_page)
            cursor = self._next_aggregate_s
            self._next_aggregate_s += self.aggregation_interval_s
            self._aggregate()
        self._sample_debt_s += end_s - cursor
        passes = int(self._sample_debt_s / self.sampling_interval_s)
        if passes:
            self._sample_debt_s -= passes * self.sampling_interval_s
            self._sample_passes(passes, p_page)
