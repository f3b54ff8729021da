"""Page-migration engine: the model behind ``migrate_pages()``.

Carries the paper's cost arithmetic: migrating one 4KB page costs
about 54 microseconds on the testbed (§7.2), so a migrated page must
collect ≳318 extra DDR hits (54us / (270ns − 100ns)) before migration
pays off (:func:`repro.analysis.breakeven_migration_accesses`).  The
engine also implements Promoter's safety checks (§5.2 ④): pages
pinned for DMA or explicitly bound to a device node are rejected
rather than migrated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.memory.address import distinct_pages
from repro.memory.mglru import MultiGenLru
from repro.memory.tiers import NodeKind, TieredMemory


class PinReason(enum.Enum):
    """Why a page cannot be migrated (Promoter's rejection cases)."""

    NONE = "none"
    DMA = "dma"
    NODE_BOUND = "node_bound"


#: End-to-end cost of migrating one 4KB page on the testbed (§7.2).
MIGRATION_COST_US = 54.0


class MigrationCostModel:
    """Time cost of page promotion/demotion: :data:`MIGRATION_COST_US`
    per page (unmap, copy, remap, TLB shootdown)."""

    def cost_us(self, num_pages: int) -> float:
        return num_pages * MIGRATION_COST_US


@dataclass
class MigrationStats:
    """Aggregate outcome of migration activity."""

    promoted: int = 0
    demoted: int = 0
    rejected: int = 0
    time_us: float = 0.0
    rejected_by_reason: Dict[PinReason, int] = field(default_factory=dict)


class VictimOrder:
    """One async tick's demote-first victim order, walked by
    :meth:`MigrationEngine.next_victim`: the sorted victims, built on
    first use, and a cursor.  It lives for one tick and is never
    checkpointed."""

    __slots__ = ("pages", "cursor")

    def __init__(self) -> None:
        self.pages: Optional[np.ndarray] = None
        self.cursor = 0


class MigrationEngine:
    """Moves pages between tiers, demoting via MGLRU when DDR is full."""

    def __init__(
        self,
        memory: TieredMemory,
        mglru: Optional[MultiGenLru] = None,
        ddr_reserve_pages: int = 0,
    ):
        self.memory = memory
        self.cost_model = MigrationCostModel()
        self.mglru = (
            mglru if mglru is not None else MultiGenLru(memory.num_logical_pages)
        )
        self.ddr_reserve_pages = int(ddr_reserve_pages)
        self._pins = np.zeros(memory.num_logical_pages, dtype=np.int8)
        # Cached "any page pinned" flag so the promote fast path does
        # not pay an O(footprint) any() per call.
        self._has_pins = False
        self._PIN_CODE = {
            PinReason.NONE: 0,
            PinReason.DMA: 1,
            PinReason.NODE_BOUND: 2,
        }
        self._CODE_PIN = {v: k for k, v in self._PIN_CODE.items()}
        self.stats = MigrationStats()

    def pin(self, pages: np.ndarray, reason: PinReason) -> None:
        """Mark pages as unmigratable (DMA-pinned or node-bound)."""
        if reason is PinReason.NONE:
            raise ValueError("use unpin() to clear pins")
        self._pins[np.asarray(pages, dtype=np.int64)] = self._PIN_CODE[reason]
        self._has_pins = True

    def unpin(self, pages: np.ndarray) -> None:
        self._pins[np.asarray(pages, dtype=np.int64)] = 0
        self._has_pins = bool(self._pins.any())

    def pin_reason(self, page: int) -> PinReason:
        return self._CODE_PIN[int(self._pins[page])]

    def _reject_pinned(self, pages: np.ndarray) -> np.ndarray:
        pages = np.asarray(pages, dtype=np.int64)
        pinned = self._pins[pages] != 0
        for code in np.unique(self._pins[pages][pinned]):
            reason = self._CODE_PIN[int(code)]
            n = int((self._pins[pages] == code).sum())
            self.stats.rejected_by_reason[reason] = (
                self.stats.rejected_by_reason.get(reason, 0) + n
            )
        self.stats.rejected += int(pinned.sum())
        return pages[~pinned]

    def promote(self, pages: np.ndarray) -> int:
        """Migrate logical pages to DDR, demoting MGLRU victims as needed.

        Mirrors the paper's end-to-end methodology (§7): "After the
        given DDR DRAM capacity is used up, whenever the page-migration
        solution migrates a certain number of pages to DDR DRAM, it
        demotes the same number of pages to CXL DRAM."

        Returns:
            Number of pages actually promoted.
        """
        # One request moves a page once: dedupe before any accounting.
        pages = distinct_pages(np.asarray(pages, dtype=np.int64),
                               self.memory.num_logical_pages)
        pages = self._reject_pinned(pages)
        # Drop pages already on DDR.
        on_cxl = pages[self.memory.node_map[pages] == 1]
        if on_cxl.size == 0:
            return 0
        budget = self.memory.ddr.free_pages - self.ddr_reserve_pages
        free = min(max(budget, 0), int(on_cxl.size))
        paired = int(on_cxl.size) - free
        # The bulk path must reproduce the page-at-a-time loop's frame
        # assignments exactly.  Pinned DDR pages must be passed over as
        # victims, and a full CXL node makes the victim demote fail —
        # both rare; replay those sequentially rather than modelling
        # them twice.
        if self._has_pins or (paired > 0 and self.memory.cxl.free_pages < 1):
            promoted = self._promote_sequential(pages, on_cxl, budget)
        else:
            promoted = free
            if free:
                self.memory.move_pages(on_cxl[:free], NodeKind.DDR)
                self.mglru.track(on_cxl[:free])
            if paired:
                promoted += self._promote_paired(pages, on_cxl[free:])
        self.stats.promoted += promoted
        self.stats.time_us += self.cost_model.cost_us(promoted)
        return promoted

    def _promote_paired(self, pages: np.ndarray, remaining: np.ndarray) -> int:
        """Promote with zero DDR headroom: every promotion demotes one
        MGLRU victim, reproducing the sequential loop's alternating
        demote/promote frame traffic in bulk.

        The victim list can be hoisted out of the loop: demoted victims
        leave the candidate pool, pages promoted mid-loop join it but
        are in the request (hence forbidden), and nothing else changes
        generation or heat mid-call — so the sequential loop's i-th
        victim is the i-th entry of one up-front coldest() sweep with
        the requested pages masked out.

        Frame assignments follow from the LIFO free lists: each
        demotion's DDR frame is immediately reused by the paired
        promotion, so promoted page i inherits victim i's DDR frame,
        victim 0 takes the CXL free-list head, and victim i+1 takes
        promoted page i's old CXL frame.
        """
        ddr_pages = self.memory.pages_on(NodeKind.DDR)
        victims = self.mglru.coldest(len(ddr_pages), among=ddr_pages)
        victims = victims[~np.isin(victims, pages)]
        t = min(int(remaining.size), int(victims.size))
        if t == 0:
            return 0
        victims, promos = victims[:t], remaining[:t]
        frame_of = self.memory.frame_map
        ddr_frames = frame_of[victims].copy()
        cxl_frames = frame_of[promos].copy()
        victim_frames = np.empty(t, dtype=np.int64)
        victim_frames[0] = self.memory.cxl.allocate_frame()
        victim_frames[1:] = cxl_frames[:-1]
        self.memory.cxl.free_frame(int(cxl_frames[-1]))
        # The DDR free list is untouched net of the loop: each freed
        # victim frame is popped right back by the paired promotion.
        self.memory._frame_of[victims] = victim_frames
        self.memory._node_of[victims] = self.memory._NODE_CODE[NodeKind.CXL]
        self.memory._frame_of[promos] = ddr_frames
        self.memory._node_of[promos] = self.memory._NODE_CODE[NodeKind.DDR]
        self.mglru.untrack(victims)
        self.mglru.track(promos)
        self.stats.demoted += t
        self.stats.time_us += self.cost_model.cost_us(t)
        return t

    def _promote_sequential(
        self, pages: np.ndarray, on_cxl: np.ndarray, budget: int
    ) -> int:
        """One demote/promote pair per page: the page-at-a-time
        semantics :meth:`promote`'s bulk path reproduces, and the only
        path for pinned pages and a full CXL node."""
        promoted = 0
        # lint: disable=PERF001 -- only pinned pages or a full CXL node
        # land here; each demotion can change the next victim and budget
        for lpage in on_cxl.tolist():
            if budget <= 0:
                # Demote one victim to make room; never demote a page
                # named in this request (whether being promoted now or
                # already resident on DDR).
                victim = self.coldest_demotable(protect=pages)
                if victim.size == 0 or self.demote(victim) == 0:
                    break
                budget += 1
            self.memory.move_page(lpage, NodeKind.DDR)
            self.mglru.track(np.array([lpage]))
            promoted += 1
            budget -= 1
        return promoted

    def next_victim(self, order: VictimOrder, lpage: int) -> np.ndarray:
        """:meth:`coldest_demotable` protecting ``lpage``, a CXL page
        being promoted inside one async tick, found by walking the
        tick's victim ``order``.

        The tick's first call sorts the unpinned DDR pages older than
        the youngest generation once, with :meth:`MultiGenLru.coldest`.
        Each call moves the cursor past the pages that have since left
        DDR or rejoined it, and the first page left is the victim.  The
        walk is exact because nothing else moves inside a tick: heat and
        generations change only in the snoop stage and at ``age()``,
        pins only between ticks, and pages leave DDR only as victims or
        demotions.  The one way onto DDR mid-tick is a promotion, which
        joins the youngest generation and so sorts after every older
        page; ``lpage`` is on CXL, hence never a candidate.  Once the
        older pages are used up, the victim is in the youngest
        generation and the full search finds it.
        """
        if order.pages is None:
            ddr = self.memory.pages_on(NodeKind.DDR)
            older = self.mglru._gen[ddr] < self.mglru.max_seq
            if self._has_pins:
                older &= self._pins[ddr] == 0
            order.pages = self.mglru.coldest(int(older.sum()), among=ddr[older])
        pages, node_of = order.pages, self.memory.node_map
        i = order.cursor
        while i < pages.size and (
            node_of[pages[i]] != 0 or self.mglru.generation_of(int(pages[i])) == 0
        ):
            i += 1
        order.cursor = i
        if i < pages.size:
            return pages[i:i + 1]
        return self.coldest_demotable(protect=np.array([lpage]))

    def coldest_demotable(self, protect: np.ndarray) -> np.ndarray:
        """The next demotion victim: the coldest DDR-resident page that
        is neither pinned nor in ``protect`` (empty if there is none).

        Filtering first makes the victim the minimum of the eligible
        set, which :meth:`MultiGenLru.coldest` finds without a sort.
        """
        eligible = self.memory.node_map == 0
        eligible[protect] = False
        if self._has_pins:
            eligible &= self._pins == 0
        return self.mglru.coldest(1, among=np.flatnonzero(eligible))

    def demote(self, pages: np.ndarray) -> int:
        """Migrate logical pages from DDR down to CXL."""
        pages = distinct_pages(np.asarray(pages, dtype=np.int64),
                               self.memory.num_logical_pages)
        pages = self._reject_pinned(pages)
        on_ddr = pages[self.memory.node_map[pages] == 0]
        # A page-at-a-time loop stops at the first failed CXL
        # allocation, i.e. it demotes exactly the first free_pages-many
        # pages of the batch.
        demoted = min(int(on_ddr.size), self.memory.cxl.free_pages)
        if demoted:
            self.memory.move_pages(on_ddr[:demoted], NodeKind.CXL)
            self.mglru.untrack(on_ddr[:demoted])
        self.stats.demoted += demoted
        self.stats.time_us += self.cost_model.cost_us(demoted)
        return demoted
