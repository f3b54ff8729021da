"""Per-epoch invariant checking for the simulation pipeline.

M5's evaluation only makes sense if the profilers are *exact or
provably bounded* (§3, §5.1): PAC conserves every access it snoops,
the trackers never exceed their hardware table sizes, and the memory
system never loses or duplicates a page.  The
:class:`InvariantChecker` encodes those guarantees as assertions that
run once per epoch, as an extra pipeline stage appended when
``SimConfig.check_invariants`` is on (the default pipeline is
untouched, so invariant-off runs stay bit-identical to the frozen
goldens).

Invariant catalogue (see ``docs/verification.md``):

* ``pac_conservation`` / ``wac_conservation`` — counter conservation:
  ``total_accesses == sum(table) + sum(live sram)``.  PAC is the
  ground truth of the access-count-ratio metric; a lost access would
  silently bias every score.
* ``tier_conservation`` — every logical page is mapped to exactly one
  frame on exactly one node, no two pages share a frame, per-node
  occupancy equals the node's used-frame count, and fast-tier
  occupancy never exceeds capacity.
* ``tracker_bounds`` — the CM-Sketch CAM holds at most K entries, a
  Space-Saving/Misra–Gries summary holds at most ``capacity`` entries
  and its lazy heap stays within its compaction bound, and CAM offer
  statistics are conserved (hits + insertions + replacements +
  rejections).
* ``queue_bounds`` — the async migration queue never exceeds its
  capacity, holds no duplicate pages, every queued page is covered by
  the dedup set, and one tick never copies more pages than the
  in-flight budget allows.
* ``perf_nonnegative`` — every component of the epoch's performance
  decomposition (compute, memory, overhead, migration) is finite and
  non-negative.
* ``mglru_bounds`` — tracked generations stay inside the
  ``num_generations`` window and the heat signal is non-negative.

Each check increments ``invariant_checks_total{invariant=...}``; the
first failed check raises :class:`InvariantViolation`, which ends the
run.  The raise is a violation's only channel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.spacesaving import SpaceSaving
from repro.core.topk import SortedCam

if TYPE_CHECKING:
    from repro.migration.request import TickReport
    from repro.sim.engine import Simulation, _EpochState
    from repro.sim.perf import EpochPerf


class InvariantViolation(AssertionError):
    """An invariant the pipeline must uphold was broken."""


class InvariantChecker:
    """Cross-checks the simulation's state once per epoch.

    Args:
        sim: the :class:`~repro.sim.engine.Simulation` under check; the
            checker reads trackers, tiers, and queues through it.

    The first broken invariant raises :class:`InvariantViolation`.
    """

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self.checks_run = 0
        self._m_checks = sim.obs.registry.counter(
            "invariant_checks_total",
            "Invariant evaluations per kind",
            labels=("invariant",),
        )

    # ------------------------------------------------------------------

    def _check(self, invariant: str, epoch: int, ok: bool, detail: str) -> None:
        self.checks_run += 1
        self._m_checks.labels(invariant=invariant).inc()
        if not ok:
            raise InvariantViolation(
                f"[epoch {int(epoch)}] {invariant}: {detail}"
            )

    # ------------------------------------------------------------------
    # individual invariants

    def check_pac_conservation(self, epoch: int) -> None:
        pac = self.sim.pac
        total = int(pac._table.sum())
        if pac._cache_mode:
            total += int(pac._sram[pac._tags >= 0].sum())
        else:
            total += int(pac._sram.sum())
        self._check(
            "pac_conservation", epoch, total == pac.total_accesses,
            f"table+sram hold {total} accesses but PAC snooped "
            f"{pac.total_accesses}",
        )

    def check_wac_conservation(self, epoch: int) -> None:
        wac = self.sim.wac
        if wac is None:
            return
        total = int(wac._table.sum()) + int(wac._sram.sum())
        self._check(
            "wac_conservation", epoch, total == wac.total_accesses,
            f"table+sram hold {total} accesses but WAC snooped "
            f"{wac.total_accesses}",
        )

    def check_tier_conservation(self, epoch: int) -> None:
        mem = self.sim.memory
        codes = mem.node_map
        frames = mem.frame_map
        unmapped = int((codes < 0).sum())
        self._check(
            "tier_conservation", epoch, unmapped == 0,
            f"{unmapped} logical pages are on no tier",
        )
        # N-tier conservation: iterate the node list, not DDR/CXL —
        # fleet hierarchies add a pooled node behind the CXL tier.
        counts = [mem.nr_pages_at(i) for i in range(mem.num_nodes)]
        self._check(
            "tier_conservation", epoch,
            sum(counts) == mem.num_logical_pages,
            f"tiers hold {'+'.join(str(c) for c in counts)} pages, "
            f"footprint is {mem.num_logical_pages}",
        )
        for node, count in zip(mem.nodes, counts):
            self._check(
                "tier_conservation", epoch,
                count <= node.capacity_pages,
                f"node {node.name} holds {count} pages over its "
                f"{node.capacity_pages}-page capacity",
            )
        used = [node.used_pages for node in mem.nodes]
        self._check(
            "tier_conservation", epoch, counts == used,
            f"page map says {counts} per tier, frame allocators "
            f"say {used}",
        )
        dupes = frames.size - int(np.unique(frames).size)
        self._check(
            "tier_conservation", epoch, dupes == 0,
            f"{dupes} logical pages share a physical frame",
        )

    def _check_summary(self, epoch: int, summary: SpaceSaving, what: str) -> None:
        self._check(
            "tracker_bounds", epoch, len(summary) <= summary.capacity,
            f"{what} holds {len(summary)} entries over capacity "
            f"{summary.capacity}",
        )
        self._check(
            "tracker_bounds", epoch,
            len(summary._heap) <= summary._heap_bound,
            f"{what} lazy heap grew to {len(summary._heap)} entries "
            f"(bound {summary._heap_bound})",
        )

    def _check_cam(self, epoch: int, cam: SortedCam, what: str) -> None:
        self._check(
            "tracker_bounds", epoch, len(cam) <= cam.k,
            f"{what} holds {len(cam)} entries over K={cam.k}",
        )
        settled = cam.hits + cam.insertions + cam.replacements + cam.rejections
        self._check(
            "tracker_bounds", epoch, settled == cam.offers,
            f"{what} offer stats lose offers: "
            f"{settled} settled vs {cam.offers} offered",
        )

    def check_tracker_bounds(self, epoch: int) -> None:
        manager = self.sim._manager
        if manager is None:
            return
        for tracker in (manager.hpt, manager.hwt):
            if tracker is None:
                continue
            cam = getattr(tracker, "cam", None)
            if cam is not None:
                self._check_cam(epoch, cam, type(tracker).__name__)
            summary = getattr(tracker, "summary", None)
            if isinstance(summary, SpaceSaving):
                self._check_summary(epoch, summary, type(tracker).__name__)

    def check_queue_bounds(
        self, epoch: int, tick: Optional[TickReport] = None
    ) -> None:
        eng = self.sim.async_engine
        if eng is None:
            return
        queue = eng.queue
        self._check(
            "queue_bounds", epoch, len(queue) <= queue.capacity,
            f"queue holds {len(queue)} requests over capacity "
            f"{queue.capacity}",
        )
        queued = [req.lpage for req in queue._queue]
        self._check(
            "queue_bounds", epoch, len(queued) == len(set(queued)),
            f"queue holds {len(queued) - len(set(queued))} duplicate pages",
        )
        uncovered = set(queued) - queue._queued_pages
        self._check(
            "queue_bounds", epoch, not uncovered,
            f"{len(uncovered)} queued pages missing from the dedup set",
        )
        if tick is not None:
            budget = eng.config.inflight_budget
            self._check(
                "queue_bounds", epoch, tick.pages_copied <= budget,
                f"tick copied {tick.pages_copied} pages over the "
                f"{budget}-page in-flight budget",
            )

    def check_perf_nonnegative(
        self, epoch: int, perf: Optional[EpochPerf]
    ) -> None:
        if perf is None:
            return
        parts = {
            "compute_s": perf.compute_s,
            "memory_s": perf.memory_s,
            "overhead_s": perf.overhead_s,
            "migration_s": perf.migration_s,
        }
        bad = {k: v for k, v in parts.items() if not (np.isfinite(v) and v >= 0)}
        self._check(
            "perf_nonnegative", epoch, not bad,
            f"perf model produced negative/non-finite times: {bad}",
        )

    def check_mglru_bounds(self, epoch: int) -> None:
        mglru = self.sim.mglru
        gens = mglru._gen
        tracked = gens >= 0
        behind = int((tracked & (gens < mglru.min_seq)).sum())
        ahead = int((gens > mglru.max_seq).sum())
        self._check(
            "mglru_bounds", epoch, behind == 0 and ahead == 0,
            f"{behind} pages behind the generation window, {ahead} ahead",
        )
        negative_heat = int((mglru._heat < 0).sum())
        self._check(
            "mglru_bounds", epoch, negative_heat == 0,
            f"{negative_heat} pages carry negative heat",
        )

    # ------------------------------------------------------------------

    def check_epoch(self, st: _EpochState) -> None:
        """Run the full catalogue against one finished epoch."""
        epoch = st.epoch
        self.check_pac_conservation(epoch)
        self.check_wac_conservation(epoch)
        self.check_tier_conservation(epoch)
        self.check_tracker_bounds(epoch)
        self.check_queue_bounds(epoch, tick=st.tick)
        self.check_perf_nonnegative(epoch, st.perf)
        self.check_mglru_bounds(epoch)
