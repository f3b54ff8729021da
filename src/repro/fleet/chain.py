"""Cross-tier demotion chain: the CXL → pooled link.

The 2-tier :class:`~repro.memory.migration.MigrationEngine` owns the
DRAM ↔ CXL boundary (promotions + watermark/paired demotions).  This
module adds the chain's lower link for ≥3-tier hierarchies, in the
spirit of HM-Keeper's multi-tier management:

* **headroom demotions** — each epoch the chain keeps a fraction of
  the tenant's CXL share free by demoting the least-recently-accessed
  CXL pages to the pooled tier, so DRAM demotions (and pull-ups)
  always find room; pages cascade DRAM → CXL → pooled over epochs.
* **pull-ups** — pooled pages re-accessed this epoch are promoted one
  level, back to direct-attached CXL (budgeted per epoch), where the
  PAC can see them again and the normal promotion path takes over.

Chain moves are charged at the same per-page migration cost as the
2-tier engine, into the same ``engine.stats.time_us`` account, so
they land in the epoch's migration time exactly like DRAM-boundary
traffic.  The chain rides the tenant pipeline as an extra stage right
after ``migrate``; it never touches DRAM, so the heavily-tested
2-tier promote/demote paths are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.memory.migration import MigrationEngine
from repro.memory.tiers import NodeKind, TieredMemory


@dataclass
class ChainStats:
    """Aggregate demotion-chain traffic for one tenant."""

    demoted_to_pooled: int = 0
    pulled_from_pooled: int = 0
    time_us: float = 0.0

    def as_dict(self) -> dict:
        return {
            "demoted_to_pooled": self.demoted_to_pooled,
            "pulled_from_pooled": self.pulled_from_pooled,
            "time_us": self.time_us,
        }


class DemotionChain:
    """Per-tenant manager of the CXL → pooled chain link."""

    def __init__(
        self,
        memory: TieredMemory,
        engine: MigrationEngine,
        headroom_frac: float = 0.02,
        pull_budget: int = 64,
    ) -> None:
        if memory.num_nodes < 3:
            raise ValueError("the demotion chain needs a pooled tier")
        if not 0.0 <= headroom_frac < 1.0:
            raise ValueError("headroom_frac must be in [0, 1)")
        self.memory = memory
        self.engine = engine
        self.cxl_index = memory.node_index(NodeKind.CXL)
        self.pooled_index = memory.node_index(NodeKind.CXL_POOLED)
        cxl_capacity = memory.nodes[self.cxl_index].capacity_pages
        #: CXL frames the chain keeps free for incoming demotions.
        self.headroom_pages = int(headroom_frac * cxl_capacity)
        self.pull_budget = int(pull_budget)
        # Last-access epoch per logical page: MGLRU only tracks the
        # DRAM working set, so the chain keeps its own recency clock
        # for choosing cold CXL victims.
        self._last_access = np.zeros(memory.num_logical_pages, dtype=np.int64)
        self.stats = ChainStats()

    def stage(self, policy: object, st: Any) -> None:
        """The pipeline stage spliced in right after ``migrate``."""
        self.run_epoch(st.epoch, st.lpages)

    def run_epoch(self, epoch: int, lpages: np.ndarray) -> int:
        """Run one epoch of chain maintenance; returns pages moved.

        Order matters: pull-ups first (re-accessed pooled pages climb
        into the current CXL free space), then headroom demotions
        (cold CXL pages sink to pooled until the free target holds).
        A freshly pulled page carries this epoch's access stamp, so it
        is the last candidate the same epoch's demotion pass would
        pick.
        """
        lpages = np.asarray(lpages, dtype=np.int64)
        self._last_access[lpages] = epoch
        node_map = self.memory.node_map
        moved = 0

        if self.pull_budget > 0:
            pooled_hits = lpages[node_map[lpages] == self.pooled_index]
            if pooled_hits.size:
                pages, counts = np.unique(pooled_hits, return_counts=True)
                # Hottest first; page id breaks ties deterministically.
                order = np.lexsort((pages, -counts))
                free = self.memory.nodes[self.cxl_index].free_pages
                take = min(self.pull_budget, int(pages.size), free)
                if take > 0:
                    self.memory.move_pages_to(
                        pages[order][:take], self.cxl_index
                    )
                    self.stats.pulled_from_pooled += take
                    moved += take

        need = (
            self.headroom_pages
            - self.memory.nodes[self.cxl_index].free_pages
        )
        if need > 0:
            candidates = self.memory.pages_on_node(self.cxl_index)
            if candidates.size:
                # Coldest first (oldest access stamp, then page id).
                order = np.lexsort((candidates, self._last_access[candidates]))
                pooled_free = self.memory.nodes[self.pooled_index].free_pages
                take = min(need, int(candidates.size), pooled_free)
                if take > 0:
                    self.memory.move_pages_to(
                        candidates[order][:take], self.pooled_index
                    )
                    self.stats.demoted_to_pooled += take
                    moved += take

        if moved:
            cost = self.engine.cost_model.cost_us(moved)
            self.engine.stats.time_us += cost
            self.stats.time_us += cost
        return moved
