"""Tiered-memory model: an ordered hierarchy of memory nodes.

The model keeps the paper's NUMA framing: CXL device memory is exposed
as a CPU-less remote NUMA node, and the application's pages live on
exactly one node at a time.  Logical (application) pages are mapped to
physical frames inside each node's physical-address region, so the
CXL controller's profilers see real physical addresses and the
migration engine can rebind pages between nodes.

The default layout is the paper's two-node DDR + CXL pair, but the
hierarchy is an ordered list of :class:`NodeSpec` entries (fastest
first), so fleet simulations can add further tiers — e.g. a slow or
pooled CXL node behind the direct-attached device — with derived base
physical addresses and latencies.  Node ``i`` in the list carries the
page-map code ``i`` (0 = DDR, 1 = CXL, 2+ = extra tiers), and all
kind-based APIs resolve to the *first* node of that kind, keeping the
two-node fast paths bit-identical to the historical layout.

The node-level statistics published here (``nr_pages``, ``bw``,
``bw_den``) are precisely the Monitor functions of Table 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.memory.address import PAGE_SHIFT, PAGE_SIZE, AddressRegion


class NodeKind(enum.Enum):
    """Which tier a memory node belongs to."""

    DDR = "ddr"
    CXL = "cxl"
    #: A slower CXL device behind a switch (pooled/far memory) — the
    #: third link of the fleet demotion chain (DRAM → CXL → pooled).
    CXL_POOLED = "pooled"


#: Default physical layout: DDR at 0, CXL device memory high in the PA
#: space, mirroring how BIOS maps HDM ranges above local DRAM.
DDR_BASE = 0x0000_0000_0000
CXL_BASE = 0x2000_0000_0000 >> 1  # 16TB mark, well clear of DDR
#: Pooled/far CXL memory mapped above the direct-attached HDM window.
CXL_POOLED_BASE = 0x2000_0000_0000  # 32TB mark

#: Load-to-use latencies used throughout the paper's arithmetic
#: (§7.2 break-even: 54us / (270ns - 100ns) ≈ 318 accesses).
DDR_LATENCY_NS = 100.0
CXL_LATENCY_NS = 270.0
#: Pooled CXL sits behind a switch: roughly one extra hop of latency
#: (TPP/Pond-style far-memory figures land in the 400–700ns band).
CXL_POOLED_LATENCY_NS = 600.0


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one memory node in an ordered hierarchy.

    Attributes:
        kind: tier family (drives defaults and kind-based lookups).
        capacity_pages: frames this node provides.
        latency_ns: load-to-use latency; ``None`` derives the kind's
            default (100/270/600ns for DDR/CXL/pooled).
        base_pa: base physical address of the node's frame region;
            ``None`` derives the kind's default window (so a plain
            DDR+CXL spec list reproduces the historical layout
            bit-for-bit).
        bandwidth_gbps: channel bandwidth for QoS arbitration
            (0 = unlimited; only fleet contention reads this).
        name: display label; defaults to ``kind.value``.
    """

    kind: NodeKind
    capacity_pages: int
    latency_ns: Optional[float] = None
    base_pa: Optional[int] = None
    bandwidth_gbps: float = 0.0
    name: Optional[str] = None

    _KIND_LATENCY = {
        NodeKind.DDR: DDR_LATENCY_NS,
        NodeKind.CXL: CXL_LATENCY_NS,
        NodeKind.CXL_POOLED: CXL_POOLED_LATENCY_NS,
    }
    _KIND_BASE = {
        NodeKind.DDR: DDR_BASE,
        NodeKind.CXL: CXL_BASE,
        NodeKind.CXL_POOLED: CXL_POOLED_BASE,
    }

    @property
    def resolved_latency_ns(self) -> float:
        if self.latency_ns is not None:
            return float(self.latency_ns)
        return self._KIND_LATENCY[self.kind]

    @property
    def resolved_base_pa(self) -> int:
        if self.base_pa is not None:
            return int(self.base_pa)
        return self._KIND_BASE[self.kind]

    @property
    def resolved_name(self) -> str:
        return self.name if self.name is not None else self.kind.value


class MemoryNode:
    """One memory node (tier) with a frame allocator and counters."""

    def __init__(
        self,
        kind: NodeKind,
        capacity_pages: int,
        base_pa: int,
        latency_ns: float,
        name: Optional[str] = None,
    ):
        if capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive")
        self.kind = kind
        self.name = name if name is not None else kind.value
        self.capacity_pages = int(capacity_pages)
        self.region = AddressRegion(base_pa, capacity_pages * PAGE_SIZE)
        self.latency_ns = float(latency_ns)
        # LIFO free list of frame numbers relative to the region.
        self._free = list(range(capacity_pages - 1, -1, -1))
        self.accesses_this_epoch = 0
        self.accesses_total = 0

    @property
    def first_frame(self) -> int:
        return self.region.first_page

    @property
    def free_pages(self) -> int:
        return len(self._free)

    @property
    def used_pages(self) -> int:
        return self.capacity_pages - len(self._free)

    def allocate_frame(self) -> int:
        """Allocate one frame; returns the absolute PFN."""
        if not self._free:
            raise MemoryError(f"{self.kind.value} node out of frames")
        return self.first_frame + self._free.pop()

    def allocate_frames(self, n: int) -> np.ndarray:
        """Allocate ``n`` frames at once; absolute PFNs in pop order.

        Identical frames, in the identical order, as ``n`` calls to
        :meth:`allocate_frame` — the free list is LIFO, so the batch is
        the reversed tail.
        """
        n = int(n)
        if n > len(self._free):
            raise MemoryError(f"{self.kind.value} node out of frames")
        if n == 0:
            return np.empty(0, dtype=np.int64)
        rels = self._free[-1:-n - 1:-1]
        del self._free[-n:]
        return self.first_frame + np.asarray(rels, dtype=np.int64)

    def free_frame(self, pfn: int) -> None:
        rel = int(pfn) - self.first_frame
        if not 0 <= rel < self.capacity_pages:
            raise ValueError(f"PFN {pfn:#x} not in {self.kind.value} node")
        self._free.append(rel)

    def free_frames(self, pfns: np.ndarray) -> None:
        """Release a batch of frames, in array order (LIFO-faithful)."""
        rel = np.asarray(pfns, dtype=np.int64) - self.first_frame
        if ((rel < 0) | (rel >= self.capacity_pages)).any():
            raise ValueError(f"PFN batch not in {self.kind.value} node")
        self._free.extend(rel.tolist())

    def record_accesses(self, n: int) -> None:
        self.accesses_this_epoch += int(n)
        self.accesses_total += int(n)

    def begin_epoch(self) -> None:
        self.accesses_this_epoch = 0


class TieredMemory:
    """Ordered tiered memory with logical-page → frame mapping.

    The default is the paper's two-node layout (DDR + CXL); passing
    ``nodes`` builds an arbitrary ordered hierarchy (fastest first).
    Node ``i`` owns page-map code ``i``; kind-based APIs resolve to
    the first node of that kind, so DDR/CXL call sites keep working
    unchanged on deeper hierarchies.

    Args:
        ddr_pages: capacity of the fast tier in pages (the paper caps
            this at ~half the footprint, e.g. 3GB DDR for ~6GB apps).
        cxl_pages: capacity of the slow tier in pages.
        num_logical_pages: the application's footprint in pages.
        cxl_latency_ns: load-to-use latency of the slow tier; the fast
            tier runs at :data:`DDR_LATENCY_NS`.
        nodes: optional ordered :class:`NodeSpec` list replacing the
            two-node default (``ddr_pages``/``cxl_pages``/
            ``cxl_latency_ns`` are ignored when given).
    """

    def __init__(
        self,
        ddr_pages: int = 0,
        cxl_pages: int = 0,
        num_logical_pages: int = 0,
        cxl_latency_ns: float = CXL_LATENCY_NS,
        nodes: Optional[Sequence[NodeSpec]] = None,
        tenant: int = 0,
    ):
        if num_logical_pages <= 0:
            raise ValueError("num_logical_pages must be positive")
        if tenant < 0:
            raise ValueError("tenant must be non-negative")
        #: Owning fleet tenant (0 for single-run simulations).
        self.tenant = int(tenant)
        if nodes is None:
            nodes = (
                NodeSpec(NodeKind.DDR, ddr_pages, DDR_LATENCY_NS),
                NodeSpec(NodeKind.CXL, cxl_pages, cxl_latency_ns),
            )
        if len(nodes) < 2:
            raise ValueError("a tier hierarchy needs at least two nodes")
        total = sum(spec.capacity_pages for spec in nodes)
        if num_logical_pages > total:
            raise ValueError("footprint exceeds total memory capacity")
        self.node_specs: List[NodeSpec] = list(nodes)
        self.nodes: List[MemoryNode] = [
            MemoryNode(
                spec.kind,
                spec.capacity_pages,
                spec.resolved_base_pa,
                spec.resolved_latency_ns,
                name=spec.resolved_name,
            )
            for spec in nodes
        ]
        regions = sorted(
            (node.region.start, node.region.end) for node in self.nodes
        )
        for (_, prev_end), (start, _) in zip(regions, regions[1:]):
            if start < prev_end:
                raise ValueError("node physical-address regions overlap")
        #: First node of each kind, for kind-based lookups.
        self._kind_index: Dict[NodeKind, int] = {}
        for i, node in enumerate(self.nodes):
            self._kind_index.setdefault(node.kind, i)
        self.ddr = self.nodes[0]
        self.cxl = self.nodes[self._kind_index.get(NodeKind.CXL, 1)]
        self.num_logical_pages = int(num_logical_pages)

        # page → absolute PFN and page → node code (vectorised maps).
        self._frame_of = np.full(num_logical_pages, -1, dtype=np.int64)
        self._node_of = np.full(num_logical_pages, -1, dtype=np.int8)
        self._NODE_CODE = {
            kind: idx for kind, idx in self._kind_index.items()
        }
        # epoch time bookkeeping for bandwidth computation
        self.epoch_seconds: float = 1.0

    # ------------------------------------------------------------------
    # allocation / placement

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, kind: NodeKind) -> MemoryNode:
        return self.nodes[self.node_index(kind)]

    def node_index(self, kind: NodeKind) -> int:
        """Page-map code of the first node of ``kind``."""
        try:
            return self._kind_index[kind]
        except KeyError:
            raise KeyError(f"no {kind.value} node in this hierarchy") from None

    def allocate_all(self, kind: NodeKind = NodeKind.CXL) -> None:
        """Allocate every logical page on one node.

        The paper's methodology (§4.1 S2 and §7.2) starts every run
        with all application pages cgroup-bound to CXL DRAM.
        """
        node = self.node(kind)
        code = self.node_index(kind)
        for lpage in range(self.num_logical_pages):
            if self._frame_of[lpage] >= 0:
                raise RuntimeError("pages already allocated")
            self._frame_of[lpage] = node.allocate_frame()
            self._node_of[lpage] = code

    def allocate_spill(self, order: Optional[Sequence[int]] = None) -> None:
        """Allocate every page on the first node in ``order`` with room.

        The fleet's cgroup-style cold start: pages bind to the near
        CXL tier and overflow down the hierarchy (CXL → pooled) once
        it fills.  ``order`` defaults to every node below DRAM, in
        hierarchy order.  When the first node fits the whole
        footprint, this is frame-for-frame identical to
        :meth:`allocate_all` on that node.
        """
        if order is None:
            order = list(range(1, len(self.nodes)))
        if not order:
            raise ValueError("spill order must name at least one node")
        slot = 0
        for lpage in range(self.num_logical_pages):
            if self._frame_of[lpage] >= 0:
                raise RuntimeError("pages already allocated")
            while self.nodes[order[slot]].free_pages == 0:
                slot += 1  # total capacity checked in __init__
            code = order[slot]
            self._frame_of[lpage] = self.nodes[code].allocate_frame()
            self._node_of[lpage] = code

    def allocate_interleaved(self, ddr_fraction: float, seed: int = 0) -> None:
        """Allocate pages randomly split between nodes (for the §5.2
        bandwidth-proportionality experiment).

        The split is drawn from a generator seeded by ``seed`` so the
        placement is a pure function of ``(ddr_fraction, seed)`` —
        callers thread ``SimConfig.seed`` through for experiment
        reproducibility (the default keeps the historical layout).
        """
        if not 0.0 <= ddr_fraction <= 1.0:
            raise ValueError("ddr_fraction must be in [0, 1]")
        rng = np.random.default_rng(seed)
        to_ddr = rng.random(self.num_logical_pages) < ddr_fraction
        for lpage in range(self.num_logical_pages):
            kind = NodeKind.DDR if to_ddr[lpage] else NodeKind.CXL
            node = self.node(kind)
            if node.free_pages == 0:
                kind = NodeKind.CXL if kind is NodeKind.DDR else NodeKind.DDR
                node = self.node(kind)
            self._frame_of[lpage] = node.allocate_frame()
            self._node_of[lpage] = self._NODE_CODE[kind]

    def node_of_page(self, lpage: int) -> NodeKind:
        return self.nodes[self.node_code_of_page(lpage)].kind

    def node_code_of_page(self, lpage: int) -> int:
        code = int(self._node_of[lpage])
        if code < 0:
            raise KeyError(f"logical page {lpage} not allocated")
        return code

    def frame_of_page(self, lpage: int) -> int:
        pfn = self._frame_of[lpage]
        if pfn < 0:
            raise KeyError(f"logical page {lpage} not allocated")
        return int(pfn)

    @property
    def frame_map(self) -> np.ndarray:
        """Read-only view of the logical-page → PFN map."""
        return self._frame_of

    @property
    def node_map(self) -> np.ndarray:
        """Read-only view of page→node codes (node list index; -1=free)."""
        return self._node_of

    def pages_on(self, kind: NodeKind) -> np.ndarray:
        """Logical page ids currently resident on ``kind``."""
        return self.pages_on_node(self._NODE_CODE[kind])

    def pages_on_node(self, index: int) -> np.ndarray:
        """Logical page ids currently resident on node ``index``."""
        return np.nonzero(self._node_of == index)[0]

    def logical_page_of_pfn(self, pfn: int) -> Optional[int]:
        """Reverse-map an absolute PFN to its logical page (or None)."""
        hits = np.nonzero(self._frame_of == int(pfn))[0]
        return int(hits[0]) if hits.size else None

    def logical_pages_of_pfns(self, pfns) -> np.ndarray:
        """Vectorised reverse map; unknown PFNs yield -1."""
        pfns = np.asarray(pfns, dtype=np.int64)
        order = np.argsort(self._frame_of)
        sorted_frames = self._frame_of[order]
        idx = np.searchsorted(sorted_frames, pfns)
        idx = np.clip(idx, 0, len(sorted_frames) - 1)
        found = sorted_frames[idx] == pfns
        out = np.full(pfns.shape, -1, dtype=np.int64)
        out[found] = order[idx[found]]
        return out

    # ------------------------------------------------------------------
    # migration primitive (cost accounting lives in MigrationEngine)

    def move_page(self, lpage: int, to: NodeKind) -> int:
        """Rebind a logical page to a frame on ``to``; returns new PFN."""
        return self.move_page_to(lpage, self._NODE_CODE[to])

    def move_page_to(self, lpage: int, to_index: int) -> int:
        """Rebind a logical page to a frame on node ``to_index``."""
        code = int(to_index)
        if self._node_of[lpage] == code:
            return int(self._frame_of[lpage])
        src = self.nodes[self.node_code_of_page(lpage)]
        dst = self.nodes[code]
        new_pfn = dst.allocate_frame()  # may raise MemoryError if full
        src.free_frame(int(self._frame_of[lpage]))
        self._frame_of[lpage] = new_pfn
        self._node_of[lpage] = code
        return new_pfn

    def move_pages(self, lpages: np.ndarray, to: NodeKind) -> np.ndarray:
        """Bulk :meth:`move_page`; see :meth:`move_pages_to`."""
        return self.move_pages_to(lpages, self._NODE_CODE[to])

    def move_pages_to(self, lpages: np.ndarray, to_index: int) -> np.ndarray:
        """Bulk rebind of ``lpages`` to frames on node ``to_index``.

        Exactly equivalent to looping :meth:`move_page_to` over the
        array — destination frames come off the LIFO free list in the
        same order, and source frames are released in the same page
        order (per source node, in hierarchy order) — provided no page
        already resides on the target (callers filter, as the
        sequential loop's no-op branch would otherwise interleave
        differently).  Raises MemoryError before touching anything if
        the destination cannot hold the whole batch.
        """
        lpages = np.asarray(lpages, dtype=np.int64)
        if lpages.size == 0:
            return np.empty(0, dtype=np.int64)
        code = int(to_index)
        codes = self._node_of[lpages]
        if (codes < 0).any():
            raise KeyError("move of unallocated logical page")
        if (codes == code).any():
            raise ValueError("bulk move requires all pages off the target")
        new_pfns = self.nodes[code].allocate_frames(lpages.size)
        old_pfns = self._frame_of[lpages]
        for src_code, src in enumerate(self.nodes):
            mask = codes == src_code
            if mask.any():
                src.free_frames(old_pfns[mask])
        self._frame_of[lpages] = new_pfns
        self._node_of[lpages] = code
        return new_pfns

    # ------------------------------------------------------------------
    # access path

    def translate(self, logical_addresses: np.ndarray) -> np.ndarray:
        """Translate logical byte addresses to physical byte addresses."""
        la = np.asarray(logical_addresses, dtype=np.uint64)
        lpages = (la >> np.uint64(PAGE_SHIFT)).astype(np.int64)
        frames = self._frame_of[lpages]
        if (frames < 0).any():
            raise KeyError("access to unallocated logical page")
        offset = la & np.uint64(PAGE_SIZE - 1)
        return (frames.astype(np.uint64) << np.uint64(PAGE_SHIFT)) | offset

    def record_epoch_accesses(self, logical_pages: np.ndarray) -> None:
        """Account a batch of page-granular accesses to node counters."""
        codes = self._node_of[np.asarray(logical_pages, dtype=np.int64)]
        for idx, node in enumerate(self.nodes):
            node.record_accesses(int((codes == idx).sum()))

    def begin_epoch(self, epoch_seconds: float = 1.0) -> None:
        if epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        self.epoch_seconds = float(epoch_seconds)
        for node in self.nodes:
            node.begin_epoch()

    # ------------------------------------------------------------------
    # Monitor statistics (Table 1)

    def nr_pages(self, kind: NodeKind) -> int:
        """Table 1 ``nr_pages(node)``: pages allocated on the node."""
        return self.nr_pages_at(self._NODE_CODE[kind])

    def nr_pages_at(self, index: int) -> int:
        """``nr_pages`` for node ``index`` in the hierarchy."""
        return int((self._node_of == index).sum())

    def bw(self, kind: NodeKind) -> float:
        """Table 1 ``bw(node)``: consumed read bandwidth, bytes/sec."""
        return self.bw_at(self._NODE_CODE[kind])

    def bw_at(self, index: int) -> float:
        """``bw`` for node ``index`` in the hierarchy."""
        node = self.nodes[index]
        return node.accesses_this_epoch * 64.0 / self.epoch_seconds

    def bw_den(self, kind: NodeKind) -> float:
        """Table 1 ``bw_den(node)``: bw per allocated capacity."""
        return self.bw_den_at(self._NODE_CODE[kind])

    def bw_den_at(self, index: int) -> float:
        """``bw_den`` for node ``index`` in the hierarchy."""
        pages = self.nr_pages_at(index)
        if pages == 0:
            return 0.0
        return self.bw_at(index) / (pages * PAGE_SIZE)

    def stats(self) -> Dict[str, float]:
        """Convenience snapshot of all Monitor statistics.

        Keys are derived from node names, so the two-node default
        keeps the historical ``*_ddr``/``*_cxl`` keys and deeper
        hierarchies gain ``*_pooled`` (etc.) entries.
        """
        out: Dict[str, float] = {}
        for i, node in enumerate(self.nodes):
            out[f"nr_pages_{node.name}"] = self.nr_pages_at(i)
        for i, node in enumerate(self.nodes):
            out[f"bw_{node.name}"] = self.bw_at(i)
        for i, node in enumerate(self.nodes):
            out[f"bw_den_{node.name}"] = self.bw_den_at(i)
        return out
