"""Executable GAP kernels: mechanistic traces from a real CSR graph.

The registry's GAP generators are statistical (popularity/phase models
derived from graph structure).  These implementations *run* the
kernels over the CSR substrate and record the actual memory-access
sequence — vertex-array reads, adjacency-list scans, frontier pushes —
so they serve as the ground-truth oracle for the calibrated
generators' shapes (hub pages hot, frontiers drifting).  Only
``test_gap_exec.py`` uses them, so they live beside it.

Memory layout (matching :class:`~repro.workloads.graph.GraphLayout`):
64B of property state per vertex, 8B per CSR edge entry; vertex arrays
first, then the edge array.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.workloads.graph import (
    EDGES_PER_PAGE,
    VERTICES_PER_PAGE,
    CsrGraph,
)
from repro.memory.address import PAGE_SIZE, WORD_SIZE

#: Bytes of property state per vertex (one 64B word).
VERTEX_BYTES = PAGE_SIZE // VERTICES_PER_PAGE
#: Bytes per edge entry.
EDGE_BYTES = PAGE_SIZE // EDGES_PER_PAGE


class GraphAddressMap:
    """Maps vertex ids and edge indices to byte addresses."""

    def __init__(self, graph: CsrGraph):
        self.graph = graph
        self.vertex_pages = -(-graph.num_nodes // VERTICES_PER_PAGE)
        self.edge_base = self.vertex_pages * PAGE_SIZE

    def vertex_addr(self, vertices: np.ndarray) -> np.ndarray:
        return np.asarray(vertices, dtype=np.uint64) * np.uint64(VERTEX_BYTES)

    def edge_addr(self, edge_indices: np.ndarray) -> np.ndarray:
        # 8B entries: 8 edges share one 64B word; addresses are
        # word-aligned as the cache sees them.
        byte = np.asarray(edge_indices, dtype=np.uint64) * np.uint64(EDGE_BYTES)
        return (np.uint64(self.edge_base) + byte) & ~np.uint64(WORD_SIZE - 1)

    @property
    def footprint_pages(self) -> int:
        edge_pages = -(-self.graph.num_edges // EDGES_PER_PAGE)
        return self.vertex_pages + edge_pages


def bfs_trace(graph: CsrGraph, source: int = 0) -> np.ndarray:
    """Run BFS and record its access stream.

    Per level: read each frontier vertex's state, scan its adjacency
    list (edge array), and touch each neighbour's state (visited
    check + parent write).
    """
    amap = GraphAddressMap(graph)
    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[source] = True
    frontier = np.array([source], dtype=np.int64)
    parts: List[np.ndarray] = []
    while frontier.size:
        parts.append(amap.vertex_addr(frontier))
        next_frontier = []
        for v in frontier.tolist():
            lo, hi = int(graph.offsets[v]), int(graph.offsets[v + 1])
            if hi > lo:
                parts.append(amap.edge_addr(np.arange(lo, hi)))
                nbrs = graph.targets[lo:hi]
                parts.append(amap.vertex_addr(nbrs))
                fresh = nbrs[~visited[nbrs]]
                if fresh.size:
                    visited[fresh] = True
                    next_frontier.append(np.unique(fresh))
        frontier = (
            np.concatenate(next_frontier) if next_frontier
            else np.empty(0, dtype=np.int64)
        )
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)


def pagerank_trace(graph: CsrGraph, iterations: int = 2) -> np.ndarray:
    """Run pull-based PageRank iterations and record the stream.

    Per iteration, for every vertex: read its offsets/state, scan its
    adjacency span, and gather each neighbour's rank — the
    degree-proportional random-access component that heats hub pages.
    """
    amap = GraphAddressMap(graph)
    parts: List[np.ndarray] = []
    all_vertices = np.arange(graph.num_nodes, dtype=np.int64)
    for _ in range(int(iterations)):
        # Sequential pass over vertex state (read + write new rank).
        parts.append(amap.vertex_addr(all_vertices))
        # Edge array sequential scan.
        parts.append(amap.edge_addr(np.arange(graph.num_edges)))
        # Gather neighbours' ranks: one vertex-state read per edge.
        parts.append(amap.vertex_addr(graph.targets))
    return np.concatenate(parts)


def connected_components_trace(graph: CsrGraph, max_rounds: int = 8) -> np.ndarray:
    """Label-propagation connected components, recording the stream.

    Rounds shrink as labels converge — the naturally shrinking active
    set the statistical `cc` generator approximates with a rotating
    boost.
    """
    amap = GraphAddressMap(graph)
    labels = np.arange(graph.num_nodes, dtype=np.int64)
    active = np.ones(graph.num_nodes, dtype=bool)
    parts: List[np.ndarray] = []
    for _ in range(int(max_rounds)):
        vertices = np.nonzero(active)[0]
        if vertices.size == 0:
            break
        parts.append(amap.vertex_addr(vertices))
        next_active = np.zeros(graph.num_nodes, dtype=bool)
        for v in vertices.tolist():
            lo, hi = int(graph.offsets[v]), int(graph.offsets[v + 1])
            if hi <= lo:
                continue
            parts.append(amap.edge_addr(np.arange(lo, hi)))
            nbrs = graph.targets[lo:hi]
            parts.append(amap.vertex_addr(nbrs))
            smallest = min(int(labels[v]), int(labels[nbrs].min()))
            changed = labels[nbrs] > smallest
            if labels[v] > smallest:
                labels[v] = smallest
                next_active[v] = True
            if changed.any():
                labels[nbrs[changed]] = smallest
                next_active[nbrs[changed]] = True
        active = next_active
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)


def trace_chunks(trace: np.ndarray, chunk_size: int) -> Iterator[np.ndarray]:
    """Slice a mechanistic trace into engine-sized chunks."""
    for start in range(0, len(trace), int(chunk_size)):
        yield trace[start : start + int(chunk_size)]
