"""Tests for the executable GAP kernels, including cross-validation of
the statistical generators' shapes against mechanistic traces."""

import numpy as np
import pytest

from repro.memory.address import PAGE_SIZE
from repro.workloads.graph import preferential_attachment
from gap_exec import (
    GraphAddressMap,
    bfs_trace,
    connected_components_trace,
    pagerank_trace,
    trace_chunks,
)


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment(2000, m=4, seed=0)


class TestAddressMap:
    def test_vertex_addresses_dense(self, graph):
        amap = GraphAddressMap(graph)
        addrs = amap.vertex_addr(np.array([0, 1]))
        assert addrs[1] - addrs[0] == 64

    def test_edge_region_after_vertices(self, graph):
        amap = GraphAddressMap(graph)
        assert int(amap.edge_addr(np.array([0]))[0]) >= amap.edge_base

    def test_footprint_covers_everything(self, graph):
        amap = GraphAddressMap(graph)
        end = amap.footprint_pages * PAGE_SIZE
        assert int(amap.edge_addr(np.array([graph.num_edges - 1]))[0]) < end


class TestBfs:
    def test_visits_whole_component(self, graph):
        trace = bfs_trace(graph, source=0)
        amap = GraphAddressMap(graph)
        vertex_accesses = trace[trace < amap.edge_base]
        vertices_touched = set((vertex_accesses // 64).tolist())
        # PA graphs are connected: every vertex state gets touched.
        assert len(vertices_touched) == graph.num_nodes

    def test_scans_every_edge_once(self, graph):
        trace = bfs_trace(graph, source=0)
        amap = GraphAddressMap(graph)
        edge_accesses = int((trace >= amap.edge_base).sum())
        # Every adjacency list is scanned exactly once (8 edges/word,
        # so between E/8 and E accesses).
        assert graph.num_edges // 8 <= edge_accesses <= graph.num_edges

    def test_adjacency_scan_locality_shifts(self, graph):
        """Early and late slices of the BFS trace scan different edge
        pages (adjacency lists are disjoint CSR spans) — the drift the
        statistical generators model with RotatingWorkingSet."""
        trace = bfs_trace(graph, source=0)
        amap = GraphAddressMap(graph)
        edge_pa = trace[trace >= amap.edge_base]
        slice_len = max(1, len(edge_pa) // 20)
        early = set((edge_pa[:slice_len] // PAGE_SIZE).tolist())
        late = set((edge_pa[-slice_len:] // PAGE_SIZE).tolist())
        jaccard = len(early & late) / len(early | late)
        assert jaccard < 0.8


class TestPageRank:
    def test_trace_length_scales_with_iterations(self, graph):
        one = pagerank_trace(graph, iterations=1)
        two = pagerank_trace(graph, iterations=2)
        assert two.size == 2 * one.size

    def test_hub_pages_hot(self, graph):
        """The gather phase heats hub vertex pages in proportion to
        degree — validating the statistical pr generator's premise."""
        trace = pagerank_trace(graph, iterations=1)
        amap = GraphAddressMap(graph)
        vertex_pa = trace[trace < amap.edge_base]
        counts = np.bincount((vertex_pa // PAGE_SIZE).astype(np.int64))
        touched = counts[counts > 0]
        assert touched.max() > 5 * np.median(touched)


class TestConnectedComponents:
    def test_active_set_shrinks(self, graph):
        trace = connected_components_trace(graph, max_rounds=8)
        assert trace.size > 0

    def test_converges_before_round_cap(self, graph):
        short = connected_components_trace(graph, max_rounds=50)
        shorter = connected_components_trace(graph, max_rounds=8)
        # Label propagation on a PA graph converges quickly; extra
        # round budget adds nothing once converged.
        assert short.size <= shorter.size * 3


class TestChunks:
    def test_trace_chunks(self, graph):
        trace = pagerank_trace(graph, iterations=1)
        chunks = list(trace_chunks(trace, 1000))
        assert sum(c.size for c in chunks) == trace.size
        assert all(c.size <= 1000 for c in chunks)
