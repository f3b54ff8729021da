"""Graph-processing substrate and the GAP benchmark generators.

The paper evaluates six GAP kernels (BFS, SSSP, PR, CC, BC, TC) on
Twitter/Google graphs.  Without those datasets we build the substrate
ourselves: a CSR graph from a preferential-attachment generator (the
same heavy-tailed degree structure as social graphs), then derive each
kernel's address stream from the graph's actual layout in memory:

* **vertex pages** hold per-vertex property data; random neighbour
  reads make a vertex page's heat proportional to the degree mass of
  the vertices it holds — hubs make hot pages;
* **edge pages** hold the CSR adjacency arrays; kernels sweep them
  sequentially every iteration.

Kernel temporal structure: PR/CC sweep all edges per iteration
(SweepMix), BFS/BC visit a moving frontier (RotatingWorkingSet), SSSP
relaxes with a stable hub bias, and TC's intersections weight pages by
degree with a broad flat tail (the §7.2 observation that TC's
bottom-half pages are nearly equally warm).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.base import SyntheticParams, SyntheticWorkload, WorkloadSpec
from repro.workloads.phases import RotatingWorkingSet, Stationary
from repro.workloads.wordmap import WordDensityProfile
from repro.workloads.zipf import blend, spatially_clustered

#: Memory layout constants: 64B of property data per vertex across the
#: kernels' arrays (ranks, labels, parents, ...) and 8B per edge give
#: 64 vertices or 512 edges per 4KB page.
VERTICES_PER_PAGE = 64
EDGES_PER_PAGE = 512


@dataclass
class CsrGraph:
    """Compressed-sparse-row adjacency."""

    offsets: np.ndarray  # int64, len = num_nodes + 1
    targets: np.ndarray  # int64, len = num_edges

    @property
    def num_nodes(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_edges(self) -> int:
        return len(self.targets)

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def neighbors(self, v: int) -> np.ndarray:
        return self.targets[self.offsets[v] : self.offsets[v + 1]]


def preferential_attachment(num_nodes: int, m: int = 8, seed: int = 0) -> CsrGraph:
    """Barabási–Albert style graph with heavy-tailed degrees.

    Each new node attaches to ``m`` targets drawn from the repeated-
    endpoints pool, yielding P(deg = d) ~ d^-3 — the hub structure that
    drives hot vertex pages in social-graph workloads.
    """
    if num_nodes <= m:
        raise ValueError("num_nodes must exceed m")
    rng = np.random.default_rng(seed)
    # Seed clique endpoints.
    repeated = list(range(m))
    src, dst = [], []
    for v in range(m, num_nodes):
        # The same stream as rng.choice(len(repeated), m), at half the
        # per-call cost.
        picks = rng.integers(0, len(repeated), size=m)
        chosen = {repeated[i] for i in picks.tolist()}
        # Sorted: set order is hash-dependent, and the attachment
        # order feeds the endpoint pool (DET003).
        for t in sorted(chosen):
            src.append(v)
            dst.append(t)
            repeated.append(t)
        repeated.extend([v] * len(chosen))
    # Undirected: add both directions, then build CSR.
    s = np.concatenate([np.array(src), np.array(dst)])
    t = np.concatenate([np.array(dst), np.array(src)])
    order = np.argsort(s, kind="stable")
    s, t = s[order], t[order]
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(offsets, s + 1, 1)
    offsets = np.cumsum(offsets)
    return CsrGraph(offsets=offsets, targets=t.astype(np.int64))


def uniform_random_graph(num_nodes: int, avg_degree: int = 16, seed: int = 0) -> CsrGraph:
    """Erdős–Rényi-style graph (flat degree distribution)."""
    rng = np.random.default_rng(seed)
    num_edges = num_nodes * avg_degree // 2
    s = rng.integers(0, num_nodes, num_edges)
    t = rng.integers(0, num_nodes, num_edges)
    src = np.concatenate([s, t])
    dst = np.concatenate([t, s])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(offsets, src + 1, 1)
    offsets = np.cumsum(offsets)
    return CsrGraph(offsets=offsets, targets=dst.astype(np.int64))


class GraphLayout:
    """Maps a CSR graph onto a page-granular footprint.

    Pages ``[0, vertex_pages)`` hold vertex property data; pages
    ``[vertex_pages, vertex_pages + edge_pages)`` hold the adjacency
    arrays.  The footprint is padded (cold pages) up to the benchmark
    spec if the graph is smaller.
    """

    def __init__(self, graph: CsrGraph, footprint_pages: int):
        self.graph = graph
        self.vertex_pages = -(-graph.num_nodes // VERTICES_PER_PAGE)
        self.edge_pages = -(-graph.num_edges // EDGES_PER_PAGE)
        needed = self.vertex_pages + self.edge_pages
        if needed > footprint_pages:
            raise ValueError(
                f"graph needs {needed} pages but footprint is {footprint_pages}"
            )
        self.footprint_pages = int(footprint_pages)

    def vertex_page_heat(self) -> np.ndarray:
        """Per-vertex-page heat = degree mass of resident vertices."""
        deg = self.graph.degrees().astype(np.float64)
        pad = self.vertex_pages * VERTICES_PER_PAGE - deg.size
        padded = np.concatenate([deg, np.zeros(pad)]) if pad else deg
        return padded.reshape(self.vertex_pages, VERTICES_PER_PAGE).sum(axis=1)

    def edge_page_heat(self, per_edge: np.ndarray = None) -> np.ndarray:
        """Per-edge-page heat; default one touch per edge per sweep."""
        if per_edge is None:
            per_edge = np.ones(self.graph.num_edges)
        pad = self.edge_pages * EDGES_PER_PAGE - per_edge.size
        padded = np.concatenate([per_edge, np.zeros(pad)]) if pad else per_edge
        return padded.reshape(self.edge_pages, EDGES_PER_PAGE).sum(axis=1)

    def popularity(
        self,
        vertex_weight: float = 0.5,
        vertex_exponent: float = 1.0,
        seed: int = 0,
    ) -> np.ndarray:
        """Blend vertex and edge page heats into a footprint-wide vector.

        Args:
            vertex_weight: fraction of accesses hitting vertex data
                (the random-access component); the rest hits edge pages.
            vertex_exponent: sharpening applied to vertex-page heat
                (TC's pairwise intersections effectively square degree
                mass; BFS's one-visit semantics flatten it).
        """
        vheat = self.vertex_page_heat() ** vertex_exponent
        eheat = self.edge_page_heat()
        pop = np.zeros(self.footprint_pages)
        if vheat.sum() > 0:
            pop[: self.vertex_pages] = vertex_weight * vheat / vheat.sum()
        if eheat.sum() > 0:
            pop[self.vertex_pages : self.vertex_pages + self.edge_pages] = (
                (1.0 - vertex_weight) * eheat / eheat.sum()
            )
        # Touch padding pages rarely so the whole footprint is resident.
        pad = self.footprint_pages - self.vertex_pages - self.edge_pages
        if pad > 0:
            floor = pop[pop > 0].min() * 0.01 if (pop > 0).any() else 1.0
            pop[self.vertex_pages + self.edge_pages :] = floor
        # Cluster-shuffle so DAMON-style region detectors see realistic
        # interleaving rather than one hot extent.
        pop = spatially_clustered(pop, cluster_pages=16, seed=seed)
        return pop / pop.sum()


# ----------------------------------------------------------------------
# kernel-specific generators

#: Word-density calibration (Figure 4): cumulative P(unique words <= N)
#: at N in {4, 8, 16, 32, 48}.
GAP_DENSITY = {
    "bc": {4: 0.01, 8: 0.02, 16: 0.04, 32: 0.10, 48: 0.25},
    "bfs": {4: 0.05, 8: 0.10, 16: 0.17, 32: 0.30, 48: 0.45},
    "cc": {4: 0.06, 8: 0.12, 16: 0.20, 32: 0.33, 48: 0.48},
    "pr": {4: 0.002, 8: 0.004, 16: 0.008, 32: 0.012, 48: 0.02},
    "sssp": {4: 0.01, 8: 0.02, 16: 0.05, 32: 0.08, 48: 0.11},
    "tc": {4: 0.03, 8: 0.06, 16: 0.12, 32: 0.25, 48: 0.40},
}


def _graph_for(spec: WorkloadSpec, seed: int) -> GraphLayout:
    # Size the graph to fill ~90% of the footprint with a 30/70
    # vertex/edge page split (edge-array dominated, like CSR Twitter).
    vertex_pages = int(spec.footprint_pages * 0.27)
    num_nodes = vertex_pages * VERTICES_PER_PAGE
    # m chosen so edges fill the remaining budget: edges ~= n*m*2 dirs.
    edge_budget_pages = int(spec.footprint_pages * 0.63)
    m = max(2, (edge_budget_pages * EDGES_PER_PAGE) // (2 * num_nodes))
    graph = preferential_attachment(num_nodes, m=m, seed=seed)
    return GraphLayout(graph, spec.footprint_pages)


def make_gap_workload(kernel: str, spec: WorkloadSpec, seed: int = 0) -> SyntheticWorkload:
    """Build the generator for one GAP kernel."""
    kernel = kernel.lower()
    if kernel not in GAP_DENSITY:
        raise ValueError(f"unknown GAP kernel {kernel!r}")
    layout = _graph_for(spec, seed)
    density = WordDensityProfile(GAP_DENSITY[kernel])

    if kernel == "pr":
        # Pull-based PageRank: full edge sweep each iteration plus
        # degree-proportional random reads of neighbour ranks — hub
        # vertex pages get very hot.
        # The per-iteration edge scan is orders of magnitude faster
        # than migration timescales, so its time-averaged heat (folded
        # into the popularity vector) is the right model — an explicit
        # slow sweep would look like working-set drift that PageRank
        # does not have.
        pop = layout.popularity(vertex_weight=0.65, vertex_exponent=1.3, seed=seed)
        phase = Stationary(pop)
    elif kernel == "cc":
        # Label propagation: edge sweeps with a shrinking active set,
        # approximated by a rotating boost over a skewed baseline.
        pop = layout.popularity(vertex_weight=0.55, vertex_exponent=1.1, seed=seed)
        phase = RotatingWorkingSet(
            pop, window_fraction=0.25, boost=6.0, accesses_per_phase=120_000
        )
    elif kernel == "bfs":
        # Frontier expansion: the hot window marches across the graph.
        pop = layout.popularity(vertex_weight=0.55, vertex_exponent=1.0, seed=seed)
        phase = RotatingWorkingSet(
            pop, window_fraction=0.12, boost=15.0, accesses_per_phase=60_000
        )
    elif kernel == "bc":
        # Repeated BFS traversals from many sources.
        pop = layout.popularity(vertex_weight=0.55, vertex_exponent=1.0, seed=seed)
        phase = RotatingWorkingSet(
            pop, window_fraction=0.15, boost=12.0, accesses_per_phase=80_000
        )
    elif kernel == "sssp":
        # Delta-stepping: hubs relax repeatedly across moving buckets.
        pop = layout.popularity(vertex_weight=0.65, vertex_exponent=1.2, seed=seed)
        phase = RotatingWorkingSet(
            pop, window_fraction=0.20, boost=5.0, accesses_per_phase=150_000
        )
    else:  # tc
        # Triangle counting: adjacency intersections; degree-ordered
        # processing gives a skewed top but a broad flat tail (§7.2:
        # the bottom-half pages are nearly equally warm).
        pop = layout.popularity(vertex_weight=0.45, vertex_exponent=1.3, seed=seed)
        flat = np.full(layout.footprint_pages, 1.0 / layout.footprint_pages)
        pop = blend((0.6, pop), (0.4, flat))
        phase = Stationary(pop)

    params = SyntheticParams(popularity=pop, word_density=density, phase_model=phase)
    return SyntheticWorkload(spec, params, seed=seed)
