"""Tests for the graph substrate and GAP generators."""

import numpy as np
import pytest

from repro.workloads.base import WorkloadSpec
from repro.workloads.graph import (
    EDGES_PER_PAGE,
    VERTICES_PER_PAGE,
    CsrGraph,
    GraphLayout,
    make_gap_workload,
    preferential_attachment,
    uniform_random_graph,
)


class TestCsrGraph:
    def test_degrees_sum_to_edges(self):
        g = preferential_attachment(500, m=4, seed=0)
        assert g.degrees().sum() == g.num_edges

    def test_neighbors_slice(self):
        g = preferential_attachment(100, m=3, seed=1)
        v = 50
        nbrs = g.neighbors(v)
        assert len(nbrs) == g.degrees()[v]

    def test_undirected_symmetry(self):
        g = preferential_attachment(200, m=3, seed=2)
        # Every edge appears in both directions.
        fwd = set()
        for v in range(g.num_nodes):
            for u in g.neighbors(v).tolist():
                fwd.add((v, u))
        assert all((u, v) in fwd for (v, u) in fwd)


def choice_attachment(num_nodes, m, seed):
    """``preferential_attachment`` as it drew with ``rng.choice``."""
    rng = np.random.default_rng(seed)
    repeated = list(range(m))
    src, dst = [], []
    for v in range(m, num_nodes):
        picks = rng.choice(len(repeated), size=m, replace=True)
        chosen = {repeated[i] for i in picks.tolist()}
        for t in sorted(chosen):
            src.append(v)
            dst.append(t)
            repeated.append(t)
        repeated.extend([v] * len(chosen))
    s = np.concatenate([np.array(src), np.array(dst)])
    t = np.concatenate([np.array(dst), np.array(src)])
    order = np.argsort(s, kind="stable")
    s, t = s[order], t[order]
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(offsets, s + 1, 1)
    return CsrGraph(offsets=np.cumsum(offsets), targets=t.astype(np.int64))


class TestPreferentialAttachment:
    @pytest.mark.parametrize("num_nodes,m,seed", [
        (2, 1, 0), (9, 8, 3), (200, 1, 7), (500, 3, 1), (2000, 8, 42),
    ])
    def test_matches_the_choice_draws(self, num_nodes, m, seed):
        got = preferential_attachment(num_nodes, m=m, seed=seed)
        want = choice_attachment(num_nodes, m, seed)
        for a, b in ((got.offsets, want.offsets), (got.targets, want.targets)):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_heavy_tailed_degrees(self):
        g = preferential_attachment(3000, m=4, seed=3)
        deg = g.degrees()
        assert deg.max() > 10 * np.median(deg)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            preferential_attachment(4, m=4)

    def test_uniform_graph_flat_degrees(self):
        g = uniform_random_graph(3000, avg_degree=16, seed=4)
        deg = g.degrees()
        assert deg.max() < 5 * np.median(deg)


class TestGraphLayout:
    def make(self):
        g = preferential_attachment(VERTICES_PER_PAGE * 20, m=4, seed=0)
        pages = 20 + (-(-g.num_edges // EDGES_PER_PAGE)) + 10
        return g, GraphLayout(g, pages)

    def test_page_budget_checked(self):
        g = preferential_attachment(VERTICES_PER_PAGE * 20, m=8, seed=0)
        with pytest.raises(ValueError):
            GraphLayout(g, 2)

    def test_vertex_page_heat_tracks_degrees(self):
        g, layout = self.make()
        heat = layout.vertex_page_heat()
        assert heat.sum() == pytest.approx(g.degrees().sum())

    def test_popularity_normalised_and_positive(self):
        _, layout = self.make()
        pop = layout.popularity(seed=1)
        assert pop.sum() == pytest.approx(1.0)
        assert (pop > 0).all()  # padding pages get a floor

    def test_vertex_weight_split(self):
        _, layout = self.make()
        heavy_v = layout.popularity(vertex_weight=0.9, seed=0)
        light_v = layout.popularity(vertex_weight=0.1, seed=0)
        assert not np.allclose(heavy_v, light_v)


class TestGapWorkloads:
    def spec(self, pages=3000):
        return WorkloadSpec(name="gap", footprint_pages=pages)

    @pytest.mark.parametrize("kernel", ["bc", "bfs", "cc", "pr", "sssp", "tc"])
    def test_all_kernels_generate(self, kernel):
        wl = make_gap_workload(kernel, self.spec(), seed=0)
        pa = wl.trace(10_000)
        assert pa.size == 10_000
        assert int(pa.max() >> np.uint64(12)) < 3000

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            make_gap_workload("dfs", self.spec())

    def test_pr_skewed_by_hubs(self):
        wl = make_gap_workload("pr", self.spec(), seed=0)
        pages = wl.trace(200_000) >> np.uint64(12)
        counts = np.bincount(pages.astype(np.int64), minlength=3000)
        touched = counts[counts > 0]
        assert touched.max() > 10 * np.median(touched)

    def test_bfs_working_set_shifts(self):
        wl = make_gap_workload("bfs", self.spec(), seed=0)

        def hottest(pa, k=200):
            counts = np.bincount((pa >> np.uint64(12)).astype(np.int64),
                                 minlength=3000)
            return set(np.argsort(-counts)[:k].tolist())

        early = hottest(wl.trace(30_000))
        for _ in range(4):  # advance well past one phase
            wl.chunk(30_000)
        late = hottest(wl.chunk(30_000))
        jaccard = len(early & late) / len(early | late)
        assert jaccard < 0.6  # the hot window moved
