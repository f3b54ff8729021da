"""Cross-module property-based tests (hypothesis).

Module-local property tests live next to their modules; this file
holds the invariants that span modules or need richer generated
state: profiler exactness against reference counting, tracker-family
guarantees on arbitrary streams, migration-engine safety under random
command sequences, and engine accounting identities.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.trackers import CmSketchTopK, ExactTopK, SpaceSavingTopK
from repro.cxl.pac import PageAccessCounter
from repro.cxl.wac import WordAccessCounter
from repro.memory.address import PAGE_SIZE, AddressRegion
from repro.memory.migration import MigrationEngine
from repro.memory.tiers import NodeKind, TieredMemory
from repro.verify import as_exact_sequence

BASE = 0x4000_0000

addresses = st.lists(
    st.tuples(st.integers(0, 31), st.integers(0, 63)),
    min_size=1,
    max_size=400,
)


def to_pa(pairs):
    return np.array(
        [BASE + p * PAGE_SIZE + w * 64 for p, w in pairs], dtype=np.uint64
    )


class TestProfilerExactness:
    @settings(max_examples=30)
    @given(addresses)
    def test_pac_and_wac_agree_on_totals(self, pairs):
        region = AddressRegion(BASE, 32 * PAGE_SIZE)
        pac = PageAccessCounter(region, counter_bits=4)  # force spills
        wac = WordAccessCounter(region, counter_bits=2)
        pa = to_pa(pairs)
        pac.observe(pa)
        wac.observe(pa)
        assert pac.counts().sum() == len(pairs)
        assert wac.counts().sum() == len(pairs)
        # Per-page sums of WAC equal PAC counts.
        assert np.array_equal(wac.counts_by_page().sum(axis=1), pac.counts())

    @settings(max_examples=30)
    @given(addresses, st.integers(1, 6))
    def test_pac_chunking_invariant(self, pairs, num_chunks):
        """Observing in any chunking yields identical counts."""
        region = AddressRegion(BASE, 32 * PAGE_SIZE)
        whole = PageAccessCounter(region)
        split = PageAccessCounter(region)
        pa = to_pa(pairs)
        whole.observe(pa)
        for part in np.array_split(pa, num_chunks):
            split.observe(part)
        assert np.array_equal(whole.counts(), split.counts())


class TestTrackerGuarantees:
    @settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.integers(0, 100), min_size=10, max_size=500))
    def test_cm_sketch_tracker_counts_never_underestimate(self, pages):
        pa = (np.array(pages, dtype=np.uint64) << np.uint64(12))
        tracker = as_exact_sequence(CmSketchTopK(5, num_counters=256))
        oracle = ExactTopK(101)
        tracker.observe(pa)
        oracle.observe(pa)
        truth = dict(oracle.peek())
        for key, est in tracker.peek():
            assert est >= truth.get(key, 0)

    @settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.integers(0, 100), min_size=10, max_size=500))
    def test_space_saving_tracker_never_underestimates(self, pages):
        pa = (np.array(pages, dtype=np.uint64) << np.uint64(12))
        tracker = as_exact_sequence(SpaceSavingTopK(5, capacity=16))
        oracle = ExactTopK(101)
        tracker.observe(pa)
        oracle.observe(pa)
        truth = dict(oracle.peek())
        for key, est in tracker.peek():
            assert est >= truth.get(key, 0)

    @settings(max_examples=20)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
    def test_exact_tracker_is_exact(self, pages):
        pa = (np.array(pages, dtype=np.uint64) << np.uint64(12))
        tracker = ExactTopK(31)
        tracker.observe(pa)
        counts = np.bincount(pages, minlength=31)
        for key, est in tracker.peek():
            assert est == counts[key]


# Random migration command streams.
commands = st.lists(
    st.tuples(
        st.sampled_from(["promote", "demote"]),
        st.lists(st.integers(0, 31), min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=40,
)


class TestMigrationSafety:
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(commands)
    def test_random_command_streams_preserve_invariants(self, cmds):
        mem = TieredMemory(ddr_pages=8, cxl_pages=32, num_logical_pages=32)
        mem.allocate_all(NodeKind.CXL)
        engine = MigrationEngine(mem)
        for op, pages in cmds:
            pages = np.array(pages)
            if op == "promote":
                engine.promote(pages)
            else:
                engine.demote(pages)
            engine.mglru.age()
            # Invariants after every step:
            frames = mem.frame_map[:32]
            assert len(np.unique(frames)) == 32
            assert mem.nr_pages(NodeKind.DDR) <= 8
            assert (
                mem.nr_pages(NodeKind.DDR) + mem.nr_pages(NodeKind.CXL) == 32
            )

    @settings(max_examples=20)
    @given(commands)
    def test_stats_consistent_with_placement(self, cmds):
        mem = TieredMemory(ddr_pages=8, cxl_pages=32, num_logical_pages=32)
        mem.allocate_all(NodeKind.CXL)
        engine = MigrationEngine(mem)
        for op, pages in cmds:
            if op == "promote":
                engine.promote(np.array(pages))
            else:
                engine.demote(np.array(pages))
        net = engine.stats.promoted - engine.stats.demoted
        assert mem.nr_pages(NodeKind.DDR) == net


class TestEngineAccounting:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(50_000, 150_000), st.integers(0, 3))
    def test_access_totals_always_balance(self, total, seed):
        from repro.sim import SimConfig, Simulation
        from repro.workloads import uniform_workload

        cfg = SimConfig(total_accesses=total, chunk_size=30_000,
                        ddr_pages=128, cxl_pages=1024, checkpoints=1)
        sim = Simulation(uniform_workload(footprint_pages=512, seed=seed), cfg,
                         policy="m5-hpt")
        sim.run()
        assert (
            sim.memory.ddr.accesses_total + sim.memory.cxl.accesses_total
            == total
        )
        assert sim.perf.execution_time_s >= sim.perf.app_time_s
