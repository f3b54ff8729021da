"""The async tick's demote-first victim walk against a full victim
search per request (``as_reference`` binds that search as the walk's
twin): same victims, tick reports, frame and node maps, and MGLRU
state, and a full search exactly when the victim is in the youngest
generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.migration import MigrationEngine, PinReason
from repro.memory.tiers import NodeKind, TieredMemory
from repro.migration import AsyncMigrationConfig, AsyncMigrationEngine
from repro.verify import as_reference
from repro.verify.differential import _count_searches, _log_victims, diff_run_results

DDR = 8


#: Accesses after each aging round: pages 0-3 stay in the oldest
#: generation (heat 0), 4 and 5 go to the middle one, 6 and 7 to the
#: youngest.
ROUNDS = ([4, 5, 5], [6, 7, 7])


def build(reference, rounds=ROUNDS):
    """A full DDR of pages 0-7, each round of ``rounds`` accessed after
    an ``age()``; CXL holds pages 8-31."""
    mem = TieredMemory(ddr_pages=DDR, cxl_pages=40, num_logical_pages=32)
    mem.allocate_all(NodeKind.CXL)
    sync = MigrationEngine(mem)
    if reference:
        as_reference(sync)
    sync.promote(np.arange(DDR))
    for accessed in rounds:
        sync.mglru.age()
        sync.mglru.record_accesses(np.array(accessed, dtype=np.int64))
    eng = AsyncMigrationEngine(sync, AsyncMigrationConfig(inflight_budget=64))
    return mem, sync, eng


def run_tick(reference, requests, pin=(), rounds=ROUNDS):
    """Queue ``requests`` (``(direction, pages)`` pairs, in order) and
    run one tick; return what it did."""
    mem, sync, eng = build(reference, rounds)
    if pin:
        sync.pin(np.array(pin), PinReason.DMA)
    victims, counts = _log_victims(eng.copier), _count_searches(sync)
    for direction, pages in requests:
        if direction == "promote":
            eng.enqueue_promotions(pages)
        else:
            eng.enqueue_demotions(pages)
    report = eng.tick(epoch=1)
    state = (victims, report, mem.frame_map.copy(), mem.node_map.copy(),
             sync.mglru._gen.copy(), sync.mglru._heat.copy())
    return state, counts["searches"], counts["young"]


def assert_same(requests, pin=(), rounds=ROUNDS):
    """The walk and the per-request search leave identical state, and
    the walk searches in full exactly for the requests whose victim is
    in the youngest generation or missing; return the walk's state and
    its count of full searches."""
    (ref, _, young), (fast, searches, _) = (
        run_tick(True, requests, pin, rounds),
        run_tick(False, requests, pin, rounds))
    assert searches == young
    assert fast[0] == ref[0]
    assert fast[1] == ref[1]
    for got, want in zip(fast[2:], ref[2:]):
        np.testing.assert_array_equal(got, want)
    return fast, searches


class TestVictimWalk:
    def test_older_generations_need_no_full_search(self):
        (victims, report, *_), searches = assert_same(
            [("promote", [8, 9, 10, 11, 12, 13])])
        assert victims == [0, 1, 2, 3, 4, 5]
        assert report.committed == 12
        assert searches == 0

    def test_pinned_page_is_passed_over(self):
        (victims, *_), searches = assert_same(
            [("promote", [8, 9, 10])], pin=(0, 2))
        assert victims == [1, 3, 4]
        assert searches == 0

    def test_mid_tick_demotion_is_skipped(self):
        (victims, report, _, node_map, *_), searches = assert_same(
            [("promote", [8]), ("demote", [2, 6]), ("promote", [9, 10, 11, 12])])
        # 2 and 6 leave DDR mid-tick; their frames serve 9 and 10.
        assert victims == [0, None, None, None, None, 1, 3]
        assert report.demoted == 5
        assert node_map[2] == node_map[6] == 1
        assert searches == 0

    def test_victim_repromoted_in_the_same_tick(self):
        # 0 is the first victim and takes a frame the demotions free
        # before the next victim request: it is back on DDR where the
        # walk stands, now in the youngest generation, and is passed
        # over.  (A page demoted by request cannot come back in the
        # same tick: the queue holds one request per page.)
        (victims, *_), searches = assert_same(
            [("promote", [8]), ("demote", [3, 6]),
             ("promote", [0, 9, 10, 11, 12])])
        assert victims == [0, None, None, None, None, 1, 2, 4]
        assert searches == 0

    def test_exhausted_older_generations_fall_back(self):
        # Six older pages, eight victims: the last two come from the
        # youngest generation, where the promoted pages 8-13 (heat 0)
        # now sort before 6 and 7.
        (victims, *_), searches = assert_same(
            [("promote", list(range(8, 16)))])
        assert victims == [0, 1, 2, 3, 4, 5, 8, 9]
        assert searches == 2

    def test_one_victim_sort_per_tick(self):
        _, sync, eng = build(reference=False)
        calls = []
        coldest = sync.mglru.coldest

        def counted(n, among=None):
            calls.append(n)
            return coldest(n, among)

        sync.mglru.coldest = counted
        eng.enqueue_promotions([8, 9, 10, 11])
        eng.tick(epoch=1)
        assert calls == [6]  # the six unpinned pages older than the youngest
        eng.enqueue_promotions([12])
        eng.tick(epoch=2)
        assert calls == [6, 2]  # a fresh order: the tick's pages 4 and 5
        eng.tick(epoch=3)
        assert calls == [6, 2]  # no victim needed, no sort

    @settings(max_examples=60)
    @given(
        rounds=st.lists(st.lists(st.integers(0, 7), max_size=12), max_size=4),
        pin=st.lists(st.integers(0, 7), max_size=3, unique=True),
        requests=st.lists(
            st.tuples(st.sampled_from(["promote", "demote"]),
                      st.lists(st.integers(0, 31), min_size=1, max_size=6)),
            max_size=8),
    )
    def test_any_tick_matches_per_request_search(self, rounds, pin, requests):
        """Any aging history, pin set and request order."""
        assert_same(requests, pin, rounds)


@pytest.mark.parametrize("ddr_pages", [128, 512])
def test_async_run_matches_per_request_search(ddr_pages):
    """A whole async run on the reference models (a full search per
    victim request) ends where the production run with its walk does.
    At 128 DDR pages most victims are in the youngest generation; at
    512 none is, so every victim comes off the walk."""
    from repro.sim import SimConfig, Simulation
    from repro.workloads import build as build_workload

    config = SimConfig(total_accesses=120_000, chunk_size=4096, ddr_pages=ddr_pages,
                       cxl_pages=4096, pages_per_gb=1024, checkpoints=2,
                       migration_mode="async")

    def sim():
        return Simulation(build_workload("redis", seed=1), config, policy="m5-hpt")

    fast = sim()
    victims, counts = _log_victims(fast.async_engine.copier), _count_searches(fast.engine)
    ref_sim = as_reference(sim())
    ref, got = ref_sim.run(), fast.run()
    rows = diff_run_results(ref, got, tolerances={})
    assert all(row.ok for row in rows), [row for row in rows if not row.ok]
    assert {k: v for k, v in got.extra.items() if k.startswith("mig_")} == {
        k: v for k, v in ref.extra.items() if k.startswith("mig_")}
    np.testing.assert_array_equal(ref_sim.memory.frame_map, fast.memory.frame_map)
    np.testing.assert_array_equal(ref_sim.memory.node_map, fast.memory.node_map)
    assert sum(v is not None for v in victims) > 300
    assert counts["searches"] == counts["young"]
