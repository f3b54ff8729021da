"""Property-based invariants over the CPU-driven policies."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import AutoNumaBalancing, Damon, PebsSampler, PteScanner
from repro.memory.tiers import NodeKind, TieredMemory

N_PAGES = 128

epochs = st.lists(
    st.lists(st.integers(0, N_PAGES - 1), min_size=1, max_size=120),
    min_size=1,
    max_size=12,
)


def memory():
    mem = TieredMemory(ddr_pages=32, cxl_pages=N_PAGES,
                       num_logical_pages=N_PAGES)
    mem.allocate_all(NodeKind.CXL)
    return mem


def drive(policy, batches):
    now = 0.0
    for batch in batches:
        policy.observe(np.array(batch), now_s=now, epoch_s=0.5)
        now += 0.5
    return policy


POLICIES = {
    "anb": lambda mem: AutoNumaBalancing(mem, scan_window_pages=16,
                                         scan_period_s=0.3, seed=0),
    "damon": lambda mem: Damon(mem, seed=0),
    "pte-scan": lambda mem: PteScanner(mem, scan_period_s=0.3),
    "pebs": lambda mem: PebsSampler(mem, sample_period=5, seed=0),
}


@pytest.mark.parametrize("name", sorted(POLICIES))
class TestCommonInvariants:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(batches=epochs)
    def test_hot_list_valid_and_costs_monotone(self, name, batches):
        policy = drive(POLICIES[name](memory()), batches)
        # Hot list holds unique, in-range logical pages.
        assert len(policy.hot_pages) == len(set(policy.hot_pages))
        assert all(0 <= p < N_PAGES for p in policy.hot_pages)
        # PFNs recorded alongside match the page count.
        assert len(policy.hot_pfns) == len(policy.hot_pages)
        # Costs never negative.
        assert policy.costs.total_us >= 0.0
        assert all(v >= 0 for v in policy.costs.events.values())

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(batches=epochs)
    def test_candidates_drain_exactly_once(self, name, batches):
        policy = drive(POLICIES[name](memory()), batches)
        drained = []
        while True:
            batch = policy.migration_candidates(7)
            if batch.size == 0:
                break
            drained.extend(batch.tolist())
        assert sorted(drained) == sorted(policy.hot_pages)


class TestDamonRegionInvariants:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(batches=epochs)
    def test_regions_partition_the_space(self, batches):
        damon = drive(Damon(memory(), seed=1), batches)
        assert damon.starts[0] == 0
        assert damon.ends[-1] == N_PAGES
        assert np.array_equal(damon.starts[1:], damon.ends[:-1])
        assert (damon.ends > damon.starts).all()
        assert damon.starts.size <= damon.max_nr_regions
