"""Topology properties: partitioning and tenant PA windows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.address import PAGE_SIZE, TENANT_PA_STRIDE
from repro.memory.tiers import (
    CXL_BASE,
    CXL_POOLED_BASE,
    CXL_POOLED_LATENCY_NS,
    DDR_BASE,
    DDR_LATENCY_NS,
)
from repro.fleet import MAX_TENANTS, tenant_node_specs, weighted_partition
from repro.sim.config import FleetConfig, SimConfig


# ----------------------------------------------------------------------
# weighted_partition


@settings(max_examples=200, deadline=None)
@given(
    total=st.integers(min_value=0, max_value=10**7),
    weights=st.lists(
        st.floats(min_value=0.01, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=12,
    ),
)
def test_partition_sums_exactly(total, weights):
    shares = weighted_partition(total, weights)
    assert sum(shares) == total
    assert all(s >= 0 for s in shares)


@settings(max_examples=200, deadline=None)
@given(
    total=st.integers(min_value=0, max_value=10**7),
    weights=st.lists(
        st.floats(min_value=0.01, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=12,
    ),
)
def test_partition_within_one_unit_of_exact(total, weights):
    shares = weighted_partition(total, weights)
    wsum = sum(weights)
    for share, w in zip(shares, weights):
        exact = total * w / wsum
        assert exact - 1 < share < exact + 1


def test_equal_weights_divide_multiples_exactly():
    assert weighted_partition(9, [1.0, 1.0, 1.0]) == [3, 3, 3]
    assert weighted_partition(8, [1.0, 1.0]) == [4, 4]


def test_partition_rejects_nonpositive_weight_sum():
    with pytest.raises(ValueError):
        weighted_partition(10, [0.0, 0.0])


# ----------------------------------------------------------------------
# tenant_node_specs


def _spec_regions(config, fleet, footprint):
    """Every tenant's (start, end) PA intervals, flattened."""
    regions = []
    for t in range(fleet.tenants):
        for spec in tenant_node_specs(config, fleet, t, footprint):
            start = spec.resolved_base_pa
            regions.append((start, start + spec.capacity_pages * PAGE_SIZE, t))
    return regions


@settings(max_examples=50, deadline=None)
@given(
    tenants=st.integers(min_value=1, max_value=6),
    tiers=st.sampled_from([2, 3]),
    weights=st.lists(
        st.floats(min_value=0.25, max_value=4.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=3,
    ),
)
def test_tenant_windows_never_overlap(tenants, tiers, weights):
    """No physical frame can belong to two tenants: every tenant×tier
    PA interval is pairwise disjoint (frames live inside their node's
    interval by construction)."""
    config = SimConfig()
    fleet = FleetConfig(
        tenants=tenants, tiers=tiers,
        weights=",".join(str(w) for w in weights),
    )
    footprint = 4096
    regions = sorted(_spec_regions(config, fleet, footprint))
    for (_, prev_end, _), (start, _, _) in zip(regions, regions[1:]):
        assert start >= prev_end, "tenant PA windows overlap"


def test_tenant_zero_gets_historic_bases():
    config = SimConfig()
    fleet = FleetConfig(tenants=1, tiers=3)
    specs = tenant_node_specs(config, fleet, 0, 4096)
    assert specs[0].resolved_base_pa == DDR_BASE
    assert specs[1].resolved_base_pa == CXL_BASE
    assert specs[2].resolved_base_pa == CXL_POOLED_BASE


def test_tier_latencies_and_ceilings():
    """DDR and the pooled tier run at their fixed latencies; the CXL
    tier follows the run's sweepable latency and ceilings."""
    config = SimConfig(cxl_latency_ns=400.0, ddr_bandwidth_gbps=150.0,
                       cxl_bandwidth_gbps=60.0)
    ddr, cxl, pooled = tenant_node_specs(
        config, FleetConfig(tenants=2, tiers=3), 1, 4096)
    assert (ddr.latency_ns, ddr.bandwidth_gbps) == (DDR_LATENCY_NS, 150.0)
    assert (cxl.latency_ns, cxl.bandwidth_gbps) == (400.0, 60.0)
    assert (pooled.latency_ns, pooled.bandwidth_gbps) == (
        CXL_POOLED_LATENCY_NS, 0.0)


def test_tenant_windows_stride_apart():
    config = SimConfig()
    fleet = FleetConfig(tenants=3, tiers=2)
    t0 = tenant_node_specs(config, fleet, 0, 4096)
    t1 = tenant_node_specs(config, fleet, 1, 4096)
    assert t1[0].resolved_base_pa - t0[0].resolved_base_pa == TENANT_PA_STRIDE
    assert t1[1].resolved_base_pa - t0[1].resolved_base_pa == TENANT_PA_STRIDE


def test_two_tier_spill_path_holds_footprint():
    config = SimConfig()
    fleet = FleetConfig(tenants=4, tiers=2)
    footprint = config.cxl_pages * 8  # far beyond any per-tenant share
    for t in range(fleet.tenants):
        specs = tenant_node_specs(config, fleet, t, footprint)
        assert specs[1].capacity_pages >= footprint


def test_three_tier_chain_path_holds_footprint():
    config = SimConfig()
    fleet = FleetConfig(tenants=4, tiers=3, pooled_capacity_gb=0.5)
    footprint = config.cxl_pages * 8
    for t in range(fleet.tenants):
        specs = tenant_node_specs(config, fleet, t, footprint)
        assert (
            specs[1].capacity_pages + specs[2].capacity_pages >= footprint
        )


def test_rejects_tenant_outside_fleet():
    config = SimConfig()
    fleet = FleetConfig(tenants=2, tiers=2)
    with pytest.raises(ValueError):
        tenant_node_specs(config, fleet, 2, 1024)


def test_rejects_fleet_beyond_window_layout():
    config = SimConfig()
    fleet = FleetConfig(tenants=MAX_TENANTS + 1, tiers=2)
    with pytest.raises(ValueError):
        tenant_node_specs(config, fleet, 0, 1024)
