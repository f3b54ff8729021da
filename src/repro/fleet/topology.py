"""Fleet topology: carving the shared tier hierarchy into tenant shares.

The fleet host exposes one tier hierarchy — DDR, direct-attached CXL,
and (for 3-tier fleets) a pooled CXL device behind a switch.  Capacity
is partitioned *statically* by QoS weight: tenant ``t`` receives a
largest-remainder share of every tier, carved into a private
physical-address window (:func:`repro.memory.address.tenant_window`),
so no frame can ever be mapped by two tenants.  Bandwidth, by
contrast, is arbitrated *dynamically* every epoch (see
:mod:`repro.sim.perf`) — capacity isolation is hard, channel isolation
is a QoS policy.

Tenant 0's windows start exactly at the historical tier bases, so a
1-tenant fleet reproduces the single-run physical layout bit for bit.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.memory.address import PAGE_SIZE, TENANT_PA_STRIDE, tenant_window
from repro.memory.tiers import (
    CXL_BASE,
    CXL_POOLED_BASE,
    CXL_POOLED_LATENCY_NS,
    DDR_BASE,
    DDR_LATENCY_NS,
    NodeKind,
    NodeSpec,
)
from repro.sim.config import FleetConfig, SimConfig

#: Tenants that fit between consecutive tier base addresses (16TB of
#: windows per tier at the 1TB stride).
MAX_TENANTS = (CXL_POOLED_BASE - CXL_BASE) // TENANT_PA_STRIDE
#: Pooled channel ceiling in GB/s: 0 leaves the pooled tier
#: unlimited, like the default DDR and CXL ceilings.
POOLED_BANDWIDTH_GBPS = 0.0


def weighted_partition(total: int, weights: Sequence[float]) -> List[int]:
    """Split ``total`` units proportionally to ``weights``.

    Largest-remainder rounding: every share is the floor of its exact
    proportional slice, and the leftover units go to the largest
    fractional remainders (ties to the lower tenant index), so the
    shares always sum to exactly ``total``.  Equal weights divide a
    multiple of ``len(weights)`` exactly — the case the 1-tenant
    bit-identity guarantee rides on.
    """
    wsum = float(sum(weights))
    if wsum <= 0:
        raise ValueError("weights must sum to a positive value")
    exact = [total * float(w) / wsum for w in weights]
    shares = [int(e) for e in exact]
    leftover = total - sum(shares)
    order = sorted(
        range(len(weights)), key=lambda i: (shares[i] - exact[i], i)
    )
    for i in order[:leftover]:
        shares[i] += 1
    return shares


def tenant_node_specs(
    config: SimConfig,
    fleet: FleetConfig,
    tenant: int,
    footprint_pages: int,
) -> List[NodeSpec]:
    """The ordered :class:`NodeSpec` hierarchy for one tenant.

    DDR scales with the tenant count (every tenant brings its socket's
    DDR into the pool).  The CXL tier depends on the fleet shape: a
    2-tier fleet models scale-out partitioning (per-tenant CXL,
    widened to the footprint exactly like the single-run engine), a
    3-tier fleet models consolidation — the direct-attached device
    stays at the single-host capacity and is *shared*, so tenants
    overflow down the demotion chain into the pooled tier.  Every
    tier is then partitioned by QoS weight, and the last tier of the
    spill path is widened if needed so the footprint always fits.
    """
    if not 0 <= tenant < fleet.tenants:
        raise ValueError(f"tenant {tenant} outside fleet of {fleet.tenants}")
    if fleet.tenants > MAX_TENANTS:
        raise ValueError(
            f"fleet of {fleet.tenants} tenants exceeds the "
            f"{MAX_TENANTS}-window PA layout"
        )
    weights = fleet.weight_list()
    ddr_share = weighted_partition(config.ddr_pages * fleet.tenants, weights)
    ddr_pages = ddr_share[tenant]
    if fleet.tiers == 2:
        cxl_pages = weighted_partition(
            config.cxl_pages * fleet.tenants, weights
        )[tenant]
        # The spill tier must hold the whole footprint, exactly like
        # the single-run engine's max(cxl_pages, footprint) widening.
        cxl_pages = max(cxl_pages, footprint_pages)
    else:
        # Consolidation: one direct-attached device shared by weight.
        cxl_pages = weighted_partition(config.cxl_pages, weights)[tenant]
    specs = [
        NodeSpec(
            NodeKind.DDR,
            ddr_pages,
            latency_ns=DDR_LATENCY_NS,
            base_pa=tenant_window(
                DDR_BASE, tenant, ddr_pages * PAGE_SIZE
            ).start,
            bandwidth_gbps=config.ddr_bandwidth_gbps,
        ),
        NodeSpec(
            NodeKind.CXL,
            cxl_pages,
            latency_ns=config.cxl_latency_ns,
            base_pa=tenant_window(
                CXL_BASE, tenant, cxl_pages * PAGE_SIZE
            ).start,
            bandwidth_gbps=config.cxl_bandwidth_gbps,
        ),
    ]
    if fleet.tiers == 3:
        pooled_total = int(fleet.pooled_capacity_gb * config.pages_per_gb)
        pooled_pages = weighted_partition(pooled_total, weights)[tenant]
        # The CXL + pooled spill path must hold the footprint.
        pooled_pages = max(pooled_pages, footprint_pages - cxl_pages)
        specs.append(
            NodeSpec(
                NodeKind.CXL_POOLED,
                pooled_pages,
                latency_ns=CXL_POOLED_LATENCY_NS,
                base_pa=tenant_window(
                    CXL_POOLED_BASE, tenant, pooled_pages * PAGE_SIZE
                ).start,
                bandwidth_gbps=POOLED_BANDWIDTH_GBPS,
            )
        )
    return specs
