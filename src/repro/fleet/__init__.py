"""Multi-tenant, multi-tier fleet simulation.

The single-run engine (:mod:`repro.sim`) models one workload on one
DDR + CXL pair.  This package scales that model out to the paper's
datacenter setting: N tenants — each a :mod:`repro.workloads`
generator with its own seed, page table, and footprint — co-located
on a shared tier hierarchy of up to three nodes (DRAM, direct-attached
CXL, pooled CXL behind a switch), with

* weighted capacity partitioning into disjoint per-tenant
  physical-address windows (:mod:`repro.fleet.topology`),
* per-epoch QoS bandwidth arbitration and a noisy-neighbor contention
  model (:func:`repro.sim.perf.bandwidth_shares`),
* cross-tier demotion chains, DRAM → CXL → pooled
  (:mod:`repro.fleet.chain`), and
* per-tenant accounting: slowdown vs isolated run, bandwidth share,
  migration and chain traffic (:mod:`repro.fleet.sim`).

A 1-tenant, 2-tier fleet is bit-identical to the single-run engine —
the property the ``fleet`` differential oracle in :mod:`repro.verify`
enforces.
"""

from repro.fleet.chain import ChainStats, DemotionChain
from repro.fleet.sim import (
    FleetResult,
    FleetSimulation,
    TenantResult,
)
from repro.fleet.topology import (
    MAX_TENANTS,
    tenant_node_specs,
    weighted_partition,
)
from repro.sim.config import FleetConfig

__all__ = [
    "MAX_TENANTS",
    "ChainStats",
    "DemotionChain",
    "FleetConfig",
    "FleetResult",
    "FleetSimulation",
    "TenantResult",
    "tenant_node_specs",
    "weighted_partition",
]
