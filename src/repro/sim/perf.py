"""Performance model: execution time and tail latency.

Execution time of a memory-intensive epoch decomposes into

* **compute** — instructions between LLC misses, from the workload's
  MPKI and the core's IPC/frequency;
* **memory stalls** — per-access load-to-use latency of the serving
  tier divided by the memory-level parallelism;
* **policy overhead** — kernel CPU time spent identifying hot pages,
  charged to the same core (the paper pins the migration processes
  and the benchmark to shared cores, §6);
* **migration time** — ~54 µs per moved page (§7.2).

With the default parameters an all-CXL run is ≈2× slower than an
all-DDR run, matching the paper's no-migration baseline (M5 ends up
106% above no-migration, i.e. near the all-DDR bound, Figure 9).

For latency-sensitive workloads (Redis), the model scores the 99th
percentile request latency: the p99 request is one that arrives while
the policy's periodic burst occupies the core, so its latency is the
base request time plus a queueing penalty that grows with the
policy's CPU utilisation share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.memory.tiers import DDR_LATENCY_NS
from repro.sim.config import SimConfig
from repro.workloads.base import WorkloadSpec

#: Core frequency of the paper's testbed (Table 2: 2.1 GHz Xeon 6430).
CPU_GHZ = 2.1
#: Core instructions per cycle for the compute component.
IPC = 1.5
#: Fraction of migration work landing on the application's critical
#: path.  Migration runs in kernel threads that overlap the
#: benchmark's other instances; only TLB shootdowns, locks, and the
#: straggler instance's own faults serialise with it.
MIGRATION_OVERLAP = 0.3

#: Tail-amplification factor: sustained interference utilisation maps
#: into p99 inflation with roughly this gain (a request arriving
#: during a policy/migration burst queues behind it).
P99_GAIN = 6.0
#: Memory accesses per Redis-style request (average over YCSB-A ops).
ACCESSES_PER_REQUEST = 12


# ----------------------------------------------------------------------
# fleet bandwidth arbitration (noisy-neighbor model)
#
# When N tenants share a tier's channel, each epoch the arbiter turns
# per-tenant demand (bytes/s the tenant would push uncontended) into a
# bandwidth share, and the ratio demand/share becomes a >=1 stall
# multiplier on that tenant's memory time for the node.  Two regimes:
#
# * QoS off — pure proportional sharing: s_i = C * d_i / sum(d).  Every
#   tenant's factor collapses to max(1, sum(d)/C): a noisy neighbor
#   slows everyone equally.
# * QoS on — weighted max-min (water-filling): tenants demanding less
#   than their weighted fair share are fully satisfied, and the
#   surplus is redistributed by weight among the rest.  A light tenant
#   is insulated from a heavy one.


def proportional_shares(
    demands: Sequence[float], capacity: float
) -> List[float]:
    """Split ``capacity`` across tenants proportionally to demand."""
    total = 0.0
    for d in demands:
        total += float(d)
    if total <= 0.0:
        return [0.0 for _ in demands]
    return [float(capacity) * float(d) / total for d in demands]


def weighted_fair_shares(
    demands: Sequence[float],
    weights: Sequence[float],
    capacity: float,
) -> List[float]:
    """Weighted max-min (water-filling) bandwidth allocation.

    Repeatedly offers each unsatisfied tenant its weighted slice of
    the remaining capacity; tenants whose residual demand fits are
    capped at their demand and drop out, and the loop re-divides the
    surplus until nothing changes.
    """
    n = len(demands)
    if len(weights) != n:
        raise ValueError("demands and weights must have equal length")
    shares = [0.0] * n
    remaining = float(capacity)
    active = [i for i in range(n) if float(demands[i]) > 0.0]
    while active and remaining > 0.0:
        wsum = 0.0
        for i in active:
            wsum += max(0.0, float(weights[i]))
        if wsum <= 0.0:
            offers = {i: remaining / len(active) for i in active}
        else:
            offers = {
                i: remaining * max(0.0, float(weights[i])) / wsum
                for i in active
            }
        satisfied = [
            i for i in active if float(demands[i]) - shares[i] <= offers[i]
        ]
        if not satisfied:
            for i in active:
                shares[i] += offers[i]
            break
        for i in satisfied:
            remaining -= float(demands[i]) - shares[i]
            shares[i] = float(demands[i])
        remaining = max(0.0, remaining)
        active = [i for i in active if i not in satisfied]
    return shares


def bandwidth_shares(
    demands: Sequence[float],
    weights: Sequence[float],
    capacity: float,
    qos: bool = True,
) -> List[float]:
    """Per-tenant bandwidth shares of one node's channel.

    ``capacity <= 0`` models an unlimited channel: everyone receives
    exactly their demand.  Otherwise QoS picks between weighted
    max-min fairness and pure proportional sharing.
    """
    if float(capacity) <= 0.0:
        return [float(d) for d in demands]
    if not qos:
        return proportional_shares(demands, capacity)
    return weighted_fair_shares(demands, weights, capacity)


def contention_factors(
    demands: Sequence[float], shares: Sequence[float]
) -> List[float]:
    """Stall multipliers (>= 1) from demand vs granted share."""
    out: List[float] = []
    for d, s in zip(demands, shares):
        d = float(d)
        s = float(s)
        out.append(d / s if (s > 0.0 and d > s) else 1.0)
    return out


@dataclass
class EpochPerf:
    """Per-epoch performance bookkeeping."""

    compute_s: float
    memory_s: float
    overhead_s: float
    migration_s: float

    @property
    def total_s(self) -> float:
        return self.compute_s + self.memory_s + self.overhead_s + self.migration_s


class PerformanceModel:
    """Turns epoch access counts + overheads into time."""

    def __init__(
        self,
        config: SimConfig,
        spec: WorkloadSpec,
        node_params: Optional[Sequence[Tuple[float, float]]] = None,
    ) -> None:
        """``node_params`` optionally replaces the two-node defaults:
        one ``(latency_ns, bandwidth_gbps)`` pair per tier, fastest
        first (the fleet passes the hierarchy's resolved specs)."""
        self.config = config
        self.spec = spec
        cycles_per_instr = 1.0 / IPC
        instrs_per_access = 1000.0 / max(spec.mpki, 1e-6)
        self.compute_per_access_s = (
            instrs_per_access * cycles_per_instr / (CPU_GHZ * 1e9)
        )
        if node_params is None:
            node_params = (
                (DDR_LATENCY_NS, config.ddr_bandwidth_gbps),
                (config.cxl_latency_ns, config.cxl_bandwidth_gbps),
            )
        #: Per-node (stall_s, bandwidth_gbps), fastest tier first.
        self.node_stall_s: List[float] = [
            lat * 1e-9 / config.mlp for lat, _ in node_params
        ]
        self.node_bw_gbps: List[float] = [bw for _, bw in node_params]
        self.ddr_stall_s = self.node_stall_s[0]
        self.cxl_stall_s = self.node_stall_s[1]
        #: Per-node noisy-neighbor stall multipliers for the *next*
        #: epoch, set by the fleet arbiter before the perf stage and
        #: consumed (reset to None) by record_epoch.  None skips the
        #: contention arithmetic entirely, keeping single-run results
        #: bit-identical.
        self.contention: Optional[List[float]] = None
        #: Each simulated access stands for `dilation` real ones (see
        #: SimConfig), so application time scales by dilation; each
        #: model page groups `footprint_scale` real pages, so moving
        #: one costs that many real page migrations.  Policy overheads
        #: arrive already scaled by each policy's cost model.
        self.dilation = max(1.0, config.time_dilation)
        self.page_scale = max(1.0, config.footprint_scale)
        #: The paper runs one benchmark instance/thread per core (§6);
        #: the trace is the aggregate stream, so wall-clock app time is
        #: the per-core share.
        self.cores = max(1, spec.cores)
        self.epochs: List[EpochPerf] = []
        # Running totals, accumulated in record_epoch.  The aggregate
        # properties are read once per epoch (progress callbacks,
        # invariant checks), so recomputing sum(...) over the epoch
        # list made each of them O(epochs) — O(E^2) per run.  Adding
        # left-to-right from 0.0 is exactly what sum() does, so the
        # totals stay bit-identical to the recomputed values.
        self._execution_s = 0.0
        self._app_s = 0.0
        self._overhead_s = 0.0
        self._migration_s = 0.0
        # Shadow accumulator: what execution time would be with no
        # bandwidth contention (contention factors forced to 1).  The
        # per-tenant "slowdown vs isolated run" metric is
        # execution_time_s / isolated_time_s without a second run.
        self._isolated_s = 0.0

    def _node_memory_s(
        self,
        n: int,
        stall_s: float,
        bw_gbps: float,
        extra_bytes: float = 0.0,
    ) -> float:
        """Wall-clock memory time for one node's epoch traffic.

        Latency-bound time divides across cores (each core overlaps
        its own misses); bandwidth-bound time does not — the channel
        is shared.  The node is whichever bound is tighter.

        ``extra_bytes`` is non-demand traffic on the node's channel —
        asynchronous migration copies — in *model* bytes (one model
        page groups ``page_scale`` real pages).  It contends with
        demand traffic: it inflates the bandwidth-bound term, and
        under the latency-only model it is charged as the equivalent
        cacheline transfers through the same stall path.
        """
        latency_bound = n * stall_s * self.dilation / self.cores
        extra_real_bytes = extra_bytes * self.page_scale
        if bw_gbps <= 0:
            if extra_real_bytes:
                latency_bound += (
                    (extra_real_bytes / 64.0) * stall_s / self.cores
                )
            return latency_bound
        bandwidth_bound = (
            n * 64.0 * self.dilation + extra_real_bytes
        ) / (bw_gbps * 1e9)
        return max(latency_bound, bandwidth_bound)

    def record_epoch(
        self,
        n_ddr: int,
        n_cxl: int,
        overhead_us: float,
        migration_us: float,
        migration_bytes: float = 0.0,
        node_counts: Optional[Sequence[int]] = None,
    ) -> EpochPerf:
        """Convert one epoch's traffic and overheads into time.

        Args:
            n_ddr / n_cxl: demand accesses served by each tier (the
                two-node fast path).
            overhead_us: the policy's identification CPU cost.
            migration_us: kernel CPU time of migration (the flat
                54 µs/page in instant mode; the remap share in async
                mode), charged via :data:`MIGRATION_OVERLAP`.
            migration_bytes: asynchronous migration copy traffic in
                model bytes.  Each copied page reads from one tier and
                writes the other, so the bytes contend on both
                channels; 0 (instant mode) leaves the model untouched.
            node_counts: demand accesses per node for hierarchies
                deeper than two tiers (overrides ``n_ddr``/``n_cxl``;
                must match the ``node_params`` length).
        """
        if node_counts is None:
            node_counts = (n_ddr, n_cxl)
        n = 0
        for count in node_counts:
            n += int(count)
        scale = self.dilation / self.cores
        contention = self.contention
        self.contention = None
        memory_s = 0.0
        isolated_memory_s = 0.0
        for i, count in enumerate(node_counts):
            node_s = self._node_memory_s(
                int(count),
                self.node_stall_s[i],
                self.node_bw_gbps[i],
                extra_bytes=migration_bytes,
            )
            if contention is None:
                memory_s += node_s
                isolated_memory_s = memory_s
            else:
                isolated_memory_s += node_s
                memory_s += node_s * max(1.0, contention[i])
        perf = EpochPerf(
            compute_s=n * scale * self.compute_per_access_s,
            memory_s=memory_s,
            overhead_s=overhead_us * 1e-6,
            migration_s=migration_us
            * 1e-6
            * self.page_scale
            * MIGRATION_OVERLAP,
        )
        self.epochs.append(perf)
        self._execution_s += perf.total_s
        self._app_s += perf.compute_s + perf.memory_s
        self._overhead_s += perf.overhead_s
        self._migration_s += perf.migration_s
        self._isolated_s += (
            perf.compute_s + isolated_memory_s + perf.overhead_s + perf.migration_s
        )
        return perf

    # ------------------------------------------------------------------
    # aggregate metrics

    @property
    def execution_time_s(self) -> float:
        return self._execution_s

    @property
    def app_time_s(self) -> float:
        """Time excluding policy/migration overhead."""
        return self._app_s

    @property
    def overhead_time_s(self) -> float:
        return self._overhead_s

    @property
    def migration_time_s(self) -> float:
        return self._migration_s

    @property
    def isolated_time_s(self) -> float:
        """Execution time with all contention factors forced to 1 —
        the tenant's wall-clock had it run the fleet alone."""
        return self._isolated_s

    def slowdown_vs_isolated(self) -> float:
        """Noisy-neighbor slowdown: contended / uncontended time."""
        if self._isolated_s <= 0.0:
            return 1.0
        return self._execution_s / self._isolated_s

    def p99_latency_us(self) -> float:
        """p99 request latency for latency-sensitive workloads.

        Base request time from compute + memory per request; inflated
        by the policy's utilisation share with tail amplification (a
        request arriving during a policy burst queues behind it).
        """
        if not self.epochs:
            return 0.0
        # Score steady state: YCSB-style runs measure after a load/
        # warmup phase, so the migration fill at the start of the run
        # must not anchor the percentile.
        steady = self.epochs[len(self.epochs) // 2 :]
        per_access = np.array(
            [
                (e.compute_s + e.memory_s)
                / max(1e-12, e.compute_s / self.compute_per_access_s)
                for e in steady
            ]
        )
        # Request base time per epoch; p99 epoch-level base captures
        # phases with more CXL traffic.
        base_us = np.quantile(per_access * ACCESSES_PER_REQUEST * 1e6, 0.99)
        # Tail inflation follows *persistent* interference: a one-off
        # fill phase touches too few requests to move the 99th
        # percentile, while steady scanning or migration churn delays
        # requests in (nearly) every window.  u_tail is the
        # interference utilisation that at least 5% of epochs sustain.
        per_epoch_u = np.array(
            [
                (e.overhead_s + e.migration_s) / e.total_s if e.total_s > 0 else 0.0
                for e in steady
            ]
        )
        u_tail = float(np.quantile(per_epoch_u, 0.95))
        return float(base_us * (1.0 + P99_GAIN * u_tail))
