"""Simulation engine: configuration, performance model, and the
per-run driver tying workloads, tiers, the CXL controller, and the
page-migration policies together."""

from repro.sim.config import FleetConfig, SimConfig
from repro.sim.engine import (
    ALL_POLICIES,
    BASELINE_POLICIES,
    CHECKPOINT_FORMAT_VERSION,
    M5_POLICIES,
    CheckpointError,
    M5Options,
    RunResult,
    Simulation,
    access_count_ratio,
    ratio_k_cap,
    run_policy,
)
from repro.sim.perf import EpochPerf, PerformanceModel
from repro.sim.sweep import (
    cell_seed,
    collect_matrix,
    matrix_means,
    normalized,
    run_one,
)
from repro.sim.telemetry import (
    JsonlSink,
    RingBufferSink,
    TelemetryBus,
    TelemetrySink,
    read_jsonl,
)

__all__ = [
    "FleetConfig",
    "SimConfig",
    "ALL_POLICIES",
    "BASELINE_POLICIES",
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "M5_POLICIES",
    "M5Options",
    "RunResult",
    "Simulation",
    "access_count_ratio",
    "ratio_k_cap",
    "run_policy",
    "EpochPerf",
    "PerformanceModel",
    "cell_seed",
    "collect_matrix",
    "matrix_means",
    "normalized",
    "run_one",
    "JsonlSink",
    "RingBufferSink",
    "TelemetryBus",
    "TelemetrySink",
    "read_jsonl",
]
