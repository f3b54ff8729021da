"""Calibrated synthetic workloads standing in for the paper's
benchmarks (Table 3 + the Figure 4 extras)."""

from repro.workloads.base import (
    DEFAULT_CHUNK,
    SyntheticParams,
    SyntheticWorkload,
    TraceGenerator,
    WorkloadSpec,
    uniform_workload,
)
from repro.workloads.phases import (
    PhaseModel,
    RotatingWorkingSet,
    Stationary,
    SweepMix,
)
from repro.workloads.wordmap import (
    SPARSITY_THRESHOLDS,
    WordDensityProfile,
    WordSelector,
    addresses_from,
)
from repro.workloads.zipf import (
    PageSampler,
    blend,
    mixture_popularity,
    shuffled,
    spatially_clustered,
    uniform_popularity,
    zipf_popularity,
)
from repro.workloads.traceio import (
    TraceCorruptError,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    record,
)
from repro.workloads.ycsb import SlabAllocator, YcsbMix, YcsbWorkload
from repro.workloads import registry
from repro.workloads.registry import (
    MEMORY_INTENSIVE,
    SCALABILITY_SET,
    SPARSITY_SET,
    TRACKER_SWEEP_SET,
    build,
    cxl_capacity_pages,
    ddr_capacity_pages,
    spec_of,
)

__all__ = [
    "DEFAULT_CHUNK",
    "SyntheticParams",
    "SyntheticWorkload",
    "TraceGenerator",
    "WorkloadSpec",
    "uniform_workload",
    "PhaseModel",
    "RotatingWorkingSet",
    "Stationary",
    "SweepMix",
    "SPARSITY_THRESHOLDS",
    "WordDensityProfile",
    "WordSelector",
    "addresses_from",
    "PageSampler",
    "blend",
    "mixture_popularity",
    "shuffled",
    "spatially_clustered",
    "uniform_popularity",
    "zipf_popularity",
    "TraceCorruptError",
    "TraceFormatError",
    "TraceReader",
    "TraceWriter",
    "SlabAllocator",
    "YcsbMix",
    "YcsbWorkload",
    "record",
    "registry",
    "MEMORY_INTENSIVE",
    "SCALABILITY_SET",
    "SPARSITY_SET",
    "TRACKER_SWEEP_SET",
    "build",
    "cxl_capacity_pages",
    "ddr_capacity_pages",
    "spec_of",
]
