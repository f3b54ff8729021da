"""Workload base classes: specs and the synthetic trace generator.

A :class:`TraceGenerator` yields chunks of *logical* byte addresses
(64B-aligned).  The simulation engine translates them through the
tiered-memory page map into physical addresses, which is what the CXL
controller (and therefore PAC/WAC/HPT/HWT) observes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.workloads.phases import PhaseModel, Stationary
from repro.workloads.wordmap import WordDensityProfile, WordSelector, addresses_from
from repro.workloads.zipf import uniform_popularity

#: Default chunk granularity for generated traces.
DEFAULT_CHUNK = 1 << 16


@dataclass(frozen=True)
class WorkloadSpec:
    """Static description of a benchmark (the Table 3 row).

    Attributes:
        name: canonical benchmark name.
        footprint_pages: memory footprint in 4KB pages (scaled-down
            proportionally from the paper's GB figures).
        description: Table 3 description.
        cores: CPU cores / benchmark instances used in the paper.
        llc_ways: CAT ways allocated in the paper's setup.
        latency_sensitive: True for Redis (p99-scored) workloads.
        paper_footprint_gb: the unscaled footprint, for reference.
        mpki: approximate LLC misses per kilo-instruction, used by the
            performance model to weigh memory stalls against compute.
    """

    name: str
    footprint_pages: int
    description: str = ""
    cores: int = 8
    llc_ways: int = 4
    latency_sensitive: bool = False
    paper_footprint_gb: float = 0.0
    mpki: float = 20.0


class TraceGenerator(abc.ABC):
    """Produces the logical address stream of one benchmark run.

    Subclasses implement :meth:`chunk`, the primitive the simulation
    engine drives; :meth:`chunks` and :meth:`trace` are derived.
    """

    def __init__(self, spec: WorkloadSpec, seed: int = 0):
        self.spec = spec
        self.seed = int(seed)

    @abc.abstractmethod
    def chunk(self, chunk_size: int = DEFAULT_CHUNK) -> np.ndarray:
        """Generate the next ``chunk_size`` uint64 byte addresses."""

    def chunks(
        self, total_accesses: int, chunk_size: int = DEFAULT_CHUNK
    ) -> Iterator[np.ndarray]:
        """Yield uint64 logical byte addresses in chunks."""
        remaining = int(total_accesses)
        while remaining > 0:
            take = min(remaining, int(chunk_size))
            yield self.chunk(take)
            remaining -= take

    def trace(self, total_accesses: int) -> np.ndarray:
        """Materialise a full trace (small experiments/tests only)."""
        parts = list(self.chunks(total_accesses))
        if not parts:
            return np.empty(0, dtype=np.uint64)
        return np.concatenate(parts)


@dataclass
class SyntheticParams:
    """Knobs of the generic synthetic generator."""

    popularity: np.ndarray
    word_density: WordDensityProfile
    phase_model: Optional[PhaseModel] = None
    word_skew: float = 0.0
    extra: dict = field(default_factory=dict)


class SyntheticWorkload(TraceGenerator):
    """Generic calibrated generator: popularity × phases × word map.

    Every concrete benchmark generator reduces to a parameterisation
    of this class; domain-specific modules (graph, kvstore, ...)
    construct the parameters from domain structure.
    """

    def __init__(self, spec: WorkloadSpec, params: SyntheticParams, seed: int = 0):
        super().__init__(spec, seed)
        if len(params.popularity) != spec.footprint_pages:
            raise ValueError(
                f"popularity length {len(params.popularity)} != footprint "
                f"{spec.footprint_pages}"
            )
        self.params = params
        self._rng = np.random.default_rng(seed)
        self._phase = (
            params.phase_model
            if params.phase_model is not None
            else Stationary(params.popularity)
        )
        self._selector = WordSelector(seed=seed)
        self._active_counts = params.word_density.sample_counts(
            spec.footprint_pages, np.random.default_rng(seed + 1)
        )

    @property
    def active_word_counts(self) -> np.ndarray:
        """Per-page active-word counts (ground truth for Fig. 4 tests)."""
        return self._active_counts

    def restart(self) -> None:
        """Reset generator state for a fresh, identical run."""
        self._rng = np.random.default_rng(self.seed)
        self._phase.reset()

    def chunk(self, chunk_size: int = DEFAULT_CHUNK) -> np.ndarray:
        """Generate one chunk of logical byte addresses."""
        pages = self._phase.sample(int(chunk_size), self._rng)
        words = self._selector.select(
            pages, self._active_counts, self._rng, skew=self.params.word_skew
        )
        return addresses_from(pages, words)


def uniform_workload(
    name: str = "uniform", footprint_pages: int = 4096, seed: int = 0
) -> SyntheticWorkload:
    """A minimal fully-uniform workload (testing convenience)."""
    spec = WorkloadSpec(name=name, footprint_pages=footprint_pages)
    params = SyntheticParams(
        popularity=uniform_popularity(footprint_pages),
        word_density=WordDensityProfile.dense(),
    )
    return SyntheticWorkload(spec, params, seed=seed)
