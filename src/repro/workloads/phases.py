"""Temporal phase models for the trace generators.

Page-migration quality is largely a question of *temporal* behaviour:
a scanner that aggregates over seconds looks good when the hot set is
stable (SPEC stencils) and poor when it drifts (graph frontiers).
Three models cover the behaviours the paper's benchmarks exhibit:

* :class:`Stationary` — fixed popularity (Redis uniform traffic,
  converged PageRank iterations);
* :class:`RotatingWorkingSet` — the hot group of pages rotates through
  the footprint (BFS/BC frontier expansion, liblinear's pass over
  shards);
* :class:`SweepMix` — a sequential sweep over the footprint blended
  with a stationary hot set (stencil codes: cactuBSSN, fotonik3d,
  roms; CSR edge-array scans in PR/CC).
"""

from __future__ import annotations

import abc
import functools
from typing import Optional

import numpy as np

from repro.workloads.zipf import PageSampler


class PhaseModel(abc.ABC):
    """Produces page ids for consecutive trace chunks."""

    def __init__(self, popularity: np.ndarray):
        popularity = np.asarray(popularity, dtype=np.float64)
        if popularity.ndim != 1 or popularity.size == 0:
            raise ValueError("popularity must be a non-empty vector")
        total = popularity.sum()
        if total <= 0:
            raise ValueError("popularity must have positive mass")
        self.popularity = popularity / total
        self.num_pages = popularity.size
        self._accesses_emitted = 0

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        pages = self._sample(count, rng)
        self._accesses_emitted += int(count)
        return pages

    @abc.abstractmethod
    def _sample(self, count: int, rng: np.random.Generator) -> np.ndarray: ...

    def reset(self) -> None:
        self._accesses_emitted = 0

    @functools.cached_property
    def sampler(self) -> PageSampler:
        """The draw over :attr:`popularity`, built on first use."""
        return PageSampler(self.popularity)

    def __getstate__(self) -> dict:
        # The sampler is derived from the popularity vector: a checkpoint
        # carries the vector alone and the next draw rebuilds it.
        state = self.__dict__.copy()
        state.pop("sampler", None)
        return state


class Stationary(PhaseModel):
    """Time-invariant popularity."""

    def _sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return self.sampler.sample(count, rng)


class RotatingWorkingSet(PhaseModel):
    """Popularity boosted inside a window that rotates over time.

    Args:
        popularity: baseline popularity (background accesses).
        window_fraction: fraction of the footprint forming the current
            working set.
        boost: multiplicative heat applied inside the window.
        accesses_per_phase: rotation cadence in accesses.
        stride_fraction: how far the window advances per phase, as a
            fraction of the window (1.0 = disjoint windows).
    """

    def __init__(
        self,
        popularity: np.ndarray,
        window_fraction: float = 0.1,
        boost: float = 20.0,
        accesses_per_phase: int = 100_000,
        stride_fraction: float = 1.0,
    ):
        super().__init__(popularity)
        if not 0 < window_fraction <= 1:
            raise ValueError("window_fraction must be in (0, 1]")
        if boost <= 0 or accesses_per_phase <= 0 or stride_fraction <= 0:
            raise ValueError("boost, cadence, and stride must be positive")
        self.window_pages = max(1, int(window_fraction * self.num_pages))
        self.boost = float(boost)
        self.accesses_per_phase = int(accesses_per_phase)
        self.stride = max(1, int(self.window_pages * stride_fraction))

    def current_window_start(self) -> int:
        phase = self._accesses_emitted // self.accesses_per_phase
        return (phase * self.stride) % self.num_pages

    def _sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        # A fresh sampler per call: with 65,536-access chunks the window
        # moves every one to three chunks, and building the table costs
        # less than the binary searches it replaces.
        start = self.current_window_start()
        weights = self.popularity.copy()
        idx = (start + np.arange(self.window_pages)) % self.num_pages
        weights[idx] *= self.boost
        weights /= weights.sum()
        return PageSampler(weights).sample(count, rng)


class SweepMix(PhaseModel):
    """Sequential sweep blended with stationary popularity.

    Args:
        popularity: the stationary (hot-set) component.
        sweep_fraction: fraction of accesses belonging to the sweep.
        hits_per_page: accesses the sweep spends on each page before
            moving on (a stencil touching most 64B words of a page
            lands in the tens); fixes the sweep's speed in pages per
            access, independent of how the trace is chunked.
    """

    def __init__(
        self,
        popularity: np.ndarray,
        sweep_fraction: float = 0.5,
        hits_per_page: int = 48,
        sweep_start: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(popularity)
        if not 0 <= sweep_fraction <= 1:
            raise ValueError("sweep_fraction must be in [0, 1]")
        if hits_per_page <= 0:
            raise ValueError("hits_per_page must be positive")
        self.sweep_fraction = float(sweep_fraction)
        self.hits_per_page = int(hits_per_page)
        if sweep_start is None and rng is not None:
            # Preferred: derive the sweep origin from the caller's
            # seed-derived generator.
            sweep_start = int(rng.integers(self.num_pages))
        elif sweep_start is None:
            # Legacy default: a *structural* hash of the footprint size
            # (not entropy) — it decorrelates the sweep from other
            # sequential walkers (e.g. ANB's scan cursor) and is pinned
            # by the roms/cactubssn differential goldens, so it must
            # not change.  New callers should pass `rng` instead.
            # lint: disable=DET004 -- golden-pinned structural hash of num_pages
            sweep_start = int(
                np.random.default_rng(self.num_pages).integers(self.num_pages)
            )
        self._sweep_start = int(sweep_start) % self.num_pages
        self._sweep_pos = self._sweep_start

    def _sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        n_sweep = int(round(count * self.sweep_fraction))
        n_hot = count - n_sweep
        parts = []
        if n_hot:
            parts.append(self.sampler.sample(n_hot, rng))
        if n_sweep:
            # Consecutive page touches marching through the footprint;
            # each page in the current stretch is hit `hits_per_page`
            # times (stencil codes touch most words of a page).
            stretch_pages = max(1, n_sweep // self.hits_per_page)
            stretch = np.repeat(
                (self._sweep_pos + np.arange(stretch_pages)) % self.num_pages,
                self.hits_per_page,
            )[:n_sweep]
            if stretch.size < n_sweep:
                stretch = np.pad(stretch, (0, n_sweep - stretch.size), mode="edge")
            self._sweep_pos = (self._sweep_pos + stretch_pages) % self.num_pages
            parts.append(stretch.astype(np.int64))
        pages = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        # Interleave sweep and hot accesses rather than concatenating
        # phases, as both proceed concurrently in the real codes.
        rng.shuffle(pages)
        return pages

    def reset(self) -> None:
        super().reset()
        self._sweep_pos = self._sweep_start
