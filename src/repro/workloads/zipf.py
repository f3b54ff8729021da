"""Popularity distributions for synthetic address streams.

The trace generators are calibrated to the *measured* page-hotness
structure the paper publishes (Figure 10's per-page access-count CDFs
and the §7.2 commentary), so the building blocks here are the shapes
those CDFs exhibit: Zipf-like power laws, uniform floors, and explicit
hot/warm/cold mixtures with given population fractions and relative
heats.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def zipf_popularity(n: int, exponent: float) -> np.ndarray:
    """Normalised Zipf(s) popularity over ``n`` items (rank order)."""
    if n <= 0:
        raise ValueError("n must be positive")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


def uniform_popularity(n: int) -> np.ndarray:
    """Flat popularity (the paper's description of Redis/YCSB-A)."""
    if n <= 0:
        raise ValueError("n must be positive")
    return np.full(n, 1.0 / n)


def mixture_popularity(
    n: int, tiers: Sequence[Tuple[float, float]]
) -> np.ndarray:
    """Piecewise-constant popularity from (fraction, relative_heat) tiers.

    Example — roms_r's Figure 10 shape ("p90, p95, and p99 pages are
    2x, 8x, 17x more frequently accessed than the p50 page")::

        mixture_popularity(n, [(0.01, 17), (0.04, 8), (0.05, 2), (0.90, 1)])

    Tiers are ordered hottest-first; fractions must sum to ~1.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    fracs = np.array([f for f, _ in tiers], dtype=np.float64)
    heats = np.array([h for _, h in tiers], dtype=np.float64)
    if fracs.min() <= 0 or heats.min() <= 0:
        raise ValueError("fractions and heats must be positive")
    if not np.isclose(fracs.sum(), 1.0, atol=1e-6):
        raise ValueError(f"tier fractions sum to {fracs.sum()}, expected 1")
    counts = np.round(fracs * n).astype(int)
    counts[-1] = n - counts[:-1].sum()
    if counts.min() < 0:
        raise ValueError("tier fractions incompatible with n")
    weights = np.repeat(heats, counts)
    return weights / weights.sum()


def blend(*components: Tuple[float, np.ndarray]) -> np.ndarray:
    """Convex combination of popularity vectors.

    Args:
        components: (weight, popularity_vector) pairs; weights are
            re-normalised.
    """
    if not components:
        raise ValueError("need at least one component")
    total = sum(w for w, _ in components)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    size = len(components[0][1])
    out = np.zeros(size, dtype=np.float64)
    for weight, vec in components:
        if len(vec) != size:
            raise ValueError("all components must have the same length")
        out += (weight / total) * np.asarray(vec, dtype=np.float64)
    return out / out.sum()


def shuffled(popularity: np.ndarray, seed: int = 0) -> np.ndarray:
    """Permute a rank-ordered popularity vector over the page space.

    Real address spaces do not lay hot pages out contiguously; the
    permutation decorrelates hotness from the PFN so region-based
    detectors (DAMON) see realistic spatial mixing.
    """
    rng = np.random.default_rng(seed)
    out = np.asarray(popularity, dtype=np.float64).copy()
    rng.shuffle(out)
    return out


def spatially_clustered(
    popularity: np.ndarray, cluster_pages: int, seed: int = 0
) -> np.ndarray:
    """Permute hotness in clusters of ``cluster_pages`` adjacent pages.

    Array-sweeping codes (SPEC stencils, CSR edge arrays) keep similar
    heat across large contiguous extents; cluster-level shuffling
    models that while still mixing regions.
    """
    pop = np.asarray(popularity, dtype=np.float64)
    n = len(pop)
    if cluster_pages <= 0:
        raise ValueError("cluster_pages must be positive")
    num_clusters = -(-n // cluster_pages)
    pad = num_clusters * cluster_pages - n
    padded = np.concatenate([pop, np.zeros(pad)]) if pad else pop.copy()
    blocks = padded.reshape(num_clusters, cluster_pages)
    rng = np.random.default_rng(seed)
    rng.shuffle(blocks)
    out = blocks.reshape(-1)[:n]
    total = out.sum()
    if total <= 0:
        raise ValueError("popularity sums to zero")
    return out / total


def with_cold_tail(
    popularity: np.ndarray,
    active_fraction: float,
    cold_heat: float = 0.005,
    seed: int = 0,
) -> np.ndarray:
    """Demote a random subset of pages to a cold tail.

    Real footprints are not uniformly warm: index structures, freed
    arenas, and out-of-phase data sit nearly idle.  This keeps
    ``active_fraction`` of the pages at their popularity and scales
    the rest down to ``cold_heat`` of their weight — the structure
    that lets a DDR tier smaller than the footprint absorb most of
    the traffic once hot pages migrate.
    """
    if not 0 < active_fraction <= 1:
        raise ValueError("active_fraction must be in (0, 1]")
    if cold_heat <= 0:
        raise ValueError("cold_heat must be positive")
    pop = np.asarray(popularity, dtype=np.float64).copy()
    n = pop.size
    num_cold = int(round(n * (1.0 - active_fraction)))
    if num_cold == 0:
        return pop / pop.sum()
    rng = np.random.default_rng(seed)
    # Cool the least-popular pages (deterministic given popularity),
    # breaking ties randomly so flat distributions cool a random set.
    order = np.lexsort((rng.random(n), pop))
    pop[order[:num_cold]] *= cold_heat
    return pop / pop.sum()


class PageSampler:
    """I.i.d. page draws from one popularity vector, by guide table.

    The draw is the inverse CDF of ``popularity``: page ``i`` for a
    uniform ``u`` in ``[cdf[i-1], cdf[i])``, the same page
    ``np.searchsorted(cdf, u, side="right")`` returns (Chen & Asau's
    guide table, 1974).  The CDF and the table are built once; each
    :meth:`sample` then costs one table lookup per draw.

    The table splits ``[0, 1)`` into ``M`` equal buckets, ``M`` the
    next power of two at or above ``8n``.  Scaling by a power of two is
    exact in float64, so ``floor(u * M)`` is exactly the bucket
    ``[j/M, (j+1)/M)`` holding ``u``, and a bucket with no CDF value in
    ``(j/M, (j+1)/M]`` answers every draw in it with one page.  Draws
    in the other buckets (a few percent) fall back to ``searchsorted``
    on just those draws.  The pages, their dtype and the one
    ``rng.random(count)`` call all match the plain ``searchsorted``
    draw, so seeded streams are unchanged.
    """

    def __init__(self, popularity: np.ndarray):
        self.popularity = np.asarray(popularity, dtype=np.float64)
        cdf = np.cumsum(self.popularity)
        cdf[-1] = 1.0
        self._cdf = cdf
        self._buckets = 1 << (8 * cdf.size - 1).bit_length()
        edges = np.searchsorted(
            cdf, np.arange(self._buckets + 1) / self._buckets, side="right"
        )
        # Bucket j answers edges[j] when no CDF value lies inside it,
        # else -1: the draw needs the fallback search.
        self._guide = np.where(
            edges[:-1] == edges[1:], edges[:-1], -1
        ).astype(np.int64, copy=False)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` int64 page ids."""
        u = rng.random(count)
        pages = self._guide[(u * self._buckets).astype(np.intp)]
        straddle = np.flatnonzero(pages < 0)
        pages[straddle] = np.searchsorted(self._cdf, u[straddle], side="right")
        return pages
