"""HPT and HWT: the hardware top-K hot-page / hot-word trackers.

A *top-K tracker* (paper §5.1) pairs an access-count estimator with a
K-entry sorted CAM.  HPT keys the stream by PFN (``PA >> 12``); HWT
keys it by 64B word line (``PA >> 6``) — the only difference between
the two, exactly as in the paper ("Both HPT and HWT share the same
architecture and operations, except that they use page and word
addresses").

Three estimator back-ends are provided, covering the streaming-
algorithm taxonomy the paper analyses:

* :class:`CmSketchTopK` — the design M5 adopts;
* :class:`SpaceSavingTopK` — the Mithril-style CAM-only comparison;
* :class:`ExactTopK` — an idealised oracle (PAC-in-the-loop), useful
  as an upper bound and in tests.

All trackers expose ``observe(addresses)`` so they can be attached to
the :class:`~repro.cxl.controller.CxlController` snoop path, and
``query()`` which returns the top-K (key, estimated count) pairs and
resets both units for the next epoch (§5.1: "Both the CM-Sketch unit
and the sorted CAM unit can be reset immediately after the query is
served").
"""

from __future__ import annotations

import abc
from typing import Any, List, Tuple

import numpy as np

from repro.core.bulk import merge_counts
from repro.core.sketch import DEFAULT_DEPTH, CountMinSketch
from repro.core.spacesaving import MisraGries, SpaceSaving
from repro.core.topk import SortedCam
from repro.memory.address import PAGE_SHIFT, WORD_SHIFT

#: Query periods used in the paper's §7.1 sweep.
HPT_QUERY_PERIOD_S = 1e-3
HWT_QUERY_PERIOD_S = 100e-6

#: Timing requirement: one access per tCCD of DDR4-3200 (§5.1).
REQUIRED_FREQUENCY_HZ = 400e6

_GRANULARITY_SHIFT = {"page": PAGE_SHIFT, "word": WORD_SHIFT}


class TopKTracker(abc.ABC):
    """Common shell: address keying, query/reset, statistics."""

    def __init__(self, k: int, granularity: str = "page") -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if granularity not in _GRANULARITY_SHIFT:
            raise ValueError("granularity must be 'page' or 'word'")
        self.k = int(k)
        self.granularity = granularity
        self._shift = np.uint64(_GRANULARITY_SHIFT[granularity])
        self.accesses_observed = 0
        self.queries_served = 0

    def _keys_of(self, addresses: np.ndarray) -> np.ndarray:
        pa = np.atleast_1d(np.asarray(addresses, dtype=np.uint64))
        return pa >> self._shift

    def observe(self, addresses: np.ndarray) -> None:
        """Snoop a batch of physical byte addresses."""
        keys = self._keys_of(addresses)
        if keys.size == 0:
            return
        self.accesses_observed += int(keys.size)
        self._ingest(keys)

    def observe_batch(self, batch: Any) -> None:
        """Snoop a pre-digested :class:`~repro.cxl.batch.AccessBatch`.

        Equivalent to ``observe(batch.addresses)`` but lets trackers
        reuse the batch's memoized ``np.unique`` results instead of
        re-deriving them per snoop.
        """
        if batch.size == 0:
            return
        self.accesses_observed += int(batch.size)
        self._ingest_batch(batch)

    def _ingest_batch(self, batch: Any) -> None:
        # Default: no unique-reuse possible; fall back to raw keys.
        self._ingest(self._keys_of(batch.addresses))

    @abc.abstractmethod
    def _ingest(self, keys: np.ndarray) -> None: ...

    @abc.abstractmethod
    def _snapshot(self) -> List[Tuple[int, int]]: ...

    @abc.abstractmethod
    def _reset_units(self) -> None: ...

    def query(self) -> List[Tuple[int, int]]:
        """Return top-K (key, count) hottest-first and reset for the
        next epoch."""
        result = self._snapshot()
        self._reset_units()
        self.queries_served += 1
        return result

    def peek(self) -> List[Tuple[int, int]]:
        """Non-destructive read of the current top-K."""
        return self._snapshot()


class CmSketchTopK(TopKTracker):
    """The M5 tracker: CM-Sketch estimator + K-entry sorted CAM.

    Args:
        k: CAM entries (top-K).
        num_counters: N = H × W total sketch counters (the §7.1 design
            parameter; paper deploys N = 32K, H = 4).
        depth: H.
        conservative: forward CM-Sketch conservative-update option.

    Each chunk updates the sketch in bulk and offers the chunk's unique
    keys to the CAM with their post-chunk estimates.  Against the
    hardware's one-access-at-a-time semantics the counter state is
    identical and top-K selection matches closely (the ``sketch``
    oracle in :mod:`repro.verify` bounds the drift), while running
    orders of magnitude faster in Python.
    """

    def __init__(
        self,
        k: int,
        num_counters: int = 32 * 1024,
        depth: int = DEFAULT_DEPTH,
        granularity: str = "page",
        conservative: bool = False,
    ) -> None:
        super().__init__(k, granularity)
        if num_counters < depth:
            raise ValueError("num_counters must be >= depth")
        width = max(1, num_counters // depth)
        self.sketch = CountMinSketch(width, depth, conservative=conservative)
        self.cam = SortedCam(k)

    @property
    def num_counters(self) -> int:
        return self.sketch.num_counters

    def _ingest(self, keys: np.ndarray) -> None:
        uniques, counts = np.unique(keys, return_counts=True)
        self._ingest_uniques(uniques, counts)

    def _ingest_batch(self, batch: Any) -> None:
        uniques, counts = batch.unique_keys(int(self._shift))
        self._ingest_uniques(uniques, counts)

    def _ingest_uniques(self, uniques: np.ndarray, counts: np.ndarray) -> None:
        self.sketch.update_batch(uniques, counts)
        estimates = self.sketch.estimate(uniques)
        # Offer hottest-first so CAM admission under a full table
        # mirrors what the sequential stream would converge to.
        order = np.argsort(-estimates.astype(np.int64), kind="stable")
        self.cam.offer_batch(uniques[order], estimates[order])

    def _snapshot(self) -> List[Tuple[int, int]]:
        return self.cam.entries()

    def _reset_units(self) -> None:
        self.sketch.reset()
        self.cam.reset()


class SpaceSavingTopK(TopKTracker):
    """Space-Saving tracker: an N-entry CAM doubling as the estimator.

    The CAM complexity caps N under the 400 MHz constraint (50 on the
    Agilex-7 FPGA, ~2K in 7nm ASIC — see :mod:`repro.core.hwcost`),
    which is the central trade-off of §7.1.
    """

    def __init__(
        self,
        k: int,
        capacity: int = 50,
        granularity: str = "page",
    ) -> None:
        super().__init__(k, granularity)
        if capacity < k:
            raise ValueError("capacity must be >= k")
        self.summary = SpaceSaving(capacity)

    @property
    def capacity(self) -> int:
        return self.summary.capacity

    def _ingest(self, keys: np.ndarray) -> None:
        # Run-length compress the chunk, preserving first-appearance
        # order (weighted Space-Saving).
        uniques, first_pos, counts = np.unique(
            keys, return_index=True, return_counts=True
        )
        order = np.argsort(first_pos, kind="stable")
        self.summary.update_batch(uniques[order], counts[order])

    def _ingest_batch(self, batch: Any) -> None:
        self.summary.update_batch(*batch.unique_keys_ordered(int(self._shift)))

    def _snapshot(self) -> List[Tuple[int, int]]:
        return self.summary.top_k(self.k)

    def _reset_units(self) -> None:
        self.summary.reset()


class MisraGriesTopK(SpaceSavingTopK):
    """Misra–Gries tracker: the decrement-on-miss CAM variant.

    Mithril-family Row-Hammer trackers use this scheme; included as
    the counter-based design point that *under*estimates instead of
    overestimating.
    """

    def __init__(
        self,
        k: int,
        capacity: int = 50,
        granularity: str = "page",
    ) -> None:
        super().__init__(k, capacity=capacity, granularity=granularity)
        self.summary = MisraGries(capacity)


class ExactTopK(TopKTracker):
    """Oracle tracker keeping exact counts for every key (PAC-grade).

    Not realisable in tracker hardware at scale (that is PAC's offline
    role); used as an upper bound and for differential testing.
    """

    def __init__(self, k: int, granularity: str = "page") -> None:
        super().__init__(k, granularity)
        self._counts: dict = {}

    def _ingest(self, keys: np.ndarray) -> None:
        uniques, counts = np.unique(keys, return_counts=True)
        self._ingest_uniques(uniques, counts)

    def _ingest_batch(self, batch: Any) -> None:
        self._ingest_uniques(*batch.unique_keys(int(self._shift)))

    def _ingest_uniques(self, uniques: np.ndarray, counts: np.ndarray) -> None:
        self._counts = merge_counts(self._counts, uniques, counts)

    def _snapshot(self) -> List[Tuple[int, int]]:
        items = sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return items[: self.k]

    def _reset_units(self) -> None:
        self._counts.clear()


def make_hpt(
    k: int = 5,
    algorithm: str = "cm-sketch",
    num_counters: int = 32 * 1024,
    **kwargs: Any,
) -> TopKTracker:
    """Build a Hot-Page Tracker with the paper's defaults."""
    return _make(k, algorithm, num_counters, granularity="page", **kwargs)


def make_hwt(
    k: int = 5,
    algorithm: str = "cm-sketch",
    num_counters: int = 32 * 1024,
    **kwargs: Any,
) -> TopKTracker:
    """Build a Hot-Word Tracker with the paper's defaults."""
    return _make(k, algorithm, num_counters, granularity="word", **kwargs)


def _make(
    k: int,
    algorithm: str,
    num_counters: int,
    granularity: str,
    **kwargs: Any,
) -> TopKTracker:
    if algorithm == "cm-sketch":
        return CmSketchTopK(
            k, num_counters=num_counters, granularity=granularity, **kwargs
        )
    if algorithm == "space-saving":
        return SpaceSavingTopK(
            k, capacity=num_counters, granularity=granularity, **kwargs
        )
    if algorithm == "misra-gries":
        return MisraGriesTopK(
            k, capacity=num_counters, granularity=granularity, **kwargs
        )
    if algorithm == "exact":
        return ExactTopK(k, granularity=granularity, **kwargs)
    raise ValueError(f"unknown tracker algorithm {algorithm!r}")
