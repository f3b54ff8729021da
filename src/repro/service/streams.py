"""Stream ingestion for the service daemon.

A service stream couples a *source* (a trace file — v2 streaming
format or v1 ``.npz`` — possibly still being written) to a *buffer*
(:class:`StreamWorkload`, the bounded FIFO the epoch engine consumes
from).  The split matters for checkpointing: the buffer and its
bookkeeping live inside the stream's :class:`~repro.sim.Simulation`
object graph and pickle with it, while the source (an open file
handle) stays outside and is re-opened and repositioned from the
chunk count in the service checkpoint on resume.

Backpressure reuses the bounded-queue discipline of the migration
subsystem: :meth:`StreamWorkload.feed` accepts chunks only while the
buffer holds fewer than ``capacity`` addresses, and the ingest loop
simply stops pulling from the source until the engine drains it —
nothing is dropped, the *file* is the queue's overflow.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.workloads.base import DEFAULT_CHUNK, TraceGenerator, WorkloadSpec


class StreamEmpty(RuntimeError):
    """The engine asked for more addresses than the buffer holds.

    The service scheduler never lets this happen (it sizes each
    round's drive budget by :attr:`StreamWorkload.buffered`); seeing
    it means a driver bug, not a data condition.
    """


class StreamWorkload(TraceGenerator):
    """A bounded FIFO of ingested addresses behind the
    :class:`~repro.workloads.base.TraceGenerator` interface.

    The engine's trace stage calls :meth:`chunk`; the service's
    ingest loop calls :meth:`feed`.  Unlike the synthetic generators
    this workload is *finite and externally fed*: the scheduler must
    only drive as many accesses as are buffered.

    Picklable by design — the buffer is part of a checkpointed
    simulation's object graph, so in-flight (ingested but not yet
    consumed) addresses survive a kill/resume without re-reading
    them from the source.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        capacity: int = 1 << 22,
    ) -> None:
        super().__init__(spec, seed=0)
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._parts: List[np.ndarray] = []
        self._head = 0  # consumed prefix of _parts[0]
        self._buffered = 0
        #: Lifetime totals (cross-checked against the source's
        #: ``chunks_read`` bookkeeping at checkpoint time).
        self.fed_total = 0
        self.consumed_total = 0

    # ------------------------------------------------------------------
    # producer side (the service's ingest loop)

    @property
    def buffered(self) -> int:
        """Addresses currently waiting in the buffer."""
        return self._buffered

    @property
    def free(self) -> int:
        """Room left before :meth:`feed` starts refusing chunks."""
        return max(0, self.capacity - self._buffered)

    def feed(self, chunk: np.ndarray) -> bool:
        """Enqueue one ingested chunk; False = full, try next round.

        All-or-nothing (a trace chunk is the transfer unit, mirroring
        the v2 file format), so a refused chunk is simply re-offered
        after the engine drains the buffer.  A chunk is refused only
        when the buffer already holds at least ``capacity`` addresses;
        one chunk may overshoot the capacity, which keeps progress
        possible even if a single file chunk exceeds it.
        """
        if self._buffered >= self.capacity:
            return False
        arr = np.asarray(chunk, dtype=np.uint64)
        if arr.size == 0:
            return True
        self._parts.append(arr)
        self._buffered += arr.size
        self.fed_total += arr.size
        return True

    # ------------------------------------------------------------------
    # consumer side (the epoch engine's trace stage)

    def chunk(self, chunk_size: int = DEFAULT_CHUNK) -> np.ndarray:
        take = int(chunk_size)
        if take > self._buffered:
            raise StreamEmpty(
                f"engine asked for {take} addresses but only "
                f"{self._buffered} are buffered"
            )
        out = np.empty(take, dtype=np.uint64)
        filled = 0
        while filled < take:
            part = self._parts[0]
            avail = part.size - self._head
            use = min(avail, take - filled)
            out[filled:filled + use] = part[self._head:self._head + use]
            filled += use
            self._head += use
            if self._head == part.size:
                self._parts.pop(0)
                self._head = 0
        self._buffered -= take
        self.consumed_total += take
        return out
