"""Stream ingestion for the service daemon.

A service stream couples a *source* (a chunked trace stream read by
:class:`~repro.workloads.TraceReader`, possibly still being written)
to a *buffer* (:class:`StreamWorkload`, the bounded FIFO the epoch
engine consumes from).  The split matters for checkpointing: the
buffer's bookkeeping lives inside the stream's
:class:`~repro.sim.Simulation` object graph and pickles with it, but
its addresses do not: they are copies of chunks that already sit,
CRC-checked, in the trace.  A checkpoint therefore holds the source's
read position and the number of chunks the buffer held; resume
re-opens the source, skips to the first buffered chunk and reads the
buffered chunks again (:meth:`StreamWorkload.refill`).

Backpressure reuses the bounded-queue discipline of the migration
subsystem: :meth:`StreamWorkload.feed` accepts chunks only while the
buffer holds fewer than ``capacity`` addresses, and the ingest loop
simply stops pulling from the source until the engine drains it —
nothing is dropped, the *file* is the queue's overflow.
"""

from __future__ import annotations

from typing import Dict, List

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

    A pickle carries the bookkeeping (the count of buffered chunks,
    the consumed prefix of the first, the totals) but no addresses:
    an unpickled buffer holds nothing until :meth:`refill` hands it
    those chunks again, read back from the source.
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
        the trace file format), so a refused chunk is simply re-offered
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

    # ------------------------------------------------------------------
    # checkpointing: positions, not data

    @property
    def chunks_held(self) -> int:
        """Source chunks in the buffer, the first possibly part consumed."""
        return len(self._parts)

    def __getstate__(self) -> Dict[str, object]:
        # One placeholder per buffered chunk: the count survives, the
        # addresses are read back from the source (refill).
        state = self.__dict__.copy()
        state["_parts"] = [None] * len(self._parts)
        return state

    def refill(self, chunks: List[np.ndarray]) -> None:
        """Give an unpickled buffer back the chunks it held.

        ``chunks`` are the :attr:`chunks_held` source chunks that end
        at the checkpointed read position.  Raises ``ValueError``
        unless they hold exactly the buffered addresses plus the
        consumed prefix of the first.
        """
        held = sum(int(c.size) for c in chunks)
        if len(chunks) != len(self._parts) or \
                held != self._head + self._buffered:
            raise ValueError(
                f"{len(chunks)} chunks of {held} addresses do not refill a "
                f"buffer of {len(self._parts)} chunks holding "
                f"{self._head + self._buffered}"
            )
        self._parts = [np.asarray(c, dtype=np.uint64) for c in chunks]
