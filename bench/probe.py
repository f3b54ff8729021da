"""Host-speed probe: a fixed plain numpy + Python workload.

The benchmark's host is shared, and its speed changes while a run is
in progress: a neighbour's load can make cache-resident interpreter
code 1.6 times slower for seconds at a time, while memory-bound numpy
work slows only about 1.25 times.  A probe taken once before a run
cannot see that, so each child runs this short probe before the first
step of its run and again after every step, and a step is scaled by
``PROBE_REF_S`` over the mean of the two probes around it.

For that scaling to cancel a slow stretch, the probe has to slow as
much as the simulator does, so it mixes the simulator's own kinds of
work in similar proportions: a sort-based ``np.unique`` digest (what
``AccessBatch`` and the policies do per epoch), an ``np.lexsort``
victim search (MGLRU), a zlib decode (v2 traces) and an interpreter
loop over a dict (per-epoch bookkeeping).  Its arrays stay under
200 KB, far below any run's peak RSS.

The probe must measure the host and nothing else: it imports nothing
from ``repro``, so no change under test can move it.
"""

from __future__ import annotations

import time
import zlib
from typing import Callable

import numpy as np

#: Median probe time on the reference host (2-vCPU Intel Xeon VM,
#: Python 3.11, numpy 2.4): the anchor every calibrated time is
#: expressed against.  Fixed, because changing it rescales every
#: calibrated host metric.
PROBE_REF_S = 0.0016

_rng = np.random.default_rng(0x5EED)
_KEYS = _rng.integers(0, 1 << 24, size=1 << 14, dtype=np.uint64)
_GENS = _rng.integers(0, 4, size=3072)
_HEAT = _rng.random(3072)
_PAGES = np.arange(3072)
_BLOB = zlib.compress(_rng.integers(0, 1 << 20, size=1 << 14, dtype=np.uint64).tobytes(), 6)
_LOOP = 5_000
del _rng


def probe_s(clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds the fixed probe workload takes on the host right now."""
    t0 = clock()
    np.unique(_KEYS, return_counts=True)
    np.lexsort((_PAGES, _HEAT, _GENS))
    zlib.decompress(_BLOB)
    table: dict = {}
    for i in range(_LOOP):
        k = i & 1023
        table[k] = table.get(k, 0) + 1
    return clock() - t0
