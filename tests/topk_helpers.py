"""Read-back queries on the CM-Sketch and the sorted CAM.

The trackers take a chunk's estimates from ``CountMinSketch.update_batch``
and answer an M5-manager query with ``SortedCam.entries``; nothing else
in the package reads either unit.  The tests that probe a unit's state
directly use these.
"""

import numpy as np

from repro.core.sketch import CountMinSketch
from repro.core.topk import SortedCam


def estimate(sketch: CountMinSketch, keys) -> np.ndarray:
    """Point-query estimates (min over rows) for one or more keys."""
    idx = sketch._hash(np.atleast_1d(np.asarray(keys, dtype=np.uint64)))
    return sketch.table[np.arange(sketch.depth)[:, None], idx].min(axis=0)


def estimate_one(sketch: CountMinSketch, key: int) -> int:
    return int(estimate(sketch, key)[0])


def error_bound(sketch: CountMinSketch, confidence_scale: float = np.e) -> float:
    """Classic CM-Sketch overestimate bound εN with ε = e/W."""
    return confidence_scale / sketch.width * sketch.items_seen


def tracks(cam: SortedCam, address: int) -> bool:
    return int(address) in cam._entries


def count_of(cam: SortedCam, address: int) -> int:
    return cam._entries.get(int(address), 0)


def table_min(cam: SortedCam) -> int:
    """Smallest tracked count (0 when the table has free entries)."""
    if len(cam) < cam.k:
        return 0
    return min(cam._entries.values())


def addresses(cam: SortedCam) -> list:
    """Tracked addresses, hottest first."""
    return [addr for addr, _ in cam.entries()]


def replacement_rate(cam: SortedCam) -> float:
    """Fraction of offers that evicted a full-table minimum."""
    return cam.replacements / cam.offers if cam.offers else 0.0
