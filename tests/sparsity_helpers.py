"""Word sparsity measured straight from an address trace.

The package measures Fig. 4 sparsity from a WAC that snooped the run
(:func:`repro.analysis.from_wac`).  The tests use this trace-side
count as its oracle and to check the generators' word patterns.
"""

import numpy as np

from repro.analysis.sparsity import SparsityProfile
from repro.memory.address import WORD_SHIFT, WORDS_PER_PAGE
from repro.workloads.wordmap import SPARSITY_THRESHOLDS


def from_trace(benchmark: str, addresses: np.ndarray) -> SparsityProfile:
    """Measure sparsity directly from a logical/physical trace."""
    pa = np.asarray(addresses, dtype=np.uint64)
    lines = np.unique(pa >> np.uint64(WORD_SHIFT))
    pages, counts = np.unique(lines >> np.uint64(6), return_counts=True)
    counts = np.minimum(counts, WORDS_PER_PAGE)
    probs = {
        n: (float((counts <= n).mean()) if counts.size else 0.0)
        for n in SPARSITY_THRESHOLDS
    }
    return SparsityProfile(
        benchmark=benchmark, probabilities=probs, pages_observed=int(pages.size)
    )
