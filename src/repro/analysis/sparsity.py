"""Word-sparsity analysis (Figure 4).

Given WAC's per-word counts, compute the probability that a page has
at most N unique 64B words accessed, on the paper's threshold grid
{4, 8, 16, 32, 48} — i.e. {6.25%, 12.5%, 25%, 50%, 75%} of the 64
words in a 4KB page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cxl.wac import WordAccessCounter
from repro.workloads.wordmap import SPARSITY_THRESHOLDS


@dataclass(frozen=True)
class SparsityProfile:
    """P(page has ≤ N unique words accessed) per threshold."""

    benchmark: str
    probabilities: Dict[int, float]
    pages_observed: int

    def at(self, threshold: int) -> float:
        return self.probabilities[threshold]

    @property
    def mostly_sparse(self) -> bool:
        """The Redis-class criterion: most pages ≤ 25% words touched."""
        return self.probabilities.get(16, 0.0) > 0.5

    @property
    def mostly_dense(self) -> bool:
        """The SPEC-class criterion: ≥75% of words accessed in most
        pages (P(≤48 words) small)."""
        return self.probabilities.get(48, 1.0) < 0.25


def from_wac(
    benchmark: str, wac: WordAccessCounter, min_accesses: int = 1
) -> SparsityProfile:
    """Measure sparsity from a WAC that observed the run.

    ``min_accesses`` filters to pages accessed often enough for their
    word-usage pattern to be observable (see
    :meth:`WordAccessCounter.unique_words_per_page`).
    """
    uniques = wac.unique_words_per_page(min_accesses)
    touched = uniques[uniques > 0]
    probs = {
        n: (float((touched <= n).mean()) if touched.size else 0.0)
        for n in SPARSITY_THRESHOLDS
    }
    return SparsityProfile(
        benchmark=benchmark, probabilities=probs, pages_observed=int(touched.size)
    )
