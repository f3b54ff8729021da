"""Nominator: turning HPT/HWT output into migration candidates
(paper §5.2 ②).

Nominator maintains two structures fed by the trackers' D2H updates:

* ``_HPA`` — hot-page entries: PFN, access count, and a 64-bit word
  mask whose bits mark which of the page's 64 words were observed hot;
* ``_HWA`` — hot-word addresses (64B line indices) with counts.

Three nomination mechanisms are provided:

* **HPT-only** — nominate straight from the hot-page list;
* **HPT-driven** — take HPT's pages, then mark each page's mask bits
  from the hot words that fall inside it; a policy can then prefer
  dense pages (Guideline 3: good for mixed dense/sparse apps such as
  roms and liblinear);
* **HWT-driven** — ignore HPT, build ``_HPA`` purely from hot-word
  addresses; the mask doubles as the access count (Guideline 4: good
  for sparse-only apps such as Redis and CacheLib).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.memory.address import WORDS_PER_PAGE_SHIFT, WORDS_PER_PAGE

#: Nomination mechanisms (paper names).
HPT_ONLY = "hpt-only"
HPT_DRIVEN = "hpt-driven"
HWT_DRIVEN = "hwt-driven"
MODES = (HPT_ONLY, HPT_DRIVEN, HWT_DRIVEN)


@dataclass
class HpaEntry:
    """One ``_HPA`` entry: a candidate hot page."""

    pfn: int
    count: int = 0
    mask: int = 0  # 64-bit hot-word bitmap

    @property
    def hot_words(self) -> int:
        """Population count of the mask — the page's density signal."""
        return bin(self.mask & ((1 << WORDS_PER_PAGE) - 1)).count("1")


@dataclass
class Nomination:
    """Nominator output handed to Elector/Promoter."""

    pfns: List[int] = field(default_factory=list)
    entries: List[HpaEntry] = field(default_factory=list)


class Nominator:
    """Aggregates tracker queries and nominates pages to migrate.

    Args:
        mode: one of ``hpt-only``, ``hpt-driven``, ``hwt-driven``.
        min_hot_words: density filter for HPT-driven mode — a page is
            nominated ahead of others once at least this many mask
            bits are set (0 disables filtering).
    """

    def __init__(self, mode: str = HPT_ONLY, min_hot_words: int = 0) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not 0 <= min_hot_words <= WORDS_PER_PAGE:
            raise ValueError("min_hot_words must be in [0, 64]")
        self.mode = mode
        self.min_hot_words = int(min_hot_words)
        self._hpa: Dict[int, HpaEntry] = {}
        self._hwa: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # D2H update path (trackers push their query results here)

    def update_from_hpt(self, entries: Sequence[Tuple[int, int]]) -> None:
        """Ingest an HPT query: (PFN, estimated count) pairs."""
        if self.mode == HWT_DRIVEN:
            # HWT-driven Nominator "starts with an empty list of _HPA
            # and uses only hot-word addresses" — HPT input is unused.
            return
        for pfn, count in entries:
            entry = self._hpa.get(int(pfn))
            if entry is None:
                self._hpa[int(pfn)] = HpaEntry(pfn=int(pfn), count=int(count))
            else:
                entry.count = max(entry.count, int(count))

    def update_from_hwt(self, entries: Sequence[Tuple[int, int]]) -> None:
        """Ingest an HWT query: (64B line index, estimated count) pairs."""
        if self.mode == HPT_ONLY:
            return
        for line, count in entries:
            line = int(line)
            self._hwa[line] = self._hwa.get(line, 0) + int(count)
            pfn = line >> WORDS_PER_PAGE_SHIFT
            bit = 1 << (line & (WORDS_PER_PAGE - 1))
            if self.mode == HPT_DRIVEN:
                # Only mark masks of pages HPT already nominated.
                entry = self._hpa.get(pfn)
                if entry is not None:
                    entry.mask |= bit
            else:  # HWT_DRIVEN
                entry = self._hpa.get(pfn)
                if entry is None:
                    # "adds the page address ... and sets the 64-bit
                    # mask, which serves as an access count, to one"
                    self._hpa[pfn] = HpaEntry(pfn=pfn, count=int(count), mask=bit)
                else:
                    entry.count += int(count)
                    entry.mask |= bit

    # ------------------------------------------------------------------
    # nomination

    def nominate(self, limit: Optional[int] = None) -> Nomination:
        """Produce the migration candidate list, hottest first.

        In HPT-driven mode, pages meeting the ``min_hot_words``
        density threshold rank ahead of sparser pages of equal count.
        Consumes (clears) the accumulated state, matching the
        query-and-reset flow of the trackers.
        """
        entries = list(self._hpa.values())
        if self.mode == HPT_DRIVEN and self.min_hot_words > 0:
            entries.sort(
                key=lambda e: (
                    -(e.hot_words >= self.min_hot_words),
                    -e.count,
                    e.pfn,
                )
            )
        else:
            entries.sort(key=lambda e: (-e.count, e.pfn))
        if limit is not None:
            entries = entries[: int(limit)]
        self._hpa.clear()
        self._hwa.clear()
        return Nomination(pfns=[e.pfn for e in entries], entries=entries)

    # ------------------------------------------------------------------
    # introspection helpers (used by tests and examples)

    @property
    def hpa(self) -> Dict[int, HpaEntry]:
        return self._hpa

    def density_of(self, pfn: int) -> int:
        entry = self._hpa.get(int(pfn))
        return entry.hot_words if entry else 0
