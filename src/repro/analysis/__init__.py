"""Analysis metrics: the tracker-sweep ratio (§7.1), word sparsity
(Fig 4), per-page access CDFs and the migration break-even (Fig 10,
§7.2), and table rendering for the harnesses.

The §4.1 access-count ratio of a whole run is
:func:`repro.sim.access_count_ratio`; the Fig. 9 score is
:func:`repro.sim.normalized`.  Per-epoch columns of
``RunResult.timeline`` live in :mod:`repro.analysis.timeline`.
"""

from repro.analysis.cdf import AccessCdf, breakeven_migration_accesses
from repro.analysis.ratio import tracker_ratio
from repro.analysis.sparsity import from_wac
from repro.analysis.tables import print_table, render_series, render_table

__all__ = [
    "AccessCdf",
    "breakeven_migration_accesses",
    "tracker_ratio",
    "from_wac",
    "print_table",
    "render_series",
    "render_table",
]
