"""Analysis metrics: access-count ratio (§4.1), word sparsity (Fig 4),
per-page access CDFs (Fig 10), and table rendering for the harnesses."""

from repro.analysis.cdf import (
    AccessCdf,
    breakeven_migration_accesses,
    migration_worthwhile,
)
from repro.analysis.ratio import (
    RatioReport,
    best_cpu_driven,
    k_access_count,
    ratio,
    summarize,
    tracker_ratio,
)
from repro.analysis.sparsity import (
    SparsityProfile,
    dense_page_fraction,
    figure4_row,
    from_trace,
    from_wac,
)
from repro.analysis.figures import (
    export_cdf_curves,
    export_ratio_bars,
    export_series,
    export_sparsity,
    write_csv,
)
from repro.analysis.tables import print_series, print_table, render_series, render_table
from repro.analysis.timeline import migration_outcomes, pivot, timeline_frame

__all__ = [
    "AccessCdf",
    "breakeven_migration_accesses",
    "migration_worthwhile",
    "RatioReport",
    "best_cpu_driven",
    "k_access_count",
    "ratio",
    "summarize",
    "tracker_ratio",
    "SparsityProfile",
    "dense_page_fraction",
    "figure4_row",
    "from_trace",
    "from_wac",
    "print_series",
    "print_table",
    "render_series",
    "render_table",
    "export_cdf_curves",
    "export_ratio_bars",
    "export_series",
    "export_sparsity",
    "write_csv",
    "migration_outcomes",
    "pivot",
    "timeline_frame",
]
