"""Shared plumbing for the experiment benchmarks.

Each ``benchmarks/test_*`` module regenerates one table or figure of
the paper.  Experiments run once (``benchmark.pedantic`` with a single
round — they are deterministic simulations, not microbenchmarks), the
regenerated rows/series are printed AND written to
``benchmarks/results/<name>.txt``, and the paper's qualitative shape
is asserted.
"""

from __future__ import annotations

import os

from repro.analysis import render_series, render_table
from repro.sim import SimConfig

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def ratio_config(total_accesses: int = 800_000, **kw) -> SimConfig:
    """Identification-only config used by the access-count-ratio
    experiments (Figures 3 and 8)."""
    defaults = dict(
        total_accesses=total_accesses,
        chunk_size=65_536,
        migrate=False,
        checkpoints=10,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def end_to_end_config(total_accesses: int = 1_500_000, **kw) -> SimConfig:
    """Migration-enabled config for the Figure 9 runs.

    ``trace_subsample = 64`` stretches the simulated wall-clock so the
    one-time DDR fill is amortised the way the paper's minutes-long
    runs amortise it.
    """
    defaults = dict(
        total_accesses=total_accesses,
        chunk_size=16_384,
        trace_subsample=64.0,
        checkpoints=1,
        migration_batch=512,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text)


def emit_table(name, title, headers, rows, precision=3, col_width=None):
    emit(name, render_table(title, headers, rows, precision, col_width))


def emit_series(name, title, pairs, precision=3):
    emit(name, render_series(title, pairs, precision))


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
