"""Experiment sweep utilities: the parallel benchmark × policy matrix.

Orchestration shared by the benchmark harnesses, the CLI, and user
scripts: run a benchmark × policy matrix (serially or across worker
processes), normalise against the no-migration baseline, and collect
results keyed for export.

Determinism: every cell's outcome is a pure function of ``(bench,
policy, seed, config)`` — the per-cell seed is derived up front with
:func:`cell_seed`, never from scheduling order — so ``jobs=N``
produces bit-identical matrices for any ``N``.  The ``"none"``
baseline runs once per benchmark and its :class:`RunResult` is reused
both for normalisation and for the ``"none"`` matrix cell when that
policy is requested explicitly.

Note for parallel runs: ``config_factory`` (and ``m5_options``) cross
a process boundary, so they must be picklable — a module-level
function or a ``functools.partial`` over :class:`SimConfig` both
work; a lambda or closure does not.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs import Observability
from repro.sim.config import SimConfig
from repro.sim.engine import M5Options, RunResult, Simulation
from repro.workloads import registry


def cell_seed(seed: int, bench: str, tenant: int = 0) -> int:
    """Deterministic per-benchmark (and per-tenant) seed.

    Derived from the matrix seed and the benchmark name only — every
    policy in a row (including the ``"none"`` baseline it is
    normalised against) sees the same workload trace, and the value
    is independent of execution order, so serial and parallel sweeps
    agree bit-for-bit.

    Fleet cells also fold in the tenant id, so two tenants running
    the same benchmark cannot collide onto one trace.  ``tenant=0``
    hashes exactly the historical token, keeping every existing
    single-run and sweep seed unchanged.
    """
    token = bench if tenant == 0 else f"tenant{int(tenant)}/{bench}"
    return (int(seed) + zlib.crc32(token.encode())) & 0x7FFFFFFF


def run_one(
    bench: str,
    policy: str,
    config: SimConfig,
    seed: int = 1,
    m5_options: Optional[M5Options] = None,
    pages_per_gb: Optional[int] = None,
    with_metrics: bool = False,
) -> RunResult:
    """Build the benchmark fresh and run it under one policy.

    ``with_metrics=True`` runs the cell with the metrics registry
    enabled (tracing stays off — span timing is meaningless when the
    matrix fans out over loaded worker processes) and attaches the
    snapshot to ``RunResult.metrics``.  A plain bool rather than an
    ``Observability`` object so matrix cells stay picklable.
    """
    workload = registry.build(
        bench, seed=seed, pages_per_gb=pages_per_gb or registry.PAGES_PER_GB
    )
    obs = Observability(metrics=True, tracing=False) if with_metrics else None
    sim = Simulation(
        workload, config, policy=policy, m5_options=m5_options, obs=obs
    )
    return sim.run()


def normalized(base: RunResult, result: RunResult) -> float:
    """Figure 9's score: inverse p99 for latency-sensitive workloads,
    inverse execution time otherwise.

    A missing p99 (``None`` — the workload is not latency-sensitive)
    falls back to execution time; a *measured* p99 of exactly zero is
    a corrupt result and raises instead of silently switching metric.
    """
    if base.p99_latency_us is not None and result.p99_latency_us is not None:
        if base.p99_latency_us == 0.0 or result.p99_latency_us == 0.0:
            raise ValueError(
                "p99 latency measured as 0.0 "
                f"(base={base.p99_latency_us!r}, result={result.p99_latency_us!r}); "
                "a zero measurement is invalid — use p99=None for "
                "workloads without a latency metric"
            )
        return base.p99_latency_us / result.p99_latency_us
    return base.execution_time_s / result.execution_time_s


#: One matrix cell: (bench, policy, config, seed, m5_options,
#: with_metrics).
_Cell = Tuple[str, str, SimConfig, int, Optional[M5Options], bool]


def _run_cell(cell: _Cell) -> RunResult:
    """Process-pool entry point for one matrix cell."""
    bench, policy, config, seed, m5_options, with_metrics = cell
    return run_one(
        bench, policy, config, seed=seed, m5_options=m5_options,
        with_metrics=with_metrics,
    )


def collect_matrix(
    benches: Iterable[str],
    policies: Iterable[str],
    config_factory: Callable[[], SimConfig],
    seed: int = 1,
    m5_options: Optional[M5Options] = None,
    jobs: int = 1,
    with_metrics: bool = False,
    on_result: Optional[Callable[[str, str, RunResult], None]] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """Run every (bench, policy) pair; returns the raw results.

    The ``"none"`` baseline is added to every row exactly once (and
    reused for the ``"none"`` cell if requested).  ``jobs > 1`` fans
    the cells out over a :class:`ProcessPoolExecutor`; results are
    keyed by cell, so scheduling order cannot change the outcome.
    ``with_metrics`` enables the per-cell metrics registry, so every
    ``RunResult.metrics`` carries the cell's snapshot (aggregated by
    ``repro sweep --metrics``).

    ``on_result(bench, policy, result)`` is invoked in the parent
    process as each cell lands (completion order, not matrix order) —
    the hook ``repro sweep --serve`` uses to merge cell snapshots into
    its live aggregate registry mid-sweep.  The hook never crosses the
    process boundary, so it may close over unpicklable state.
    """
    benches = list(benches)
    policies = list(policies)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    cells: List[_Cell] = []
    for bench in benches:
        row_seed = cell_seed(seed, bench)
        row_policies = ["none"] + [p for p in policies if p != "none"]
        for policy in row_policies:
            cells.append(
                (bench, policy, config_factory(), row_seed, m5_options,
                 with_metrics)
            )

    if jobs == 1 or len(cells) <= 1:
        outcomes = []
        for cell in cells:
            outcome = _run_cell(cell)
            if on_result is not None:
                on_result(cell[0], cell[1], outcome)
            outcomes.append(outcome)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = []
            for cell, outcome in zip(cells, pool.map(_run_cell, cells)):
                if on_result is not None:
                    on_result(cell[0], cell[1], outcome)
                outcomes.append(outcome)

    results: Dict[str, Dict[str, RunResult]] = {b: {} for b in benches}
    for (bench, policy, *_), outcome in zip(cells, outcomes):
        results[bench][policy] = outcome
    return results


def matrix_means(matrix: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Per-policy means over the benchmark axis."""
    policies = sorted({p for row in matrix.values() for p in row})
    return {
        p: sum(row[p] for row in matrix.values() if p in row)
        / sum(1 for row in matrix.values() if p in row)
        for p in policies
    }
