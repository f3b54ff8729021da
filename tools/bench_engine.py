#!/usr/bin/env python
"""Engine gate: the vectorized hot path must beat the reference models.

Runs the same (bench, policy, seed) simulation ``--repeats`` times per
leg — ``reference`` (the per-access models of
``repro.verify.reference``, one Python iteration per access, bound by
``as_reference``) and ``batched`` (the production pipeline, numpy
arrays end-to-end) — interleaved so CPU frequency drift hits both legs
equally, compares median wall-clock times, and exits non-zero when the
end-to-end speedup falls below ``--min-speedup``.

Also asserts the two legs are bit-identical (same RunResult fields,
same hot-page sets, same checkpoint ratios — vectorizing may only
change *how fast* an epoch is computed, never *what* it computes) and
records per-stage accesses/sec from one traced run per leg (excluded
from the timing legs) to ``BENCH_engine.json`` at the repo root.  A
``--smoke`` run writes ``bench-engine-smoke.json`` in the temp directory
instead, so it never overwrites the full-size record.

Usage::

    PYTHONPATH=src python tools/bench_engine.py [--smoke] [--min-speedup 10]
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bench_common import cpu_count, write_record  # noqa: E402

from repro.obs import Observability  # noqa: E402
from repro.sim import SimConfig, Simulation  # noqa: E402
from repro.verify import as_reference  # noqa: E402
from repro.workloads import registry  # noqa: E402

ENGINES = ("reference", "batched")

#: RunResult fields compared for bit-identity across engines.
IDENTITY_FIELDS = (
    "execution_time_s",
    "app_time_s",
    "overhead_time_s",
    "migration_time_s",
    "p99_latency_us",
    "promoted",
    "demoted",
    "nr_pages_ddr",
    "nr_pages_cxl",
)


def one_run(args, engine, obs=None):
    workload = registry.build(args.bench, seed=args.seed)
    config = SimConfig(
        total_accesses=args.accesses,
        chunk_size=args.chunk,
        trace_subsample=64.0,
        checkpoints=1,
    )
    sim = Simulation(workload, config, policy=args.policy,
                     enable_wac=True, obs=obs)
    if engine == "reference":
        as_reference(sim)
    start = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - start, result


def stage_rates(args, engine):
    """Per-stage accesses/sec from one traced run (not timed)."""
    obs = Observability(metrics=True, tracing=True)
    _, _ = one_run(args, engine, obs=obs)
    rates = {}
    for row in obs.flame_table():
        if not row["name"].startswith("stage."):
            continue
        stage = row["name"][len("stage."):]
        rates[stage] = {
            "total_s": round(row["total_s"], 6),
            "accesses_per_s": (
                round(args.accesses / row["total_s"])
                if row["total_s"] > 0 else None
            ),
        }
    return rates


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", default="mcf")
    parser.add_argument("--policy", default="m5-hpt+hwt")
    parser.add_argument("--accesses", type=int, default=400_000)
    parser.add_argument("--chunk", type=int, default=16_384)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per leg; the median is compared")
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="required end-to-end batched speedup")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: fewer accesses and repeats")
    parser.add_argument("--output", help="record path (default: BENCH_engine.json at "
                        "the repo root; bench-engine-smoke.json in the temp directory "
                        "with --smoke)")
    args = parser.parse_args()
    if args.smoke:
        args.accesses = min(args.accesses, 200_000)
        args.repeats = min(args.repeats, 3)
    if args.output is None:
        args.output = (os.path.join(tempfile.gettempdir(), "bench-engine-smoke.json")
                       if args.smoke else
                       os.path.join(os.path.dirname(__file__), "..", "BENCH_engine.json"))

    # warm-up: first run pays numpy/import costs, charged to no leg
    one_run(args, "batched")
    times = {engine: [] for engine in ENGINES}
    results = {}
    for _ in range(args.repeats):
        for engine in ENGINES:
            elapsed, result = one_run(args, engine)
            times[engine].append(elapsed)
            results[engine] = result

    medians = {engine: statistics.median(ts) for engine, ts in times.items()}
    speedup = (medians["reference"] / medians["batched"]
               if medians["batched"] > 0 else float("inf"))
    for engine in ENGINES:
        rate = args.accesses / medians[engine] if medians[engine] else 0.0
        print(f"{engine:>10s}: {medians[engine]:7.3f} s "
              f"({rate:12,.0f} accesses/s)")
    print(f"   speedup: {speedup:7.2f}x  (gate: {args.min_speedup:.1f}x)")

    ref, fast = results["reference"], results["batched"]
    mismatched = [f for f in IDENTITY_FIELDS
                  if getattr(ref, f) != getattr(fast, f)]
    if tuple(ref.hot_pfns) != tuple(fast.hot_pfns):
        mismatched.append("hot_pfns")
    if ref.ratio_checkpoints != fast.ratio_checkpoints:
        mismatched.append("ratio_checkpoints")
    if mismatched:
        print(f"FAIL: legs disagree on {', '.join(mismatched)} — "
              "the vectorized kernels must not change results")
        return 1
    print("legs bit-identical: True")

    record = {
        "bench": args.bench,
        "policy": args.policy,
        "accesses": args.accesses,
        "chunk": args.chunk,
        "seed": args.seed,
        "repeats": args.repeats,
        "cpu_count": cpu_count(),
        "reference_s": round(medians["reference"], 3),
        "batched_s": round(medians["batched"], 3),
        "speedup": round(speedup, 3),
        "min_speedup": args.min_speedup,
        "identical": True,
        "stages": {engine: stage_rates(args, engine) for engine in ENGINES},
    }
    write_record(args.output, record)

    if speedup < args.min_speedup:
        print(f"FAIL: batched speedup {speedup:.2f}x below the "
              f"{args.min_speedup:.1f}x gate")
        return 1
    print(f"OK: batched is {speedup:.2f}x faster than the reference models")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
