#!/usr/bin/env python
"""Overhead gate: a metrics-enabled run must stay within tolerance of
an uninstrumented run.

Runs the same (bench, policy, seed) simulation ``--repeats`` times per
leg — plain, metrics-only, and metrics+tracing — interleaved so CPU
frequency drift hits every leg equally, compares median wall-clock
times, and exits non-zero when an instrumented leg exceeds
``plain * (1 + tolerance) + slack``.  The absolute slack term keeps
sub-second CI runs from failing on scheduler noise that a percentage
alone would amplify.

Also asserts the instrumented results are bit-identical to the plain
leg (observability must measure, never perturb) and that the tracer's
stage spans cover at least 95% of the root span.

An ``invariants`` leg runs with ``SimConfig.check_invariants`` on: the
per-epoch invariant catalogue gets its own (looser) budget via
``--invariant-tolerance``, and its results must likewise stay
bit-identical — checking may only observe.

An ``slo`` leg runs with ``slo_rules="default"`` (the SLO watchdog
judging every ``epoch`` record) under the standard tolerance: judging,
too, must stay within budget and bit-identical.

A ``checkpoint`` leg runs with ``checkpoint_every`` on (periodic
full-state snapshots to disk) under the standard tolerance, and its
results must be bit-identical to the plain leg: checkpointing off is
the plain leg itself, so this gate pins both halves of the contract —
off costs nothing, on stays within budget and never perturbs.

Usage::

    PYTHONPATH=src python tools/check_overhead.py [--tolerance 0.05]
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs import Observability  # noqa: E402
from repro.sim import SimConfig, Simulation  # noqa: E402
from repro.workloads import registry  # noqa: E402

#: (leg name, observability factory, check_invariants, slo, checkpoint)
LEGS = (
    ("plain", lambda: None, False, False, False),
    ("metrics", lambda: Observability(metrics=True, tracing=False), False,
     False, False),
    ("metrics+tracing", lambda: Observability(metrics=True, tracing=True),
     False, False, False),
    ("invariants", lambda: None, True, False, False),
    ("slo", lambda: None, False, True, False),
    ("checkpoint", lambda: None, False, False, True),
)


def one_run(args, obs, check_invariants=False, slo=False,
            checkpoint=False):
    workload = registry.build(args.bench, seed=args.seed)
    config = SimConfig(
        total_accesses=args.accesses,
        chunk_size=args.chunk,
        trace_subsample=64.0,
        checkpoints=1,
        check_invariants=check_invariants,
        slo_rules="default" if slo else "",
        checkpoint_every=args.checkpoint_every if checkpoint else 0,
        checkpoint_path=(os.path.join(tempfile.gettempdir(),
                                      f"overhead_gate_{os.getpid()}.ckpt")
                         if checkpoint else ""),
    )
    sim = Simulation(workload, config, policy=args.policy, obs=obs)
    start = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - start, result, obs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", default="mcf")
    parser.add_argument("--policy", default="m5-hpt")
    parser.add_argument("--accesses", type=int, default=400_000)
    parser.add_argument("--chunk", type=int, default=16_384)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per leg; the median is compared")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="allowed relative slowdown of an "
                             "instrumented leg")
    parser.add_argument("--slack-s", type=float, default=0.05,
                        help="absolute allowance on top of the "
                             "percentage, for short noisy runs")
    parser.add_argument("--invariant-tolerance", type=float, default=0.10,
                        help="allowed relative slowdown of the "
                             "check-invariants leg")
    parser.add_argument("--checkpoint-every", type=int, default=5,
                        help="checkpoint cadence (epochs) for the "
                             "checkpoint leg")
    args = parser.parse_args()

    times = {name: [] for name, _, _, _, _ in LEGS}
    results = {}
    last_obs = {}
    # warm-up: first run pays numpy/import costs, charged to no leg
    one_run(args, None)
    for _ in range(args.repeats):
        for name, make_obs, check, slo, checkpoint in LEGS:
            elapsed, result, obs = one_run(args, make_obs(), check, slo,
                                           checkpoint)
            times[name].append(elapsed)
            results[name] = result
            last_obs[name] = obs

    medians = {name: statistics.median(ts) for name, ts in times.items()}
    base = medians["plain"]
    print(f"{'leg':>16s}  {'median_s':>9s}  {'vs plain':>9s}")
    failed = []
    for name, _, _, _, _ in LEGS:
        tolerance = (args.invariant_tolerance if name == "invariants"
                     else args.tolerance)
        limit = base * (1.0 + tolerance) + args.slack_s
        ratio = medians[name] / base if base > 0 else float("inf")
        print(f"{name:>16s}  {medians[name]:9.3f}  {ratio:8.3f}x")
        if name != "plain" and medians[name] > limit:
            failed.append(name)

    plain = results["plain"]
    for name in ("metrics", "metrics+tracing", "invariants", "slo",
                 "checkpoint"):
        r = results[name]
        if (r.execution_time_s != plain.execution_time_s
                or r.promoted != plain.promoted
                or r.demoted != plain.demoted):
            print(f"FAIL: {name} leg perturbed the simulation "
                  f"(exec {r.execution_time_s} vs "
                  f"{plain.execution_time_s})")
            return 1

    coverage = last_obs["metrics+tracing"].tracer.coverage()
    print(f"stage-span coverage: {coverage:.3f}")
    if coverage < 0.95:
        print("FAIL: stage spans cover < 95% of the run span")
        return 1

    # A violation raises out of the invariants leg's run, so reaching
    # here means none was found.
    checks = results["invariants"].extra.get("invariant_checks", 0)
    print(f"invariant checks: {checks:.0f} run, 0 violations")

    if failed:
        print(f"FAIL: {', '.join(failed)} exceeded the overhead budget "
              f"(tolerance {args.tolerance:.0%}, invariants "
              f"{args.invariant_tolerance:.0%}, +{args.slack_s:.2f} s "
              "slack)")
        return 1
    print(f"OK: instrumented legs within {args.tolerance:.0%} "
          f"(invariants {args.invariant_tolerance:.0%}; "
          f"+{args.slack_s:.2f} s slack) of plain")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
