"""The Redis tail-latency story (§7.2).

Redis is the paper's latency-sensitive workload: its pages are sparse
(Figure 4) and its page heat is spread wide, so hot-page
identification cost shows up directly in p99 request latency.  The
paper finds ANB helps a little, DAMON *hurts* (it keeps scanning after
migration reaches equilibrium), and M5 with the HWT-driven Nominator
wins because it picks useful pages with virtually no overhead
(Guideline 4).

This model's DAMON does not hurt: its region sampling is cheaper than
the kernel's, so its p99 improves on no migration (EXPERIMENTS.md,
known deviation 1).  M5 with the HWT-driven Nominator still has the
best p99.

Usage::

    python examples/redis_tail_latency.py
"""

from repro import workloads
from repro.sim import SimConfig, run_policy


def main() -> None:
    config = SimConfig(total_accesses=1_000_000, chunk_size=16_384,
                       trace_subsample=64.0)

    results = {}
    for policy in ("none", "anb", "damon", "m5-hpt", "m5-hwt"):
        workload = workloads.build("redis", seed=1)
        results[policy] = run_policy(workload, policy, config)

    base = results["none"]
    print("Redis under YCSB-A-style traffic — p99 request latency\n")
    print(f"{'policy':10s} {'p99 (us)':>9s} {'vs none':>9s} "
          f"{'ident. ovh (s)':>15s} {'migrations':>11s}")
    for policy, r in results.items():
        delta = base.p99_latency_us / r.p99_latency_us - 1.0
        print(f"{policy:10s} {r.p99_latency_us:9.2f} {delta:+9.1%} "
              f"{r.overhead_time_s:15.3f} {r.promoted + r.demoted:11d}")

    best = min(results, key=lambda p: results[p].p99_latency_us)
    print(f"\nbest p99: {best}")
    print("note: M5's identification overhead column is ~0 — the "
          "trackers live in the CXL controller, not on the CPU.")


if __name__ == "__main__":
    main()
