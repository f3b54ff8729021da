"""Offline profiling with PAC and WAC (the paper's §3/§4 flow).

Demonstrates the profiling workflow the paper uses to indict
CPU-driven migration: bind a workload to CXL memory, let PAC count
every page access and WAC every word access, then ask

1. how skewed is the page heat (Figure 10's CDF view)?
2. how sparse are the pages (Figure 4's word view)?
3. how hot are the pages a CPU-driven policy (ANB here) identifies,
   relative to the true top-K (the §4.1 access-count ratio)?

Usage::

    python examples/profiling_with_pac_wac.py [benchmark]
"""

import sys

import numpy as np

from repro import workloads
from repro.analysis import AccessCdf, from_wac
from repro.sim import SimConfig, Simulation, access_count_ratio, ratio_k_cap


def main() -> None:
    bench = sys.argv[1] if len(sys.argv) > 1 else "redis"
    config = SimConfig(total_accesses=1_500_000, migrate=False, checkpoints=5)

    # One instrumented run: PAC is always attached; WAC on request.
    sim = Simulation(workloads.build(bench, seed=1), config,
                     policy="anb", enable_wac=True)
    result = sim.run()

    # 1. page-heat distribution (Figure 10's view)
    cdf = AccessCdf.from_counts(bench, sim.pac.counts())
    skew = cdf.skew_summary()
    print(f"== {bench}: page heat (PAC) ==")
    print(f"pages touched: {cdf.counts.size}")
    print(f"p90/p50 = {skew['p90_over_p50']:.2f}   "
          f"p95/p50 = {skew['p95_over_p50']:.2f}   "
          f"p99/p50 = {skew['p99_over_p50']:.2f}   "
          f"gini = {cdf.gini():.3f}")

    # 2. word sparsity (Figure 4's view)
    profile = from_wac(bench, sim.wac, min_accesses=128)
    print(f"\n== {bench}: word sparsity (WAC) ==")
    for n in (4, 8, 16, 32, 48):
        print(f"P(page has <= {n:2d} unique words accessed) = "
              f"{profile.at(n):.2f}")
    verdict = ("sparse (HWT-driven Nominator territory, Guideline 4)"
               if profile.mostly_sparse else
               "dense (HPT-only / HPT-driven territory, Guideline 3)")
    print(f"verdict: {verdict}")

    # 3. how good were ANB's picks? (the §4.1 methodology)
    k_cap = ratio_k_cap(sim.workload.spec.footprint_pages)
    anb_ratio = access_count_ratio(sim.pac, result.hot_pfns, k_cap)
    print(f"\n== {bench}: ANB hot-page quality (access-count ratio) ==")
    print(f"pages identified by ANB: {len(set(result.hot_pfns))}")
    print(f"access-count ratio vs PAC top-K: {anb_ratio:.3f}")
    print(f"checkpointed ratios: "
          f"{np.round(result.ratio_checkpoints, 3).tolist()}")
    if anb_ratio < 0.4:
        print("=> ANB is identifying warm pages (Observation 1).")


if __name__ == "__main__":
    main()
