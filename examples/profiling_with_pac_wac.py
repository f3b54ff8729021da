"""Offline profiling with PAC and WAC (the paper's §3/§4 flow).

Demonstrates the profiling workflow the paper uses to indict
CPU-driven migration: bind a workload to CXL memory, let PAC count
every page access and WAC every word access, then ask

1. how skewed is the page heat (Figure 10's CDF view)?
2. how sparse are the pages (Figure 4's word view)?
3. how hot are the pages a CPU-driven policy (ANB here) identifies,
   relative to the true top-K (the §4.1 access-count ratio)?

One identification-only ANB run answers all three; it is the pass
behind ``repro report``.

Usage::

    python examples/profiling_with_pac_wac.py [benchmark]
"""

import sys

from repro.analysis.report import profile_benchmark


def main() -> None:
    bench = sys.argv[1] if len(sys.argv) > 1 else "redis"
    profile = profile_benchmark(bench, 1_500_000, policies=("anb",))

    # 1. page-heat distribution (Figure 10's view)
    cdf = profile.cdf
    skew = cdf.skew_summary()
    print(f"== {bench}: page heat (PAC) ==")
    print(f"pages touched: {cdf.counts.size}")
    print(f"p90/p50 = {skew['p90_over_p50']:.2f}   "
          f"p95/p50 = {skew['p95_over_p50']:.2f}   "
          f"p99/p50 = {skew['p99_over_p50']:.2f}   "
          f"gini = {cdf.gini():.3f}")

    # 2. word sparsity (Figure 4's view)
    sparsity = profile.sparsity
    print(f"\n== {bench}: word sparsity (WAC) ==")
    for n in (4, 8, 16, 32, 48):
        print(f"P(page has <= {n:2d} unique words accessed) = "
              f"{sparsity.at(n):.2f}")
    print(f"recommended Nominator mode: {profile.recommended_nominator} "
          "(Guidelines 3/4)")

    # 3. how good were ANB's picks? (the §4.1 methodology)
    anb_ratio = profile.policy_ratios["anb"]
    print(f"\n== {bench}: ANB hot-page quality (access-count ratio) ==")
    print(f"access-count ratio vs PAC top-K: {anb_ratio:.3f}")
    if anb_ratio < 0.4:
        print("=> ANB is identifying warm pages (Observation 1).")


if __name__ == "__main__":
    main()
