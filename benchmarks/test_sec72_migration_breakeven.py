"""§7.2's migration economics: the ~54us cost of moving a page must be
amortised by ~318 extra DDR hits (54us / (270ns − 100ns)), so flat-
tail benchmarks like TC call for conservative migration.

Regenerated here:

* the break-even arithmetic itself;
* per-benchmark: does the marginal page (the bottom-p50 vs bottom-p10
  gap) clear break-even?
* an ablation: on TC, throttling M5's migration (smaller batches,
  lower f_default) should not lose performance — aggressiveness buys
  nothing when pages are equally warm.
"""

import pytest

from repro.analysis import AccessCdf, breakeven_migration_accesses
from repro.sim import M5Options, Simulation, normalized
from repro.workloads import MEMORY_INTENSIVE, build

from common import emit_table, end_to_end_config, once, ratio_config


def run_gap_analysis():
    cfg = ratio_config(total_accesses=2_000_000, checkpoints=1)
    factor = cfg.trace_subsample / cfg.footprint_scale
    breakeven = breakeven_migration_accesses(cxl_latency_ns=cfg.cxl_latency_ns)
    rows = []
    for bench in MEMORY_INTENSIVE:
        sim = Simulation(build(bench, seed=1), cfg, policy="none")
        sim.run()
        cdf = AccessCdf.from_counts(bench, sim.pac.counts().astype(float) * factor)
        gap = cdf.bottom_gap(50.0, 10.0)
        rows.append({"bench": bench, "bottom_gap": gap,
                     "clears_breakeven": gap > breakeven})
    return breakeven, rows


def run_tc_ablation():
    """Conservative (stop once DDR is full unless migration provably
    helps — the default Elector) vs aggressive (no dead band: keep
    swapping marginal pages every period)."""
    base = Simulation(build("tc", seed=1), end_to_end_config(), policy="none").run()
    aggressive = Simulation(
        build("tc", seed=1), end_to_end_config(), policy="m5-hpt",
        m5_options=M5Options(k_hpt=256, improvement_epsilon=-1.0),
    ).run()
    conservative = Simulation(
        build("tc", seed=1), end_to_end_config(), policy="m5-hpt",
        m5_options=M5Options(),
    ).run()
    return {
        "aggressive": normalized(base, aggressive),
        "conservative": normalized(base, conservative),
        "aggressive_migrations": aggressive.promoted + aggressive.demoted,
        "conservative_migrations": conservative.promoted + conservative.demoted,
    }


@pytest.fixture(scope="module")
def gap_data():
    return run_gap_analysis()


@pytest.fixture(scope="module")
def tc_ablation():
    return run_tc_ablation()


def check_breakeven_constant(breakeven):
    """54us / (270ns − 100ns) ≈ 318 accesses."""
    assert breakeven == pytest.approx(317.6, abs=0.5)


def check_tc_below_breakeven(breakeven, rows):
    tc = next(r for r in rows if r["bench"] == "tc")
    assert not tc["clears_breakeven"]


def check_conservative_wins_or_ties_on_tc(ablation):
    """Aggressive migration buys nothing on flat-tailed TC."""
    assert ablation["conservative"] >= ablation["aggressive"] - 0.05
    assert ablation["conservative_migrations"] < ablation["aggressive_migrations"]


def test_sec72_regenerate(benchmark, gap_data, tc_ablation):
    (breakeven, rows), ablation = once(
        benchmark, lambda: (gap_data, tc_ablation)
    )
    table = [[r["bench"], r["bottom_gap"],
              "yes" if r["clears_breakeven"] else "no"] for r in rows]
    emit_table(
        "sec72_migration_breakeven",
        f"§7.2 — bottom-p50 vs bottom-p10 access gap vs the "
        f"{breakeven:.0f}-access migration break-even "
        f"(TC ablation: conservative={ablation['conservative']:.2f}, "
        f"aggressive={ablation['aggressive']:.2f})",
        ["bench", "bottom_gap", "clears_breakeven"],
        table,
        precision=1,
    )
    check_breakeven_constant(breakeven)
    check_tc_below_breakeven(breakeven, rows)
    check_conservative_wins_or_ties_on_tc(ablation)


def test_breakeven_constant(gap_data):
    check_breakeven_constant(gap_data[0])


def test_tc_below_breakeven(gap_data):
    check_tc_below_breakeven(*gap_data)


def test_conservative_wins_or_ties_on_tc(tc_ablation):
    check_conservative_wins_or_ties_on_tc(tc_ablation)
