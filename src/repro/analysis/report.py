"""Per-benchmark profiling reports.

Combines the §3/§4 profiling views — page-heat distribution (PAC),
word sparsity (WAC), and hot-page identification quality — into one
Markdown document, the artifact a performance engineer would hand
around before choosing a migration policy.  Used by the CLI's
``report`` command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.cdf import AccessCdf, breakeven_migration_accesses
from repro.analysis.sparsity import SparsityProfile, from_wac
from repro.core.manager.nominator import HPT_DRIVEN, HPT_ONLY, HWT_DRIVEN
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation, access_count_ratio, ratio_k_cap
from repro.workloads import registry
from repro.workloads.wordmap import SPARSITY_THRESHOLDS

#: ``migration_friendly`` holds when the p99 page is more than this
#: many times hotter than the p50 page.
MIGRATION_FRIENDLY_SKEW = 4.0


@dataclass
class BenchmarkProfile:
    """Everything the report needs about one benchmark."""

    bench: str
    cdf: AccessCdf
    sparsity: SparsityProfile
    policy_ratios: Dict[str, float]
    footprint_pages: int

    @property
    def recommended_nominator(self) -> str:
        """Guidelines 3/4 as a decision rule."""
        if self.sparsity.mostly_sparse:
            return HWT_DRIVEN
        if self.sparsity.mostly_dense:
            return HPT_ONLY
        return HPT_DRIVEN

    @property
    def migration_friendly(self) -> bool:
        """Does precise migration have something to win here?  Skewed
        page heat (the p99 page much hotter than p50) rewards it."""
        return self.cdf.hotness_ratio(99) > MIGRATION_FRIENDLY_SKEW


def profile_benchmark(
    bench: str,
    total_accesses: int = 800_000,
    seed: int = 1,
    policies=("anb", "damon"),
    config: Optional[SimConfig] = None,
) -> BenchmarkProfile:
    """Run the instrumented (identification-only) profiling pass."""
    cfg = config or SimConfig(
        total_accesses=total_accesses, migrate=False, checkpoints=5
    )
    ratios: Dict[str, float] = {}
    pac = wac = None
    spec = registry.spec_of(bench)
    for policy in policies:
        sim = Simulation(
            registry.build(bench, seed=seed), cfg, policy=policy,
            enable_wac=(pac is None),
        )
        result = sim.run()
        ratios[policy] = access_count_ratio(
            sim.pac, result.hot_pfns, ratio_k_cap(spec.footprint_pages)
        )
        if pac is None:
            pac, wac = sim.pac, sim.wac
    return BenchmarkProfile(
        bench=bench,
        cdf=AccessCdf.from_counts(bench, pac.counts()),
        sparsity=from_wac(bench, wac, min_accesses=128),
        policy_ratios=ratios,
        footprint_pages=spec.footprint_pages,
    )


def render_markdown(profile: BenchmarkProfile) -> str:
    """Render one benchmark profile as Markdown."""
    skew = profile.cdf.skew_summary()
    lines = [
        f"# Profile: {profile.bench}",
        "",
        f"- footprint: {profile.footprint_pages} pages",
        f"- pages touched: {profile.cdf.counts.size}",
        "",
        "## Page heat (PAC)",
        "",
        "| metric | value |",
        "|---|---|",
        f"| p90 / p50 | {skew['p90_over_p50']:.2f} |",
        f"| p95 / p50 | {skew['p95_over_p50']:.2f} |",
        f"| p99 / p50 | {skew['p99_over_p50']:.2f} |",
        f"| gini | {profile.cdf.gini():.3f} |",
        f"| bottom p50−p10 gap | {profile.cdf.bottom_gap():.1f} accesses |",
        f"| migration break-even | {breakeven_migration_accesses():.0f} accesses |",
        "",
        "## Word sparsity (WAC)",
        "",
        "| ≤ words | probability |",
        "|---|---|",
    ]
    for n in SPARSITY_THRESHOLDS:
        lines.append(f"| {n} | {profile.sparsity.at(n):.2f} |")
    lines += [
        "",
        "## CPU-driven identification quality (access-count ratio)",
        "",
        "| policy | ratio |",
        "|---|---|",
    ]
    for policy, value in profile.policy_ratios.items():
        lines.append(f"| {policy} | {value:.3f} |")
    lines += [
        "",
        "## Recommendation",
        "",
        f"- Nominator mode: **{profile.recommended_nominator}** "
        "(Guidelines 3/4)",
        f"- precise migration worthwhile: "
        f"**{'yes' if profile.migration_friendly else 'marginal'}** "
        f"(rule: p99/p50 page heat > {MIGRATION_FRIENDLY_SKEW:g}; "
        f"here {skew['p99_over_p50']:.2f})",
        "",
    ]
    return "\n".join(lines)
