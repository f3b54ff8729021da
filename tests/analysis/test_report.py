"""Tests for the benchmark profile report."""

import numpy as np
import pytest

from repro.analysis.cdf import AccessCdf
from repro.analysis.report import (
    MIGRATION_FRIENDLY_SKEW,
    BenchmarkProfile,
    profile_benchmark,
    render_markdown,
)
from repro.analysis.sparsity import SparsityProfile
from repro.core.manager.nominator import HPT_DRIVEN, HPT_ONLY, HWT_DRIVEN
from repro.sim import SimConfig
from repro.workloads.wordmap import SPARSITY_THRESHOLDS


@pytest.fixture(scope="module")
def redis_profile():
    cfg = SimConfig(total_accesses=300_000, migrate=False, checkpoints=2)
    return profile_benchmark("redis", config=cfg)


class TestProfileBenchmark:
    def test_fields_populated(self, redis_profile):
        assert redis_profile.bench == "redis"
        assert redis_profile.cdf.counts.size > 0
        assert redis_profile.sparsity.pages_observed > 0
        assert set(redis_profile.policy_ratios) == {"anb", "damon"}

    def test_redis_recommended_hwt(self, redis_profile):
        """Guideline 4: sparse-page apps get the HWT-driven mode."""
        assert redis_profile.recommended_nominator == HWT_DRIVEN

    def test_dense_app_recommended_hpt_only(self):
        cfg = SimConfig(total_accesses=300_000, migrate=False, checkpoints=2)
        profile = profile_benchmark("pr", config=cfg)
        assert profile.recommended_nominator == HPT_ONLY

    def test_mixed_app_recommended_hpt_driven(self):
        cfg = SimConfig(total_accesses=300_000, migrate=False, checkpoints=2)
        profile = profile_benchmark("roms", config=cfg)
        assert profile.recommended_nominator == HPT_DRIVEN


def skewed_profile(p99_over_p50):
    """A profile whose p99 page is ``p99_over_p50`` times its p50 page:
    98 pages at 10 accesses and 2 at the hot count."""
    counts = np.array([10.0] * 98 + [10.0 * p99_over_p50] * 2)
    return BenchmarkProfile(
        bench="synthetic",
        cdf=AccessCdf.from_counts("synthetic", counts),
        sparsity=SparsityProfile(
            "synthetic", {n: 0.5 for n in SPARSITY_THRESHOLDS}, 100
        ),
        policy_ratios={},
        footprint_pages=100,
    )


class TestMigrationFriendly:
    @pytest.mark.parametrize("skew, friendly", [
        (3.9, False), (4.0, False), (4.1, True), (17.0, True),
    ])
    def test_rule_is_p99_over_p50_above_four(self, skew, friendly):
        profile = skewed_profile(skew)
        assert profile.cdf.hotness_ratio(99) == pytest.approx(skew)
        assert profile.migration_friendly is friendly

    @pytest.mark.parametrize("skew, verdict", [(3.9, "marginal"), (4.1, "yes")])
    def test_label_states_the_rule_it_applies(self, skew, verdict):
        text = render_markdown(skewed_profile(skew))
        line = next(l for l in text.splitlines() if "worthwhile" in l)
        assert f"**{verdict}**" in line
        assert f"p99/p50 page heat > {MIGRATION_FRIENDLY_SKEW:g}" in line
        assert f"here {skew:.2f}" in line
        assert "break-even" not in line


class TestRenderMarkdown:
    def test_sections_present(self, redis_profile):
        text = render_markdown(redis_profile)
        for heading in ("# Profile: redis", "## Page heat", "## Word sparsity",
                        "## CPU-driven identification quality",
                        "## Recommendation"):
            assert heading in text

    def test_ratio_rows_present(self, redis_profile):
        text = render_markdown(redis_profile)
        assert "| anb |" in text
        assert "| damon |" in text


class TestCliReport:
    def test_report_to_file(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "report.md"
        rc = main([
            "report", "--bench", "mcf", "--accesses", "150000",
            "--output", str(out),
        ])
        assert rc == 0
        assert out.read_text().startswith("# Profile: mcf")

    def test_redis_report_recommends_hwt_driven(self, capsys):
        """Redis's pages are sparse, so the report's Nominator pick is
        the HWT-driven mode (Guideline 4)."""
        from repro.cli import main

        rc = main(["report", "--bench", "redis", "--accesses", "200000"])
        assert rc == 0
        assert (f"- Nominator mode: **{HWT_DRIVEN}** (Guidelines 3/4)"
                in capsys.readouterr().out.splitlines())

    @pytest.mark.parametrize("flag", [
        ["--chunk", "50000"], ["--subsample", "16"],
        ["--migration-mode", "async"], ["--mig-budget", "4"], ["--serve"],
    ])
    def test_flags_it_cannot_honour_exit_2(self, flag, capsys):
        """The report is an identification-only pass at the default
        chunk and sampling, so run flags are refused, not ignored."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["report", "--bench", "redis", "--accesses", "1000", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
