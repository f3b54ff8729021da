"""Tests for the command-line interface."""

import argparse
import json
import socket
from types import SimpleNamespace

import pytest

from repro.cli import build_parser, main


def _run_actions():
    """Every option action of the ``run`` parser except help/resume."""
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return [a for a in sub.choices["run"]._actions
            if a.option_strings and a.dest not in ("help", "resume")]


def _non_default_argv(action, tmp_path):
    """``action``'s flag with a valid value other than its default."""
    flag = action.option_strings[0]
    if action.nargs == 0:
        return [flag]
    if action.choices:
        return [flag, next(c for c in action.choices if c != action.default)]
    if action.type in (int, float):
        return [flag, str(action.default + 1)]
    return [flag, str(tmp_path / action.dest)]


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _refused(out):
    """The flags a ``cannot resume with ...`` line names."""
    (line,) = [l for l in out.splitlines() if l.startswith("cannot resume with ")]
    return line[len("cannot resume with "):].split(":")[0].split(", ")


class TestList:
    def test_lists_benchmarks(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for bench in ("mcf", "redis", "pr", "cachelib"):
            assert bench in out


class TestRun:
    def test_run_policy(self, capsys):
        rc = main([
            "run", "--bench", "mcf", "--policy", "m5-hpt",
            "--accesses", "100000", "--chunk", "50000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "m5-hpt" in out
        assert "promoted" in out

    def test_identification_mode_reports_ratio(self, capsys):
        rc = main([
            "run", "--bench", "mcf", "--policy", "anb", "--no-migrate",
            "--accesses", "100000", "--chunk", "50000",
        ])
        assert rc == 0
        assert "access-count ratio" in capsys.readouterr().out

    def test_redis_reports_p99(self, capsys):
        rc = main([
            "run", "--bench", "redis", "--policy", "none",
            "--accesses", "100000", "--chunk", "50000",
        ])
        assert rc == 0
        assert "p99" in capsys.readouterr().out

    def test_async_totals_printed_once_from_run_result(
        self, monkeypatch, capsys
    ):
        """A run long enough to overflow the timeline ring still prints
        each async total once, and it is the exact ``RunResult`` one,
        never a sum over the truncated ring."""
        from repro import cli

        sims = []

        class Recording(cli.Simulation):
            def run(self):
                sims.append(self)
                return super().run()

        monkeypatch.setattr(cli, "Simulation", Recording)
        rc = main([
            "run", "--bench", "mcf", "--policy", "anb",
            "--accesses", "1200000", "--chunk", "256",
            "--migration-mode", "async", "--mig-abort-rate", "0.3",
        ])
        assert rc == 0
        result = sims[0].result
        assert result.timeline_dropped > 0
        lines = capsys.readouterr().out.splitlines()
        commit_lines = [line for line in lines if "commit" in line]
        abort_lines = [line for line in lines if "abort" in line]
        committed = int(result.extra["mig_committed"])
        aborted = int(result.extra["mig_aborted"])
        assert len(commit_lines) == 1
        assert f"committed {committed}," in commit_lines[0]
        assert len(abort_lines) == 1
        assert f"aborted {aborted} " in abort_lines[0]


    def test_slo_rules_run_without_metrics(self, monkeypatch, capsys):
        """The watchdog judges the ``epoch`` record, so ``--slo-rules``
        alone builds no metrics registry."""
        from repro import cli

        sims = []

        class Recording(cli.Simulation):
            def run(self):
                sims.append(self)
                return super().run()

        monkeypatch.setattr(cli, "Simulation", Recording)
        rc = main([
            "run", "--bench", "mcf", "--accesses", "40000",
            "--chunk", "20000", "--slo-rules", "default",
        ])
        assert rc == 0
        (sim,) = sims
        assert not sim.obs.metrics_on
        assert len(sim.watchdog._rows) == 2
        assert ("slo           : all 1 rules green; no data for "
                "queue_saturation, bandwidth_starvation"
                in capsys.readouterr().out.splitlines())

    def test_trace_with_periodic_checkpoints_is_refused(self, tmp_path,
                                                        capsys):
        """A traced run cannot be checkpointed; the combination is
        refused before any epoch runs, not at the first checkpoint."""
        trace, ckpt = tmp_path / "t.json", tmp_path / "c.ckpt"
        rc = main([
            "run", "--bench", "mcf", "--accesses", "80000",
            "--chunk", "20000", "--trace", str(trace),
            "--checkpoint", str(ckpt), "--checkpoint-every", "2",
        ])
        assert rc == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert "--trace" in line and "--checkpoint-every" in line
        assert not trace.exists() and not ckpt.exists()

    def test_slo_rule_without_data_is_not_green(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text('{"rules": [{"name": "typo", "series": '
                         '"sim_epoch_secnds", "op": ">", "threshold": 1}]}')
        rc = main([
            "run", "--bench", "mcf", "--accesses", "40000",
            "--chunk", "20000", "--slo-rules", str(rules),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "slo           : no data for typo" in out.splitlines()
        assert "green" not in out

    def test_slo_rule_judges_the_ratio_column(self, tmp_path, capsys):
        """In identification-only mode the ``epoch`` record carries the
        §4.1 access-count ratio at each measurement point, so a rule
        can flag ANB's warm picks (Fig. 3) as the run goes."""
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"rules": [
            {"name": "warm_picks", "series": "ratio", "reduce": "last",
             "op": "<", "threshold": 0.5, "window": 1},
        ]}))
        rc = main([
            "run", "--bench", "redis", "--policy", "anb", "--no-migrate",
            "--accesses", "500000", "--chunk", "16384", "--checkpoints", "5",
            "--slo-rules", str(rules),
        ])
        assert rc == 0
        assert ("slo           : 5 breaches (warm_picks=5)"
                in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("argv", (
    ["run", "--record-series", "default"],
    ["run", "--record-epochs", "8"],
    ["run", "--record-out", "series.jsonl"],
    ["fleet", "--record-series", "default"],
    ["fleet", "--record-epochs", "8"],
), ids=" ".join)
def test_series_recorder_flags_are_gone(argv, capsys):
    """The ``epoch`` record is the one per-epoch table: ``--timeline``
    exports it, and no second recorder can be asked for."""
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--bench", "mcf", *argv[1:]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("problem", ("missing", "directory", "not-json",
                                     "no-rules", "bad-rule",
                                     "text-threshold"))
@pytest.mark.parametrize("command", ("run", "fleet"))
def test_bad_slo_rules_file_exits_2_naming_it(tmp_path, capsys, command,
                                              problem):
    """Every subcommand that takes ``--slo-rules`` refuses an unusable
    rule file up front with one message, never a traceback."""
    path = tmp_path / "rules.json"
    if problem == "directory":
        path.mkdir()
    elif problem == "not-json":
        path.write_text("{rules: [")
    elif problem == "no-rules":
        path.write_text("[]")
    elif problem == "bad-rule":
        path.write_text('{"rules": [{"name": "no-series"}]}')
    elif problem == "text-threshold":  # else it fails at the first epoch
        path.write_text('{"rules": [{"name": "r", "series": "epoch_s", '
                        '"threshold": "0"}]}')
    rc = main([command, "--bench", "mcf", "--accesses", "40000",
               "--chunk", "20000", "--slo-rules", str(path)])
    assert rc == 2
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith(f"cannot load --slo-rules: {path}: ")


class TestRunObservability:
    def test_metrics_prom_file(self, capsys, tmp_path):
        path = tmp_path / "run.prom"
        rc = main([
            "run", "--bench", "mcf", "--policy", "m5-hpt",
            "--accesses", "100000", "--chunk", "50000",
            "--metrics", str(path),
        ])
        assert rc == 0
        assert "metrics snapshot written" in capsys.readouterr().out
        text = path.read_text()
        assert "# TYPE sim_epochs_total counter" in text
        assert "sim_epochs_total 2" in text

    def test_metrics_json_file(self, tmp_path):
        import json

        path = tmp_path / "run.json"
        rc = main([
            "run", "--bench", "mcf", "--policy", "m5-hpt",
            "--accesses", "100000", "--chunk", "50000",
            "--metrics", str(path),
        ])
        assert rc == 0
        snap = json.loads(path.read_text())
        assert any(m["name"] == "sim_epochs_total" for m in snap["metrics"])

    def test_trace_file_and_flame_table(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        rc = main([
            "run", "--bench", "mcf", "--policy", "m5-hpt",
            "--accesses", "100000", "--chunk", "50000",
            "--trace", str(path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "flame table" in out
        assert "stage coverage" in out
        trace = json.loads(path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "run" in names and "stage.perf" in names

    def test_spans_stay_out_of_the_timeline(self, tmp_path):
        import json

        timeline = tmp_path / "timeline.jsonl"
        rc = main([
            "run", "--bench", "mcf", "--policy", "m5-hpt",
            "--accesses", "100000", "--chunk", "25000",
            "--trace", str(tmp_path / "trace.json"),
            "--timeline", str(timeline),
        ])
        assert rc == 0
        stages = [json.loads(line)["stage"]
                  for line in timeline.read_text().splitlines()]
        assert stages.count("epoch") == 4
        assert "span" not in stages


class TestMetricsCommand:
    def snapshot_file(self, tmp_path, name, epochs):
        from repro.obs import Observability, to_prometheus

        obs = Observability(metrics=True, tracing=False)
        obs.registry.counter("sim_epochs_total").inc(epochs)
        path = tmp_path / name
        path.write_text(to_prometheus(obs.snapshot()))
        return str(path)

    def test_show_one_snapshot(self, capsys, tmp_path):
        path = self.snapshot_file(tmp_path, "a.prom", 5)
        assert main(["metrics", path]) == 0
        out = capsys.readouterr().out
        assert "sim_epochs_total" in out and "5.000" in out

    def test_diff_two_snapshots(self, capsys, tmp_path):
        a = self.snapshot_file(tmp_path, "a.prom", 5)
        b = self.snapshot_file(tmp_path, "b.prom", 8)
        assert main(["metrics", a, b]) == 0
        out = capsys.readouterr().out
        assert "metrics diff" in out and "3.000" in out

    def test_identical_snapshots_report_no_change(self, capsys, tmp_path):
        a = self.snapshot_file(tmp_path, "a.prom", 5)
        b = self.snapshot_file(tmp_path, "b.prom", 5)
        assert main(["metrics", a, b]) == 0
        assert "no differing series" in capsys.readouterr().out

    def test_missing_file_rejected(self, capsys, tmp_path):
        rc = main(["metrics", str(tmp_path / "nope.prom")])
        assert rc == 2

    def test_three_files_rejected(self, capsys, tmp_path):
        a = self.snapshot_file(tmp_path, "a.prom", 1)
        assert main(["metrics", a, a, a]) == 2


class TestSweepMetrics:
    def test_per_cell_snapshots_collected(self, capsys, tmp_path):
        import json

        path = tmp_path / "cells.json"
        rc = main([
            "sweep", "--benches", "mcf", "--policies", "m5-hpt",
            "--accesses", "100000", "--chunk", "50000",
            "--metrics", str(path),
        ])
        assert rc == 0
        assert "per-cell metrics written" in capsys.readouterr().out
        cells = json.loads(path.read_text())
        assert set(cells["mcf"]) == {"none", "m5-hpt"}
        names = {m["name"] for m in cells["mcf"]["m5-hpt"]["metrics"]}
        assert "sim_epochs_total" in names

    def test_metrics_do_not_change_the_scores(self, capsys, tmp_path):
        """Instrumented and plain sweeps print the same score table."""
        argv = ["sweep", "--benches", "redis", "--policies", "anb",
                "--accesses", "100000", "--chunk", "50000"]

        def table(extra):
            assert main(argv + extra) == 0
            out = capsys.readouterr().out
            return out[out.index("sweep ("):]

        assert table([]) == table(["--metrics", str(tmp_path / "c.json")])

    def test_cells_use_the_run_config_flags(self, monkeypatch, capsys):
        from repro import cli

        seen = {}

        def fake_collect_matrix(benches, policies, factory, seed, jobs,
                                with_metrics, on_result):
            seen["config"] = factory()
            seen["with_metrics"] = with_metrics
            cell = SimpleNamespace(p99_latency_us=None, execution_time_s=1.0)
            return {b: {p: cell for p in ["none", *policies]}
                    for b in benches}

        monkeypatch.setattr(cli, "collect_matrix", fake_collect_matrix)
        rc = main([
            "sweep", "--benches", "mcf", "--policies", "anb",
            "--accesses", "100000",
            "--migration-mode", "async", "--mig-budget", "7",
        ])
        assert rc == 0
        config = seen["config"]
        assert config.migration_mode == "async"
        assert config.migration_inflight_budget == 7
        assert config.total_accesses == 100_000
        # Without --metrics or --serve the cells run uninstrumented.
        assert seen["with_metrics"] is False


class TestFleet:
    def test_slo_rules_apply_without_serve(self, capsys):
        rc = main([
            "fleet", "--tenants", "2", "--tiers", "2", "--bench", "mcf",
            "--accesses", "60000", "--chunk", "15000",
            "--slo-rules", "default",
        ])
        assert rc == 0
        # The tenants' watchdogs judge the epoch rule, the fleet's the
        # bandwidth rule; instant mode has no queue.
        assert ("slo           : all 2 rules green; no data for "
                "queue_saturation" in capsys.readouterr().out.splitlines())

    def test_slo_breaches_name_their_scope(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"rules": [
            {"name": "slow_epoch", "series": "epoch_s", "op": ">",
             "threshold": 0},
            {"name": "typo", "series": "epoch_sx", "op": ">", "threshold": 0},
        ]}))
        rc = main([
            "fleet", "--tenants", "2", "--tiers", "2", "--bench", "mcf",
            "--accesses", "60000", "--chunk", "15000",
            "--slo-rules", str(rules),
        ])
        assert rc == 0
        assert ("slo           : 8 breaches (slow_epoch=8 [tenant 0: 4, "
                "tenant 1: 4]); no data for typo"
                in capsys.readouterr().out.splitlines())

    @staticmethod
    def _recording_fleet(monkeypatch):
        import repro.fleet

        fleets = []

        class Recording(repro.fleet.FleetSimulation):
            def run(self):
                fleets.append(self)
                return super().run()

        monkeypatch.setattr(repro.fleet, "FleetSimulation", Recording)
        return fleets

    def test_fleet_watchdog_judges_the_tenant_row(self, monkeypatch):
        fleets = self._recording_fleet(monkeypatch)
        rc = main([
            "fleet", "--tenants", "2", "--tiers", "2", "--bench", "mcf",
            "--accesses", "60000", "--chunk", "15000",
            "--slo-rules", "default",
        ])
        assert rc == 0
        (fsim,) = fleets
        assert not fsim.obs.metrics_on
        rows = [row for _, row in fsim.watchdog._rows]
        assert len(rows) == fsim.result.epochs
        assert rows[0] == {}  # before the first arbitration
        assert sorted(rows[-1]) == sorted(
            [f'fleet_tenant_slowdown{{tenant="{t}"}}' for t in "01"]
            + [f'fleet_tenant_bandwidth_share{{tenant="{t}",tier="{tier}"}}'
               for t in "01" for tier in ("ddr", "cxl")]
        )
        assert fsim.watchdog.rules_without_data() == [
            "queue_saturation", "epoch_duration_p99"]

    def test_check_invariants_prints_fleet_totals(self, monkeypatch, capsys):
        fleets = self._recording_fleet(monkeypatch)
        rc = main([
            "fleet", "--tenants", "3", "--tiers", "3",
            "--bench", "mcf,roms", "--accesses", "60000",
            "--chunk", "15000", "--check-invariants",
        ])
        assert rc == 0
        results = [t.result for t in fleets[0].result.results]
        checks = sum(r.extra["invariant_checks"] for r in results)
        assert checks > 0
        assert (f"invariants    : {checks:.0f} checks, 0 violations"
                in capsys.readouterr().out)

    def test_out_rows_match_fleet_simulation(self, tmp_path):
        import json

        from repro.fleet import FleetConfig, FleetSimulation
        from repro.sim import SimConfig

        path = tmp_path / "fleet.json"
        rc = main([
            "fleet", "--tenants", "3", "--tiers", "3",
            "--bench", "mcf,roms", "--accesses", "60000",
            "--chunk", "15000", "--out", str(path),
        ])
        assert rc == 0
        written = json.loads(path.read_text())["tenant_metrics"]
        expected = FleetSimulation(
            FleetConfig(tenants=3, tiers=3, bench="mcf,roms"),
            SimConfig(total_accesses=60_000, chunk_size=15_000,
                      trace_subsample=64.0, checkpoints=1, seed=1),
        ).run().tenant_metrics()
        assert written == expected

    def test_out_records_the_fleet_alerts(self, tmp_path, capsys):
        """The fleet watchdog's breaches reach the ``--out`` artifact:
        a rule that holds on every arbitration row fires once per
        epoch after the first."""
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"rules": [
            {"name": "any_slowdown", "series": "fleet_tenant_slowdown*",
             "op": ">=", "threshold": 0},
        ]}))
        path = tmp_path / "fleet.json"
        rc = main([
            "fleet", "--tenants", "2", "--tiers", "2", "--bench", "mcf",
            "--accesses", "60000", "--chunk", "15000",
            "--slo-rules", str(rules), "--out", str(path),
        ])
        assert rc == 0
        alerts = json.loads(path.read_text())["alerts"]
        assert [a["epoch"] for a in alerts] == [2.0, 3.0, 4.0]
        assert {a["rule"] for a in alerts} == {"any_slowdown"}
        assert all(a["value"] >= 1.0 for a in alerts)

    def test_jobs_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


class TestCompare:
    def test_compare_policies(self, capsys):
        rc = main([
            "compare", "--bench", "mcf", "--policies", "anb,m5-hpt",
            "--accesses", "100000", "--chunk", "50000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "anb" in out and "m5-hpt" in out and "norm" in out

    def test_norm_is_the_p99_score_when_measured(self, monkeypatch, capsys):
        """A policy that halves the p99 at the same execution time
        scores 2 on a latency-sensitive benchmark."""
        from repro import cli

        class FixedRun:
            def __init__(self, workload, config, policy):
                self.policy = policy

            def run(self):
                p99 = 10.0 if self.policy == "none" else 5.0
                return SimpleNamespace(p99_latency_us=p99,
                                       execution_time_s=1.0,
                                       promoted=0, demoted=0)

        monkeypatch.setattr(cli, "Simulation", FixedRun)
        assert main(["compare", "--bench", "redis", "--policies", "anb",
                     "--accesses", "100000"]) == 0
        row = [line.split() for line in capsys.readouterr().out.splitlines()
               if line.split()[:1] == ["anb"]]
        assert row == [["anb", "1.000", "2.000", "0", "0"]]

    def test_zero_p99_is_rejected_like_the_sweep(self, monkeypatch):
        """compare scores with the sweep's Fig. 9 score, which refuses a
        measured p99 of 0.0 instead of switching to execution time."""
        from repro import cli

        class ZeroP99Run:
            def __init__(self, *args, **kwargs):
                pass

            def run(self):
                return SimpleNamespace(p99_latency_us=0.0,
                                       execution_time_s=1.0,
                                       promoted=0, demoted=0)

        monkeypatch.setattr(cli, "Simulation", ZeroP99Run)
        with pytest.raises(ValueError, match="p99 latency measured as 0.0"):
            main(["compare", "--bench", "redis", "--policies", "anb",
                  "--accesses", "100000"])

    def test_unknown_policy_rejected(self, capsys):
        rc = main([
            "compare", "--bench", "mcf", "--policies", "tpp2",
            "--accesses", "100000",
        ])
        assert rc == 2


class TestHwcost:
    def test_table_printed(self, capsys):
        assert main(["hwcost"]) == 0
        out = capsys.readouterr().out
        assert "33.6x area" in out


class TestRunCheckpointResume:
    def test_checkpoint_then_resume_reproduces_summary(
        self, capsys, tmp_path
    ):
        ckpt = tmp_path / "run.ckpt"
        rc = main([
            "run", "--bench", "mcf", "--policy", "m5-hpt",
            "--accesses", "200000", "--chunk", "20000",
            "--checkpoint", str(ckpt), "--checkpoint-every", "3",
        ])
        assert rc == 0
        full = capsys.readouterr().out
        assert "checkpoints   : 3 written" in full
        assert ckpt.exists()

        rc = main(["run", "--resume", str(ckpt)])
        assert rc == 0
        resumed = capsys.readouterr().out
        assert "resuming from" in resumed
        # The resumed tail lands on the uninterrupted run's summary,
        # line for line.
        for key in ("execution time", "promoted", "DDR/CXL pages"):
            (line,) = [l for l in full.splitlines() if l.startswith(key)]
            assert line in resumed

    def test_resume_prints_the_checkpointed_runs_summary_lines(
        self, capsys, tmp_path
    ):
        """The invariants and async-queue lines follow the restored
        run's config, not the (default) flags of the resuming call."""
        ckpt = tmp_path / "c.ckpt"
        assert main([
            "run", "--bench", "mcf", "--policy", "m5-hpt",
            "--accesses", "200000", "--chunk", "20000",
            "--migration-mode", "async", "--check-invariants",
            "--checkpoint", str(ckpt), "--checkpoint-every", "4",
        ]) == 0
        full = capsys.readouterr().out
        assert main(["run", "--resume", str(ckpt)]) == 0
        resumed = capsys.readouterr().out
        for key in ("invariants", "async queue"):
            (line,) = [l for l in full.splitlines() if l.startswith(key)]
            assert line in resumed

    def test_resume_missing_file_errors(self, capsys, tmp_path):
        assert main(["run", "--resume", str(tmp_path / "no.ckpt")]) == 2
        assert "cannot resume" in capsys.readouterr().out

    def test_resume_truncated_checkpoint_errors(self, capsys, tmp_path):
        ckpt = tmp_path / "run.ckpt"
        assert main([
            "run", "--bench", "mcf", "--accesses", "40000", "--chunk",
            "20000", "--checkpoint", str(ckpt), "--checkpoint-every", "1",
        ]) == 0
        ckpt.write_bytes(ckpt.read_bytes()[:-100])
        capsys.readouterr()
        assert main(["run", "--resume", str(ckpt)]) == 2
        assert "truncated" in capsys.readouterr().out


@pytest.fixture(scope="module")
def instrumented_ckpt(tmp_path_factory):
    """A run checkpoint carrying a metrics registry and a watchdog."""
    tmp = tmp_path_factory.mktemp("resume")
    ckpt = tmp / "run.ckpt"
    assert main([
        "run", "--bench", "mcf", "--accesses", "60000", "--chunk", "20000",
        "--metrics", str(tmp / "m.json"), "--slo-rules", "default",
        "--checkpoint", str(ckpt), "--checkpoint-every", "2",
    ]) == 0
    return ckpt


class TestResumeFlags:
    """Every ``run`` option on the ``--resume`` path is honoured or
    refused with exit 2, never silently dropped."""

    @staticmethod
    def honoured(flag, tmp):
        """(argv walking ``flag``, output proving it was honoured), or
        None for an option a resume must refuse."""
        if flag == "--metrics":
            return (["--metrics", str(tmp / "m.json")],
                    f"metrics snapshot written to {tmp / 'm.json'}")
        if flag == "--serve":
            return ["--serve"], "live metrics  : http://"
        if flag == "--serve-port":
            port = _free_port()
            return ["--serve", "--serve-port", str(port)], f":{port}/metrics"
        if flag == "--serve-linger":
            return (["--serve", "--serve-linger", "0.01"],
                    "serving the final snapshot for 0.01s")
        return None

    @pytest.mark.parametrize("action", _run_actions(),
                             ids=lambda a: a.option_strings[0])
    def test_resume_walks_every_run_option(
        self, capsys, tmp_path, instrumented_ckpt, action
    ):
        flag = action.option_strings[0]
        honoured = self.honoured(flag, tmp_path)
        argv = honoured[0] if honoured else _non_default_argv(action, tmp_path)
        rc = main(["run", "--resume", str(instrumented_ckpt), *argv])
        out = capsys.readouterr().out
        if honoured:
            assert rc == 0, out
            assert honoured[1] in out
        else:
            assert rc == 2
            assert _refused(out) == [flag]
            assert "resuming from" not in out

    def test_resume_names_every_refused_flag(self, capsys, tmp_path,
                                             instrumented_ckpt):
        rc = main(["run", "--resume", str(instrumented_ckpt),
                   "--timeline", str(tmp_path / "t.jsonl"),
                   "--trace", str(tmp_path / "t.json")])
        assert rc == 2
        assert _refused(capsys.readouterr().out) == ["--timeline", "--trace"]
        assert not (tmp_path / "t.jsonl").exists()

    def test_outputs_of_missing_instruments_are_refused(self, capsys, tmp_path):
        ckpt = tmp_path / "plain.ckpt"
        assert main(["run", "--bench", "mcf", "--accesses", "40000",
                     "--chunk", "20000", "--checkpoint", str(ckpt),
                     "--checkpoint-every", "1"]) == 0
        capsys.readouterr()
        rc = main(["run", "--resume", str(ckpt), "--serve",
                   "--metrics", str(tmp_path / "m.json")])
        assert rc == 2
        assert set(_refused(capsys.readouterr().out)) == {
            "--serve", "--metrics"}


class TestServeCommand:
    @staticmethod
    def make_traces(tmp_path):
        from repro.workloads import record, uniform_workload

        p1 = record(uniform_workload(footprint_pages=2048, seed=41),
                    8 * 4096, tmp_path / "a.rtrace", chunk_size=4096)
        p2 = record(uniform_workload(footprint_pages=2048, seed=42),
                    6 * 4096, tmp_path / "b.rtrace", chunk_size=4096)
        return p1, p2

    def serve(self, *argv):
        return main(["serve", "--chunk", "4096", "--no-http", *argv])

    def test_serve_two_streams_to_completion(self, capsys, tmp_path):
        import json

        p1, p2 = self.make_traces(tmp_path)
        out = tmp_path / "serve.json"
        rc = self.serve(
            "--stream", f"a={p1}",
            "--stream", f"b={p2},policy=anb,budget=8192",
            "--out", str(out),
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "rounds" in text
        payload = json.loads(out.read_text())
        assert payload["unfinished"] == []
        assert set(payload["streams"]) == {"a", "b"}
        assert payload["streams"]["b"]["policy"] == "anb"

    def test_serve_kill_resume_matches_uninterrupted(self, capsys, tmp_path):
        import json

        p1, p2 = self.make_traces(tmp_path)
        streams = [
            "--stream", f"a={p1},budget=8192",
            "--stream", f"b={p2},budget=4096",
        ]
        base_out = tmp_path / "base.json"
        assert self.serve(*streams, "--out", str(base_out)) == 0

        ckpt_dir = tmp_path / "ckpt"
        part_out = tmp_path / "part.json"
        rc = self.serve(
            *streams, "--checkpoint-dir", str(ckpt_dir),
            "--checkpoint-every", "1", "--max-rounds", "2",
            "--out", str(part_out),
        )
        assert rc == 0
        assert json.loads(part_out.read_text())["streams"] == {}

        res_out = tmp_path / "res.json"
        rc = main(["serve", "--no-http", "--resume", str(ckpt_dir),
                   "--max-rounds", "0", "--out", str(res_out)])
        assert rc == 0
        capsys.readouterr()
        base = json.loads(base_out.read_text())
        res = json.loads(res_out.read_text())
        assert res["unfinished"] == []
        assert res["streams"] == base["streams"]

    def test_serve_resume_truncated_checkpoint_errors(self, capsys,
                                                      tmp_path):
        p1, _ = self.make_traces(tmp_path)
        ckpt_dir = tmp_path / "ckpt"
        assert self.serve("--stream", f"a={p1}", "--checkpoint-dir",
                          str(ckpt_dir), "--checkpoint-every", "1",
                          "--max-rounds", "1") == 0
        ckpt = ckpt_dir / "service.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2])
        capsys.readouterr()
        assert main(["serve", "--no-http", "--resume", str(ckpt_dir)]) == 2
        assert "truncated" in capsys.readouterr().out

    def test_serve_rejects_an_older_trace_format(self, capsys, tmp_path):
        from repro.workloads.traceio import TRACE_MAGIC

        p1, _ = self.make_traces(tmp_path)
        old = tmp_path / "old.rtrace"
        old.write_bytes(b"RTRACE02" + p1.read_bytes()[len(TRACE_MAGIC):])
        assert self.serve("--stream", f"a={old}") == 2
        out = capsys.readouterr().out
        assert "cannot start service" in out
        assert "version 2" in out

    def test_serve_resume_over_an_older_trace_format_errors(self, capsys,
                                                            tmp_path):
        from repro.workloads.traceio import TRACE_MAGIC

        p1, _ = self.make_traces(tmp_path)
        ckpt_dir = tmp_path / "ckpt"
        assert self.serve("--stream", f"a={p1}", "--checkpoint-dir",
                          str(ckpt_dir), "--checkpoint-every", "1",
                          "--max-rounds", "1") == 0
        p1.write_bytes(b"RTRACE02" + p1.read_bytes()[len(TRACE_MAGIC):])
        capsys.readouterr()
        assert main(["serve", "--no-http", "--resume", str(ckpt_dir)]) == 2
        out = capsys.readouterr().out
        assert "cannot resume service" in out
        assert "version 2" in out

    def test_serve_requires_streams(self, capsys):
        assert main(["serve", "--no-http"]) == 2
        assert "--stream" in capsys.readouterr().out

    def test_serve_rejects_bad_stream_spec(self, capsys, tmp_path):
        assert self.serve("--stream", "just-a-name") == 2
        assert "NAME=TRACE" in capsys.readouterr().out
        assert self.serve("--stream", "a=t.rtrace,policy=bogus") == 2
        assert "unknown policy" in capsys.readouterr().out


class TestLiveEndpoint:
    @pytest.mark.parametrize("argv", [
        ["run", "--bench", "mcf", "--serve", "--serve-port", "70000"],
        ["sweep", "--serve", "--serve-port", "70000"],
        ["fleet", "--serve", "--serve-port", "65536"],
        ["serve", "--port", "70000"],
    ])
    def test_out_of_range_port_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "0-65535" in err

    def test_serving_lingers_only_after_success(self, monkeypatch, capsys):
        from repro import cli
        from repro.obs import MetricsRegistry

        slept = []
        monkeypatch.setattr(cli.time, "sleep", slept.append)
        with cli._serving(MetricsRegistry(), 0, linger=5.0):
            pass
        assert slept == [5.0]
        with pytest.raises(RuntimeError):
            with cli._serving(MetricsRegistry(), 0, linger=5.0):
                raise RuntimeError("run failed")
        assert slept == [5.0]
        assert capsys.readouterr().out.count("live metrics  : http://") == 2


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_run_requires_bench(self, capsys):
        # --bench became optional at parse time (a --resume run takes
        # everything from the checkpoint), so the check is a runtime
        # error with the CLI's usual exit code.
        assert main(["run"]) == 2
        assert "--bench is required" in capsys.readouterr().out

    def test_engine_flag_is_a_usage_error(self, capsys):
        # The per-access reference models live in repro.verify; the
        # CLI has one hot path and no knob to select another.
        with pytest.raises(SystemExit) as exc:
            main(["run", "--bench", "mcf", "--engine", "batched"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err
