"""Tests for the command-line interface."""

import pytest

from repro.cli import main


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
            "--accesses", "1200000", "--chunk", "1024",
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

    def test_cells_use_the_run_config_flags(self, monkeypatch, capsys):
        from repro import cli

        seen = {}

        def fake_run_matrix(benches, policies, factory, seed, jobs):
            seen["config"] = factory()
            return {b: {p: 1.0 for p in policies} for b in benches}

        monkeypatch.setattr(cli, "run_matrix", fake_run_matrix)
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


class TestFleet:
    def test_slo_rules_apply_without_serve(self, capsys):
        rc = main([
            "fleet", "--tenants", "2", "--tiers", "2", "--bench", "mcf",
            "--accesses", "60000", "--chunk", "15000",
            "--slo-rules", "default",
        ])
        assert rc == 0
        assert "slo           : all 4 rules green" in capsys.readouterr().out

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

    def test_record_series_applies_without_serve(self, monkeypatch):
        fleets = self._recording_fleet(monkeypatch)
        rc = main([
            "fleet", "--tenants", "2", "--tiers", "2", "--bench", "mcf",
            "--accesses", "60000", "--chunk", "15000",
            "--record-series", "default",
        ])
        assert rc == 0
        (fsim,) = fleets
        assert fsim.recorder is not None
        assert fsim.recorder.rows == fsim.result.epochs
        assert any(c.startswith("fleet_tenant_slowdown")
                   for c in fsim.recorder.columns())
        assert fsim.watchdog is None

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
        assert all(r.extra["invariant_violations"] == 0 for r in results)
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

    def test_unknown_policy_rejected(self, capsys):
        rc = main([
            "compare", "--bench", "mcf", "--policies", "tpp2",
            "--accesses", "100000",
        ])
        assert rc == 2


class TestProfile:
    def test_profile_output(self, capsys):
        rc = main([
            "profile", "--bench", "redis",
            "--accesses", "200000", "--chunk", "50000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "P(<=  4 words)" in out
        assert "page character : sparse" in out


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
