"""End to end: the scaled-down suite, one ``--workload`` invocation,
``--compare``, and a checkout without sources."""

from __future__ import annotations

import json
import shutil

import pytest

from conftest import BENCH, ROOT, run_bench


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "results.json"
    proc = run_bench(["--smoke", "--seed", "5", "--out", str(out)], timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out, encoding="utf-8") as fh:
        return {"path": out, "stdout": proc.stdout, "results": json.load(fh)}


def test_every_workload_passes_and_reports_every_metric(smoke, spec):
    results = smoke["results"]["workloads"]
    assert list(results) == [w["name"] for w in spec["workloads"]]
    for summary in results.values():
        assert summary["failed"] == 0, summary["failures"]
        # Two timed runs, one traced run, one correctness check.
        assert summary["attempted"] == 4
        assert list(summary["end_to_end"]) == [m["name"] for m in spec["end_to_end"]]
        assert list(summary["per_layer"]) == [m["name"] for m in spec["per_layer"]]
        assert all(m["value"] > 0 for m in summary["end_to_end"].values())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["name"] in smoke["stdout"]


def test_every_traced_span_is_a_declared_metric(smoke, spec):
    declared = {m["name"] for m in spec["per_layer"]}
    for summary in smoke["results"]["workloads"].values():
        for span in summary["traced"]["spans"]:
            assert f"{span}.self_s" in declared and f"{span}.share" in declared


def test_sim_workloads_trace_most_of_their_time(smoke):
    for name, summary in smoke["results"]["workloads"].items():
        assert summary["per_layer"]["trace.coverage"]["value"] > 0.75, name


def test_traced_serve_replay_writes_a_checkpoint(smoke):
    traced = smoke["results"]["workloads"]["serve-replay"]["traced"]
    assert traced["counts"]["service.checkpoints"] >= 1
    assert traced["io"]["checkpoint_mb"] > 0


def test_compare_a_results_file_with_itself(smoke):
    path = str(smoke["path"])
    proc = run_bench(["--compare", path, path])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "COUNT CHANGED" not in proc.stdout
    assert "WORSE" not in proc.stdout
    assert "accesses_per_s" in proc.stdout


def test_one_workload_prints_one_result_line(spec):
    proc = run_bench(["--workload", "m5-async-redis", "--smoke", "--seed", "5",
                      "--seconds", "1", "--trace", "0"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_a_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = run_bench(["--workload", "m5-identify", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
