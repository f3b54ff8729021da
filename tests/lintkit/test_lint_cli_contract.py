"""The ``python -m repro lint`` CI contract, exercised as a subprocess:
exit codes 0/1/2 and ``--update-registries``."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_GATING = """
    import random

    x = random.random()
"""


def run_lint(tmp_path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(tmp_path),
         "--root", str(tmp_path), *args],
        capture_output=True, text=True, env=env,
    )


def write_tree(tmp_path, source):
    target = tmp_path / "src" / "repro" / "sim" / "x.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))


def test_exit_zero_on_clean_tree(tmp_path):
    write_tree(tmp_path, "x = 1\n")
    proc = run_lint(tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_exit_one_on_gating_finding(tmp_path):
    write_tree(tmp_path, _GATING)
    proc = run_lint(tmp_path, "--rules", "DET001")
    assert proc.returncode == 1
    assert "DET001" in proc.stdout


def test_exit_two_on_unknown_rule(tmp_path):
    write_tree(tmp_path, "x = 1\n")
    proc = run_lint(tmp_path, "--rules", "NOPE001")
    assert proc.returncode == 2
    assert "NOPE001" in proc.stderr


def test_update_registries_writes_extracted_names(tmp_path):
    target = tmp_path / "src" / "repro" / "obs" / "emit.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent("""
        def emit(bus, registry):
            bus.publish("epoch", {})
            registry.counter("pages_migrated_total")
    """))
    proc = run_lint(tmp_path, "--update-registries")
    assert proc.returncode == 0, proc.stderr
    assert "registry updated" in proc.stdout
    registries = tmp_path / "docs" / "registries"
    events = json.loads((registries / "telemetry_events.json").read_text())
    families = json.loads((registries / "metric_families.json").read_text())
    assert list(events["events"]) == ["epoch"]
    assert list(families["families"]) == ["pages_migrated_total"]
