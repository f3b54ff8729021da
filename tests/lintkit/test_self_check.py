"""Self-check: the real source tree must lint clean, within the
checked-in suppression budget (``repro lint`` exits 0 on ``src/``,
``tools/`` and ``examples/`` with at most 10 suppressions across
them)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lintkit import format_human, lint_project, load_project
from repro.lintkit.suppressions import count_disable_comments

REPO_ROOT = Path(__file__).resolve().parents[2]

SUPPRESSION_BUDGET = 10


def test_src_tree_lints_clean():
    project = load_project([str(REPO_ROOT / "src")], root=str(REPO_ROOT))
    result = lint_project(project)
    assert result.ok, "\n" + format_human(result)


def test_src_suppression_budget():
    total = 0
    offenders = []
    paths = [
        path
        for tree in ("src", "tools", "examples")
        for path in sorted((REPO_ROOT / tree).rglob("*.py"))
    ]
    for path in paths:
        count = count_disable_comments(path.read_text())
        if count:
            offenders.append((str(path.relative_to(REPO_ROOT)), count))
            total += count
    assert total <= SUPPRESSION_BUDGET, offenders


def test_tools_and_examples_lint_clean():
    paths = [str(REPO_ROOT / "tools"), str(REPO_ROOT / "examples")]
    project = load_project(paths, root=str(REPO_ROOT))
    result = lint_project(project)
    assert result.ok, "\n" + format_human(result)


@pytest.mark.parametrize(
    "package", ["repro.sim", "repro.service", "repro.workloads"]
)
def test_runtime_packages_do_not_import_lintkit(package):
    # lintkit is dev tooling: the simulation, service and workload
    # layers (everything the benchmark runs) must not load it.
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    code = (
        f"import sys, importlib; importlib.import_module({package!r}); "
        "print(sorted(m for m in sys.modules if m.startswith('repro.lintkit')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
