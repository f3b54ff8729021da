"""The host-speed probe must not depend on the code under test."""

from __future__ import annotations

import ast
import subprocess
import sys

from conftest import BENCH


def test_probe_module_imports_nothing_from_repro():
    tree = ast.parse((BENCH / "probe.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"__future__", "time", "typing", "zlib", "numpy"}, imported


def test_running_the_probe_loads_no_repro_module():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from probe import probe_s;"
        "t = probe_s();"
        "assert t > 0, t;"
        "bad = [m for m in sys.modules if m == 'repro' or m.startswith('repro.')];"
        "assert not bad, bad"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH)],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
