"""Shared fixtures for the benchmark's own tests.

Run from the repository root::

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import ModuleType
from typing import List

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def load(name: str) -> ModuleType:
    """Import ``bench/<name>.py`` by path (``trace`` would otherwise
    collide with the standard library module of that name)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def run_bench(args: List[str], cwd: Path = ROOT, timeout: float = 60.0
              ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="session")
def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)
