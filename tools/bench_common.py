"""Shared plumbing for the ``tools/bench_*.py`` micro-harnesses.

Each bench script records a JSON document at the repo root (picked up
as a CI artifact); the host context and the record writer live here.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict


def cpu_count() -> int:
    """Logical CPUs on this host (always at least 1)."""
    return os.cpu_count() or 1


def write_record(path: str, record: Dict[str, Any]) -> None:
    """Dump a bench record as stable, diff-friendly JSON."""
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"recorded to {os.path.abspath(path)}")
