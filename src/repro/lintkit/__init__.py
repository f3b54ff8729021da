"""Project-aware static analysis for the M5 reproduction.

``repro.lintkit`` walks the source tree's ASTs and enforces the
properties the runtime guard layers (telemetry, metrics, invariants,
differential oracles) can only check *after* a simulation has run:

* **determinism** (``DET001``–``DET004``) — no global-state RNG draws,
  no wall-clock reads in simulation hot paths outside the
  observability layer, no iteration-order dependence on sets, every
  ``numpy.random.Generator`` seeded from a seed-derived expression;
* **dimensional consistency** (``UNIT001``–``UNIT003``) — variables
  carrying a unit suffix (``_us``, ``_ns``, ``_s``, ``_gbps``,
  ``_bytes``, ``_pages``, …) may only mix through explicit
  conversions;
* **hot-path loops** (``PERF001``) — no per-element iteration over an
  ndarray in the simulation's hot layers;
* **registry drift** (``DRIFT001``–``DRIFT003``) — ``SimConfig``
  knobs, telemetry event names, and metric families stay in sync with
  the checked-in registries under ``docs/registries/``.

Checkpoint crash and pickle safety has no rule: the round-trip and
publish tests in ``tests/sim/test_checkpoint.py`` check it on the real
envelope.

Run it as ``repro lint``; suppress a deliberate exception with a
``# lint: disable=RULE`` comment (unused suppressions are themselves
flagged as ``SUP001``).  ``repro lint --update-registries``
regenerates the extraction-based registries.  See
``docs/static_analysis.md`` for the full catalogue and the
registry-file workflow.
"""

from repro.lintkit.base import RULE_REGISTRY, Rule, all_rules, register
from repro.lintkit.context import FileContext, Project
from repro.lintkit.engine import (
    LintResult,
    add_arguments,
    format_human,
    format_json,
    lint_project,
    load_project,
    run_from_args,
)
from repro.lintkit.findings import Finding, Severity

# Importing the rule modules registers every rule in RULE_REGISTRY.
from repro.lintkit import rules as _rules  # noqa: F401

__all__ = [
    "Finding",
    "Severity",
    "Rule",
    "register",
    "all_rules",
    "RULE_REGISTRY",
    "FileContext",
    "Project",
    "LintResult",
    "lint_project",
    "load_project",
    "format_human",
    "format_json",
    "add_arguments",
    "run_from_args",
]
