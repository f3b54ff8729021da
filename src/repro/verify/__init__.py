"""Correctness tooling: invariant checking, reference models and
differential oracles.

Four layers guard the repro's trackers and migration paths (see
``docs/verification.md``):

* :mod:`repro.verify.invariants` — per-epoch assertions wired into the
  pipeline behind ``SimConfig.check_invariants`` / ``repro run
  --check-invariants``: counter conservation, tier conservation,
  tracker/queue bounds, non-negative perf times.
* :mod:`repro.verify.reference` — the per-access reference models of
  every vectorized hot-path kernel, bound onto a component or a whole
  simulation by :func:`as_reference`.
* :mod:`repro.verify.differential` — paired-configuration oracles
  (``repro verify``): per-access vs chunked sketch, PAC cache vs
  direct mode, instant vs async-unlimited migration, reference models
  vs production pipeline (bit-exact), per-kernel reference vs
  production state, a 1-tenant, 2-tier fleet vs the single-run engine,
  and checkpoint-resumed vs uninterrupted runs (bit-exact), diffed
  with per-field tolerances.
* ``tests/verify/`` — Hypothesis property suites encoding the paper's
  analytical guarantees (CM-Sketch never underestimates, Space-Saving
  overestimates within N/K, exact-oracle CAM selection, MGLRU victim
  validity).
"""

from repro.verify.differential import (
    MIGRATION_TOLERANCES,
    ORACLES,
    DiffRow,
    OracleReport,
    diff_run_results,
    engine_oracle,
    fleet_oracle,
    kernels_oracle,
    migration_oracle,
    pac_oracle,
    resume_oracle,
    run_all,
    sketch_oracle,
)
from repro.verify.invariants import InvariantChecker, InvariantViolation
from repro.verify.reference import as_exact_sequence, as_reference

__all__ = [
    "InvariantChecker",
    "InvariantViolation",
    "DiffRow",
    "OracleReport",
    "MIGRATION_TOLERANCES",
    "ORACLES",
    "diff_run_results",
    "sketch_oracle",
    "pac_oracle",
    "migration_oracle",
    "engine_oracle",
    "fleet_oracle",
    "kernels_oracle",
    "resume_oracle",
    "run_all",
    "as_reference",
    "as_exact_sequence",
]
