"""Project-level analysis model for :mod:`repro.lintkit`.

The per-file visitor rules (DET/UNIT/PERF/…) see one AST at a time;
the CRASH/PICKLE rule families need to reason about *protocols* that
span functions, classes, and modules — "does anything this
checkpoint writer calls reach ``os.fsync``?", "which classes end up
inside the checkpoint pickle?".  This subpackage supplies that view:

* :mod:`~repro.lintkit.model.builder` — the symbol table: every
  module, class, and function in the linted tree under its dotted
  qualname, with import aliases resolved;
* :mod:`~repro.lintkit.model.summaries` — per-function and per-class
  summaries (call sites, attribute writes, durable file writes and
  their publishing replaces, fsync calls, attribute→class bindings)
  computed in one AST walk per function;
* :mod:`~repro.lintkit.model.queries` — the module-granular call
  graph plus the fixpoint/reachability queries rules consume
  (fsync-calling functions, pickle-reachable classes with provenance
  paths).

Build one with :func:`get_model`; the instance is cached on the
:class:`~repro.lintkit.context.Project`, so every rule in a run
shares a single symbol table and call graph.
"""

from repro.lintkit.model.builder import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
    get_model,
    module_name_for,
)
from repro.lintkit.model.summaries import (
    AttrWrite,
    CallSite,
    DurableWrite,
    ReplaceCall,
)

__all__ = [
    "ProjectModel",
    "ModuleInfo",
    "ClassInfo",
    "FunctionInfo",
    "CallSite",
    "AttrWrite",
    "DurableWrite",
    "ReplaceCall",
    "get_model",
    "module_name_for",
]
