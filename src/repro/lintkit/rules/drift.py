"""DRIFT001–DRIFT003: registry drift rules.

Three name spaces in this codebase are easy to let rot: the
``SimConfig`` knobs vs the CLI flags that expose them, the telemetry
event names the pipeline publishes, and the metric families the
instruments register.  Each has a checked-in registry under
``docs/registries/``; these rules diff source against registry *in
both directions*, so adding a knob/event/metric without documenting
it — or documenting one that no longer exists — fails the lint run.

Registry workflow: ``repro lint --update-registries``
regenerates the two extraction-based registries (telemetry events,
metric families) from source, preserving existing descriptions;
``config_cli.json`` is maintained by hand because the flag-or-exempt
decision is a design choice, not an extraction.
"""

from __future__ import annotations

import ast
import json
import os
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lintkit.base import Rule, register
from repro.lintkit.context import FileContext, Project
from repro.lintkit.findings import Finding

CONFIG_REGISTRY = "config_cli.json"
EVENTS_REGISTRY = "telemetry_events.json"
METRICS_REGISTRY = "metric_families.json"

_CONFIG_MODULE = "repro/sim/config.py"
_CLI_MODULE = "repro/cli.py"


def _load_registry(project: Project, name: str) -> Optional[dict]:
    path = project.registry_path(name)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def _registry_rel(project: Project, name: str) -> str:
    return f"docs/registries/{name}"


def dataclass_fields(ctx: FileContext, class_name: str) -> Dict[str, int]:
    """``class_name`` dataclass field names -> line numbers."""
    fields: Dict[str, int] = {}
    if ctx.tree is None:
        return fields
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and not stmt.target.id.startswith("_")
                ):
                    fields[stmt.target.id] = stmt.lineno
    return fields


def simconfig_fields(ctx: FileContext) -> Dict[str, int]:
    """SimConfig dataclass field names -> line numbers."""
    return dataclass_fields(ctx, "SimConfig")


def cli_flags(ctx: FileContext) -> Set[str]:
    """Every ``--flag`` string literal passed to ``add_argument``."""
    flags: Set[str] = set()
    if ctx.tree is None:
        return flags
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            for arg in node.args:
                if (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value.startswith("--")
                ):
                    flags.add(arg.value)
    return flags


def extract_events(files: Iterable[FileContext]) -> Dict[str, List[Tuple[str, int]]]:
    """Literal first arguments of ``*.publish(...)`` calls, by name."""
    return _extract_string_calls(files, {"publish"})


def extract_metric_families(
    files: Iterable[FileContext],
) -> Dict[str, List[Tuple[str, int]]]:
    """Literal first arguments of instrument registrations, by name."""
    return _extract_string_calls(files, {"counter", "gauge", "histogram"})


def _extract_string_calls(
    files: Iterable[FileContext], methods: Set[str]
) -> Dict[str, List[Tuple[str, int]]]:
    out: Dict[str, List[Tuple[str, int]]] = {}
    for ctx in files:
        if ctx.tree is None or "repro/lintkit/" in ctx.rel:
            continue
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in methods
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                out.setdefault(node.args[0].value, []).append(
                    (ctx.rel, node.lineno)
                )
    return out


@register
class ConfigCliDrift(Rule):
    """DRIFT001: ``SimConfig`` fields vs CLI flags vs the registry.

    Every field needs either a ``--flag`` (which must exist in
    ``cli.py``) or an ``exempt`` reason in ``config_cli.json``; every
    registry entry must still name a real field.
    """

    id = "DRIFT001"
    title = "SimConfig/CLI/registry drift"
    fix_hint = (
        "add the field to docs/registries/config_cli.json with its CLI "
        "flag, or record an `exempt` reason there"
    )

    #: Checked config dataclasses -> their registry section.  A class
    #: absent from the tree is skipped (fixture trees predating it).
    CONFIG_CLASSES = (
        ("SimConfig", "fields"),
        ("FleetConfig", "fleet_fields"),
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        config = project.file_ending_with(_CONFIG_MODULE)
        cli = project.file_ending_with(_CLI_MODULE)
        if config is None:
            return  # partial tree: nothing to diff
        registry = _load_registry(project, CONFIG_REGISTRY)
        reg_rel = _registry_rel(project, CONFIG_REGISTRY)
        if registry is None:
            yield self.finding(
                reg_rel, 1,
                f"registry file {CONFIG_REGISTRY} is missing",
                fix_hint="create it; see docs/static_analysis.md",
            )
            return
        flags = cli_flags(cli) if cli is not None else None
        for class_name, section in self.CONFIG_CLASSES:
            fields = dataclass_fields(config, class_name)
            if not fields:
                continue  # class absent from this tree: nothing to diff
            yield from self._diff_class(
                config, reg_rel, class_name,
                registry.get(section, {}), fields, flags,
            )

    def _diff_class(
        self,
        config: FileContext,
        reg_rel: str,
        class_name: str,
        entries: Dict[str, dict],
        fields: Dict[str, int],
        flags: Optional[Set[str]],
    ) -> Iterable[Finding]:
        for name, line in fields.items():
            entry = entries.get(name)
            if entry is None:
                yield self.finding(
                    config, line,
                    f"{class_name}.{name} has no entry in {CONFIG_REGISTRY} "
                    "(flag or exemption required)",
                )
                continue
            has_flag = "flag" in entry
            has_exempt = "exempt" in entry
            if has_flag == has_exempt:
                yield self.finding(
                    reg_rel, 1,
                    f"registry entry `{name}` must have exactly one of "
                    "`flag` / `exempt`",
                )
            elif has_flag and flags is not None and entry["flag"] not in flags:
                yield self.finding(
                    reg_rel, 1,
                    f"registry maps {class_name}.{name} to `{entry['flag']}` "
                    "but cli.py defines no such flag",
                    fix_hint="add the add_argument, or switch the entry to "
                    "an `exempt` reason",
                )
        for name in entries:
            if name not in fields:
                yield self.finding(
                    reg_rel, 1,
                    f"registry lists `{name}` but {class_name} has no such "
                    "field",
                    fix_hint="delete the stale registry entry",
                )


class _ExtractionDrift(Rule):
    """Shared two-way diff for the extraction-based registries."""

    registry_file = ""
    registry_key = ""
    thing = ""

    def _extract(self, files: Iterable[FileContext]) -> Dict[str, List[Tuple[str, int]]]:
        raise NotImplementedError

    def check_project(self, project: Project) -> Iterable[Finding]:
        emitted = self._extract(project.files)
        if not emitted and project.file_ending_with(_CONFIG_MODULE) is None:
            return  # fixture trees without the subsystem: stay quiet
        registry = _load_registry(project, self.registry_file)
        reg_rel = _registry_rel(project, self.registry_file)
        if registry is None:
            yield self.finding(
                reg_rel, 1,
                f"registry file {self.registry_file} is missing",
                fix_hint="run `python -m repro lint --update-registries`",
            )
            return
        documented = set(registry.get(self.registry_key, {}))
        for name, sites in sorted(emitted.items()):
            if name not in documented:
                rel, line = sites[0]
                yield self.finding(
                    rel, line,
                    f"{self.thing} `{name}` is emitted here but missing from "
                    f"{self.registry_file}",
                    fix_hint="run `python -m repro lint --update-registries` and "
                    "fill in the description",
                )
        # The reverse diff (documented-but-not-emitted) only makes
        # sense for a full-tree scan; use the presence of the config
        # module as the full-tree proxy so subtree lints stay quiet.
        if project.file_ending_with(_CONFIG_MODULE) is not None:
            for name in sorted(documented - set(emitted)):
                yield self.finding(
                    reg_rel, 1,
                    f"{self.thing} `{name}` is documented in "
                    f"{self.registry_file} but no longer emitted by source",
                    fix_hint="delete the stale entry (or restore the emitter)",
                )


@register
class TelemetryEventDrift(_ExtractionDrift):
    """DRIFT002: telemetry event names vs ``telemetry_events.json``."""

    id = "DRIFT002"
    title = "telemetry event registry drift"
    registry_file = EVENTS_REGISTRY
    registry_key = "events"
    thing = "telemetry event"

    def _extract(self, files):
        return extract_events(files)


@register
class MetricFamilyDrift(_ExtractionDrift):
    """DRIFT003: metric family names vs ``metric_families.json``."""

    id = "DRIFT003"
    title = "metric family registry drift"
    registry_file = METRICS_REGISTRY
    registry_key = "families"
    thing = "metric family"

    def _extract(self, files):
        return extract_metric_families(files)


def update_registries(project: Project) -> List[str]:
    """Regenerate the extraction-based registries from source.

    Existing descriptions are preserved; new names get a ``TODO``
    placeholder the maintainer fills in.  Returns the files written.
    """
    written: List[str] = []
    for registry_file, key, extract in (
        (EVENTS_REGISTRY, "events", extract_events),
        (METRICS_REGISTRY, "families", extract_metric_families),
    ):
        emitted = extract(project.files)
        existing = _load_registry(project, registry_file) or {}
        old = existing.get(key, {})
        entries = {
            name: old.get(name, "TODO: describe")
            for name in sorted(emitted)
        }
        path = project.registry_path(registry_file)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({key: entries}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    return written
