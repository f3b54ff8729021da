"""Lint engine: file collection, rule dispatch, suppression
accounting, and the ``repro lint`` arguments and runner."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, List, Optional, Sequence

from repro.lintkit.base import RULE_REGISTRY, all_rules
from repro.lintkit.context import FileContext, Project
from repro.lintkit.findings import Finding, Severity, Summary

#: Directories never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "node_modules"}


class LintResult:
    """Outcome of one lint run."""

    def __init__(self, findings: List[Finding], summary: Summary):
        self.findings = findings
        self.summary = summary

    @property
    def ok(self) -> bool:
        """True when no finding remains."""
        return not self.findings

    def exit_code(self) -> int:
        return 0 if self.ok else 1


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Every ``.py`` file under the given files/directories, sorted."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                out.append(os.path.abspath(path))
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
            for name in sorted(filenames):
                if name.endswith(".py"):
                    out.append(os.path.abspath(os.path.join(dirpath, name)))
    return sorted(set(out))


def load_project(paths: Sequence[str], root: Optional[str] = None) -> Project:
    """Parse every file under ``paths`` into a :class:`Project`.

    ``root`` anchors relative paths and the ``docs/registries/``
    lookups; it defaults to the current working directory.
    """
    root = os.path.abspath(root or os.getcwd())
    files = []
    for path in iter_python_files(paths):
        try:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
        except (OSError, UnicodeDecodeError):
            continue
        rel = os.path.relpath(path, root)
        files.append(FileContext(path, rel, source))
    return Project(root, files)


def lint_project(
    project: Project, only_rules: Optional[Iterable[str]] = None
) -> LintResult:
    """Run every rule over the project and account suppressions."""
    rules = all_rules(only_rules)
    summary = Summary(files=len(project.files))
    raw: List[Finding] = []

    for ctx in project.files:
        if ctx.syntax_error is not None:
            raw.append(
                Finding(
                    rule="PARSE",
                    path=ctx.rel,
                    line=ctx.syntax_error.lineno or 1,
                    col=(ctx.syntax_error.offset or 1) - 1,
                    message=f"syntax error: {ctx.syntax_error.msg}",
                    severity=Severity.ERROR,
                )
            )
            continue
        for rule in rules:
            raw.extend(rule.check_file(ctx))
    for rule in rules:
        raw.extend(rule.check_project(project))

    by_rel = {ctx.rel: ctx for ctx in project.files}
    kept: List[Finding] = []
    for finding in raw:
        ctx = by_rel.get(finding.path)
        if ctx is not None and ctx.suppressions.consume(finding.rule, finding.line):
            summary.suppressed += 1
            stats = summary.by_rule.setdefault(
                finding.rule, {"findings": 0, "suppressed": 0}
            )
            stats["suppressed"] += 1
            continue
        kept.append(finding)

    # Unused suppressions are findings themselves (SUP001) so stale
    # exemptions cannot accumulate silently.  A suppression for a
    # registered rule that was not selected is neither: it is skipped.
    selected = {r.id for r in rules}
    for ctx in project.files:
        for entry in ctx.suppressions.unused():
            if entry.rule in RULE_REGISTRY and entry.rule not in selected:
                continue
            if entry.rule not in RULE_REGISTRY and entry.rule != "SUP001":
                message = (
                    f"suppression names unknown rule `{entry.rule}`"
                )
            else:
                message = (
                    f"unused suppression: `{entry.rule}` never fired on "
                    f"line {entry.target_line}"
                )
            kept.append(
                Finding(
                    rule="SUP001",
                    path=ctx.rel,
                    line=entry.comment_line,
                    col=0,
                    message=message,
                    severity=Severity.WARNING,
                    fix_hint="delete the stale `# lint: disable=` comment",
                )
            )

    kept.sort(key=Finding.sort_key)
    for finding in kept:
        stats = summary.by_rule.setdefault(
            finding.rule, {"findings": 0, "suppressed": 0}
        )
        stats["findings"] += 1
    summary.findings = len(kept)
    return LintResult(kept, summary)


def format_human(result: LintResult) -> str:
    lines = [f.format() for f in result.findings]
    s = result.summary
    lines.append(
        f"lint: {s.files} files, {s.findings} findings, "
        f"{s.suppressed} suppressed"
    )
    if s.findings:
        worst = sorted(s.by_rule.items())
        per_rule = ", ".join(
            f"{rule}={stats['findings']}" for rule, stats in worst
            if stats["findings"]
        )
        lines.append(f"by rule: {per_rule}")
    return "\n".join(lines)


def format_json(result: LintResult) -> str:
    s = result.summary
    return json.dumps(
        {
            "version": 1,
            "summary": {
                "files": s.files,
                "findings": s.findings,
                "suppressed": s.suppressed,
                "by_rule": s.by_rule,
            },
            "findings": [f.as_dict() for f in result.findings],
        },
        indent=2,
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro lint`` arguments to ``parser``."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--root", default=None,
        help="project root anchoring docs/registries/ (default: cwd)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="report format",
    )
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--update-registries", action="store_true",
        help="regenerate docs/registries/{telemetry_events,metric_families}"
        ".json from the scanned source and exit",
    )


def run_from_args(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  [{rule.severity}]  {rule.title}")
        return 0
    if args.update_registries:
        from repro.lintkit.rules.drift import update_registries

        project = load_project(args.paths, root=args.root)
        for path in update_registries(project):
            print(f"registry updated: {os.path.relpath(path, project.root)}")
        return 0
    only = (
        [r.strip() for r in args.rules.split(",") if r.strip()]
        if args.rules
        else None
    )
    try:
        project = load_project(args.paths, root=args.root)
        result = lint_project(project, only_rules=only)
    except KeyError as exc:
        print(f"lint: {exc.args[0]}", file=sys.stderr)
        return 2
    report = format_json(result) if args.format == "json" else format_human(result)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report + "\n")
        print(
            f"lint report written to {args.output} "
            f"({result.summary.findings} findings)"
        )
    else:
        print(report)
    return result.exit_code()
