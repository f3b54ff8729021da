"""Rule base class, registry, and shared AST helpers."""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Type

from repro.lintkit.context import FileContext, Project
from repro.lintkit.findings import Finding, Severity


class Rule:
    """One lint rule.

    Subclasses set the class attributes and override
    :meth:`check_file` (per-file rules) and/or :meth:`check_project`
    (cross-file rules such as the DRIFT registry diffs).  Both return
    iterables of :class:`Finding`; the engine applies suppressions.
    """

    id: str = ""
    title: str = ""
    severity: Severity = Severity.ERROR
    #: Default hint appended to findings that do not set their own.
    fix_hint: str = ""

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()

    def finding(
        self,
        ctx_or_rel,
        node_or_line,
        message: str,
        fix_hint: Optional[str] = None,
    ) -> Finding:
        """Build a finding for an AST node (or explicit line number)."""
        rel = ctx_or_rel.rel if isinstance(ctx_or_rel, FileContext) else str(ctx_or_rel)
        if isinstance(node_or_line, ast.AST):
            line = getattr(node_or_line, "lineno", 1)
            col = getattr(node_or_line, "col_offset", 0)
        else:
            line, col = int(node_or_line), 0
        return Finding(
            rule=self.id,
            path=rel,
            line=line,
            col=col,
            message=message,
            severity=self.severity,
            fix_hint=self.fix_hint if fix_hint is None else fix_hint,
        )


#: id -> rule class, populated by the :func:`register` decorator.
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in RULE_REGISTRY and RULE_REGISTRY[cls.id] is not cls:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULE_REGISTRY[cls.id] = cls
    return cls


def all_rules(only: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instantiate every registered rule (or the requested subset)."""
    wanted = None if only is None else set(only)
    rules = []
    for rule_id in sorted(RULE_REGISTRY):
        if wanted is None or rule_id in wanted:
            rules.append(RULE_REGISTRY[rule_id]())
    if wanted is not None:
        unknown = wanted - set(RULE_REGISTRY)
        if unknown:
            raise KeyError(f"unknown rules: {', '.join(sorted(unknown))}")
    return rules


# ----------------------------------------------------------------------
# shared AST helpers


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for nested Name/Attribute chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted module/object paths they bind.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from numpy import random`` -> ``{"random": "numpy.random"}``;
    ``from numpy.random import default_rng as rng`` ->
    ``{"rng": "numpy.random.default_rng"}``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def resolve_call_path(call: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """The fully-qualified dotted path of a call target, import-aware."""
    name = dotted_name(call.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    resolved_head = aliases.get(head, head)
    return f"{resolved_head}.{rest}" if rest else resolved_head


def identifiers_in(node: ast.AST) -> List[str]:
    """Every Name id and Attribute attr mentioned inside ``node``."""
    out: List[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.Call):
            called = dotted_name(sub.func)
            if called:
                out.extend(called.split("."))
    return out
