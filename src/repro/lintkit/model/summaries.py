"""Per-function and per-class summaries for the project model.

One recursive walk per function collects everything the CRASH/PICKLE
rules need:

* :class:`CallSite` — every call, resolved module-granularly to
  project functions/classes (through import aliases and ``self.``
  method dispatch including project base classes) or to an external
  dotted path;
* :class:`AttrWrite` — every write to ``self.<attr>`` classified as a
  *rebind* (``self.x = …``) or a *mutation* (``self.x += …``,
  ``self.x[k] = …``);
* :class:`DurableWrite` / :class:`ReplaceCall` — file writes that
  land bytes on disk and the ``os.replace`` calls that publish them,
  each carrying the lowercase token bag of its path expression
  (identifiers + string literals, with one level of local-variable
  expansion) so the CRASH rules can classify checkpoint/tmp paths;
* ``os.fsync`` calls.

Class summaries aggregate the methods: attribute→class bindings (from
constructor calls, ``self.x: T`` annotations, class-body fields, and
``__init__`` parameter annotations — the edges pickle-reachability
walks), and custom-pickle (``__getstate__``/``__reduce__``) markers.

Nested ``def``s and ``lambda`` bodies are *not* folded into their
enclosing function's summary — they execute at some other time, so
their writes and calls belong to them.  Nested defs are summarized as
functions in their own right.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.lintkit.base import dotted_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lintkit.model.builder import (
        ClassInfo,
        FunctionInfo,
        ModuleInfo,
        ProjectModel,
    )

#: numpy savers that write a file at their first argument.
_NUMPY_SAVERS = {"numpy.savez", "numpy.savez_compressed", "numpy.save"}


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    candidates: List[str] = field(default_factory=list)  #: project qualnames
    external: Optional[str] = None  #: resolved dotted path for externals
    method: Optional[str] = None  #: trailing attribute for method calls


@dataclass
class AttrWrite:
    """One write to ``self.<attr>``."""

    attr: str
    node: ast.AST
    kind: str  #: ``rebind`` (self.x = …) or ``mutate`` (aug/subscript)
    value: Optional[ast.expr] = None  #: RHS for rebinds


@dataclass
class DurableWrite:
    """A call that lands bytes at a path (open-for-write,
    ``write_text``/``write_bytes``, numpy savers)."""

    node: ast.AST
    via: str  #: ``open`` / ``write_text`` / ``write_bytes`` / ``numpy``
    path_tokens: Set[str]


@dataclass
class ReplaceCall:
    """``os.replace(src, dst)`` or ``<tmp-path>.replace(dst)``."""

    node: ast.AST
    src_tokens: Set[str]
    dst_tokens: Set[str]


def expr_tokens(expr: ast.AST) -> Set[str]:
    """Lowercased identifiers and string literals inside ``expr``."""
    tokens: Set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            tokens.add(node.id.lower())
        elif isinstance(node, ast.Attribute):
            tokens.add(node.attr.lower())
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            tokens.add(node.value.lower())
    return tokens


class _FunctionWalker:
    """Single pass over one function body."""

    def __init__(
        self,
        model: "ProjectModel",
        module: "ModuleInfo",
        info: "FunctionInfo",
    ) -> None:
        self.model = model
        self.module = module
        self.info = info
        #: Local name -> RHS expression (for path-token expansion).
        self.local_values: Dict[str, ast.expr] = {}

    def run(self) -> None:
        # Pre-pass: local assignments, so path tokens can expand a
        # ``tmp = f"{path}.tmp"`` binding used before/after its write.
        for node in ast.walk(self.info.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    self.local_values.setdefault(target.id, node.value)
        for stmt in self.info.node.body:  # type: ignore[attr-defined]
            self._visit(stmt)

    # ------------------------------------------------------------------

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            return  # different execution context; summarized separately
        if isinstance(node, ast.Assign):
            self._record_assign(node)
        elif isinstance(node, ast.AugAssign):
            self._record_augassign(node)
        elif isinstance(node, ast.AnnAssign):
            self._record_annassign(node)
        if isinstance(node, ast.Call):
            self._record_call(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    # ------------------------------------------------------------------
    # attribute writes

    def _record_assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ) and target.value.id == "self":
                self.info.attr_writes.append(
                    AttrWrite(target.attr, node, "rebind", value=node.value)
                )
            elif isinstance(target, ast.Subscript):
                attr = self._self_attr(target.value)
                if attr is not None:
                    self.info.attr_writes.append(
                        AttrWrite(attr, node, "mutate")
                    )

    def _record_augassign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ) and target.value.id == "self":
            self.info.attr_writes.append(
                AttrWrite(target.attr, node, "mutate")
            )
        elif isinstance(target, ast.Subscript):
            attr = self._self_attr(target.value)
            if attr is not None:
                self.info.attr_writes.append(
                    AttrWrite(attr, node, "mutate")
                )

    def _record_annassign(self, node: ast.AnnAssign) -> None:
        target = node.target
        if node.value is not None and isinstance(
            target, ast.Attribute
        ) and isinstance(target.value, ast.Name) and target.value.id == "self":
            self.info.attr_writes.append(
                AttrWrite(target.attr, node, "rebind", value=node.value)
            )

    @staticmethod
    def _self_attr(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ) and expr.value.id == "self":
            return expr.attr
        return None

    # ------------------------------------------------------------------
    # calls

    def _record_call(self, call: ast.Call) -> None:
        site = CallSite(node=call)
        dotted = dotted_name(call.func)
        owner = self.info.owner
        if dotted is not None:
            head, _, rest = dotted.partition(".")
            if head == "self" and owner is not None and rest:
                if "." not in rest:
                    method = self.model.method_of(owner, rest)
                    if method is not None:
                        site.candidates.append(method.qualname)
                site.method = rest.rpartition(".")[2]
            else:
                target = self.model.resolve_function(self.module, dotted)
                cls = self.model.resolve_class(self.module, dotted)
                if target is not None:
                    site.candidates.append(target.qualname)
                elif cls is not None:
                    init = self.model.method_of(cls, "__init__")
                    if init is not None:
                        site.candidates.append(init.qualname)
                else:
                    site.external = _normalize_numpy(
                        self.module.resolve_alias(dotted)
                    )
                    if "." in dotted:
                        site.method = dotted.rpartition(".")[2]
        self.info.calls.append(site)
        self._classify_call(site)

    def _classify_call(self, site: CallSite) -> None:
        call = site.node
        external = site.external
        if external == "os.fsync":
            self.info.calls_fsync = True
        if external == "open" and _is_write_open(call) and call.args:
            self.info.durable_writes.append(
                DurableWrite(call, "open", self._path_tokens(call.args[0]))
            )
        elif site.method in ("write_text", "write_bytes") and isinstance(
            call.func, ast.Attribute
        ):
            self.info.durable_writes.append(
                DurableWrite(call, site.method,
                             self._path_tokens(call.func.value))
            )
        elif external in _NUMPY_SAVERS and call.args:
            self.info.durable_writes.append(
                DurableWrite(call, "numpy", self._path_tokens(call.args[0]))
            )
        if external == "os.replace" and len(call.args) >= 2:
            self.info.replaces.append(
                ReplaceCall(call, self._path_tokens(call.args[0]),
                            self._path_tokens(call.args[1]))
            )
        elif (
            site.method == "replace"
            and isinstance(call.func, ast.Attribute)
            and len(call.args) == 1
            and not call.keywords
        ):
            # Path.replace(target) — only counted when the receiver
            # looks like a tmp path, so str.replace never matches.
            src = self._path_tokens(call.func.value)
            if any("tmp" in t or "temp" in t for t in src):
                self.info.replaces.append(
                    ReplaceCall(call, src, self._path_tokens(call.args[0]))
                )

    def _path_tokens(self, expr: ast.expr) -> Set[str]:
        tokens = expr_tokens(expr)
        if isinstance(expr, ast.Name):
            bound = self.local_values.get(expr.id)
            if bound is not None:
                tokens |= expr_tokens(bound)
        return tokens


def _is_write_open(call: ast.Call) -> bool:
    """True when an ``open(...)`` call's mode writes (w/x/a)."""
    mode: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(c in mode.value for c in "wxa")
    return False


def _normalize_numpy(path: str) -> str:
    return "numpy." + path[3:] if path.startswith("np.") else path


# ----------------------------------------------------------------------
# module / class aggregation


def summarize_module(model: "ProjectModel", module: "ModuleInfo") -> None:
    """Fill function summaries, then aggregate class facts."""
    for info in model.functions.values():
        if info.module is module:
            _FunctionWalker(model, module, info).run()
    for cls in module.classes.values():
        _summarize_class(model, cls)


def _summarize_class(model: "ProjectModel", cls: "ClassInfo") -> None:
    cls.custom_pickle = any(
        name in cls.methods
        for name in ("__getstate__", "__reduce__", "__reduce_ex__")
    )
    # Class-body annotations (dataclass fields): x: SomeClass = ...
    for stmt in cls.node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            _merge_annotation_classes(
                model, cls, stmt.target.id, stmt.annotation
            )
    for method in cls.methods.values():
        for write in method.attr_writes:
            if write.kind != "rebind" or write.value is None:
                continue
            # Attribute -> class bindings: self.x = SomeClass(...) or
            # any expression instantiating project classes (list
            # comprehensions of constructors included).
            for sub in ast.walk(write.value):
                if isinstance(sub, ast.Call):
                    dotted = dotted_name(sub.func)
                    if dotted is None:
                        continue
                    target = model.resolve_class(cls.module, dotted)
                    if target is not None:
                        cls.attr_classes.setdefault(write.attr, set()).add(
                            target.qualname
                        )
        # self.x: SomeClass annotations inside methods
        for node in ast.walk(method.node):
            if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Attribute
            ) and isinstance(node.target.value, ast.Name) and \
                    node.target.value.id == "self":
                _merge_annotation_classes(
                    model, cls, node.target.attr, node.annotation
                )
    # __init__ parameter annotations: instances handed in and stored.
    init = cls.methods.get("__init__")
    if init is not None:
        args = init.node.args  # type: ignore[attr-defined]
        for arg in list(args.args) + list(args.kwonlyargs):
            if arg.annotation is not None and arg.arg != "self":
                _merge_annotation_classes(
                    model, cls, arg.arg, arg.annotation
                )


def _merge_annotation_classes(
    model: "ProjectModel",
    cls: "ClassInfo",
    attr: str,
    annotation: ast.expr,
) -> None:
    """Resolve every project class named inside an annotation."""
    for node in ast.walk(annotation):
        dotted = dotted_name(node)
        if dotted is None:
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                dotted = node.value  # string-quoted forward reference
            else:
                continue
        target = model.resolve_class(cls.module, dotted)
        if target is not None:
            cls.attr_classes.setdefault(attr, set()).add(target.qualname)
