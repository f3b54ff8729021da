"""Symbol table: modules, classes, and functions under dotted names.

The builder walks every parsed :class:`~repro.lintkit.context
.FileContext` once and indexes its definitions.  Qualified names are
dotted module paths derived from the file's project-relative path
(``src/repro/service/daemon.py`` → ``repro.service.daemon``; a
``tools/`` or ``examples/`` script keeps its directory as the package
prefix), so fixture trees in tests and the real tree resolve the same
way.  Nested defs (a function inside a function) are indexed under
their lexical owner with ``<locals>`` elided — call resolution is
module-granular, which is as deep as the rules need.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.lintkit.base import dotted_name, import_aliases
from repro.lintkit.context import FileContext, Project

#: Attribute name on the Project instance caching the built model.
_CACHE_ATTR = "_lintkit_model"


def module_name_for(rel: str) -> str:
    """Dotted module name for a project-relative posix path.

    A leading ``src/`` is stripped (the import root), ``__init__.py``
    names the package itself, and any other directory prefix (tools/,
    examples/) becomes part of the dotted name.
    """
    parts = rel.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    leaf = parts[-1]
    if leaf == "__init__.py":
        parts = parts[:-1]
    elif leaf.endswith(".py"):
        parts = parts[:-1] + [leaf[:-3]]
    return ".".join(parts)


class FunctionInfo:
    """One function or method definition.

    Summary fields (``calls``, ``attr_writes``, ``durable_writes``,
    ``replaces``, ``calls_fsync``) are filled by
    :mod:`~repro.lintkit.model.summaries` right after construction;
    the builder only records identity.
    """

    def __init__(
        self,
        qualname: str,
        node: ast.AST,
        module: "ModuleInfo",
        owner: Optional["ClassInfo"],
    ) -> None:
        self.qualname = qualname
        self.name = node.name  # type: ignore[attr-defined]
        self.node = node
        self.module = module
        self.owner = owner  #: owning ClassInfo for methods, else None
        # -- filled by summaries.summarize_function --
        self.calls: list = []
        self.attr_writes: list = []
        self.durable_writes: list = []
        self.replaces: list = []
        self.calls_fsync = False

    @property
    def ctx(self) -> FileContext:
        return self.module.ctx

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FunctionInfo {self.qualname}>"


class ClassInfo:
    """One class definition plus its attribute/base summaries."""

    def __init__(
        self, qualname: str, node: ast.ClassDef, module: "ModuleInfo"
    ) -> None:
        self.qualname = qualname
        self.name = node.name
        self.node = node
        self.module = module
        self.methods: Dict[str, FunctionInfo] = {}
        #: Base-class dotted names as written (resolved lazily by the
        #: model against the symbol table + import aliases).
        self.base_names: List[str] = []
        # -- filled by summaries.summarize_class --
        self.attr_classes: Dict[str, Set[str]] = {}
        self.custom_pickle = False  #: defines __getstate__/__reduce__

    @property
    def ctx(self) -> FileContext:
        return self.module.ctx

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ClassInfo {self.qualname}>"


class ModuleInfo:
    """One source file as a module: its definitions and imports."""

    def __init__(self, name: str, ctx: FileContext) -> None:
        self.name = name
        self.ctx = ctx
        self.aliases: Dict[str, str] = (
            import_aliases(ctx.tree) if ctx.tree is not None else {}
        )
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}

    def resolve_alias(self, dotted: str) -> str:
        """Expand the leading segment of ``dotted`` through this
        module's import aliases (``np.x`` → ``numpy.x``)."""
        head, _, rest = dotted.partition(".")
        resolved = self.aliases.get(head, head)
        return f"{resolved}.{rest}" if rest else resolved


class ProjectModel:
    """The symbol table plus lazily-built graph queries."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        for ctx in project.files:
            if ctx.tree is None:
                continue
            self._index_module(ctx)
        # Summaries need the full symbol table (cross-module call
        # resolution), so they run as a second pass.
        from repro.lintkit.model.summaries import summarize_module

        for module in self.modules.values():
            summarize_module(self, module)
        from repro.lintkit.model.queries import GraphQueries

        self.queries = GraphQueries(self)

    # ------------------------------------------------------------------
    # indexing

    def _index_module(self, ctx: FileContext) -> None:
        module = ModuleInfo(module_name_for(ctx.rel), ctx)
        self.modules[module.name] = module
        self._index_body(module, None, module.name, ctx.tree.body)

    def _index_body(
        self,
        module: ModuleInfo,
        owner: Optional[ClassInfo],
        prefix: str,
        body: Iterable[ast.stmt],
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{node.name}"
                info = FunctionInfo(qualname, node, module, owner)
                self.functions[qualname] = info
                if owner is not None:
                    owner.methods[node.name] = info
                else:
                    module.functions[node.name] = info
                # Nested defs are indexed (so their bodies are
                # summarized) but stay invisible to name lookup —
                # module-granular resolution never targets them.
                self._index_body(module, owner, qualname, node.body)
            elif isinstance(node, ast.ClassDef):
                qualname = f"{prefix}.{node.name}"
                cls = ClassInfo(qualname, node, module)
                self.classes[qualname] = cls
                module.classes[node.name] = cls
                for base in node.bases:
                    dotted = dotted_name(base)
                    if dotted:
                        cls.base_names.append(dotted)
                self._index_body(module, cls, qualname, node.body)
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.AsyncWith,
                                   ast.For, ast.AsyncFor, ast.While)):
                # Definitions behind TYPE_CHECKING / version guards, or
                # nested inside with/loop blocks.
                for sub in ast.iter_child_nodes(node):
                    if isinstance(sub, ast.stmt):
                        self._index_body(module, owner, prefix, [sub])

    # ------------------------------------------------------------------
    # lookup

    def resolve_class(
        self, module: ModuleInfo, dotted: str
    ) -> Optional[ClassInfo]:
        """The project class a (possibly aliased) name refers to from
        within ``module``, or None for externals."""
        if dotted in module.classes:
            return module.classes[dotted]
        resolved = module.resolve_alias(dotted)
        if resolved in self.classes:
            return self.classes[resolved]
        # ``pkg.mod.Cls`` written out or via a module alias.
        head, _, leaf = resolved.rpartition(".")
        target = self.modules.get(head)
        if target is not None and leaf in target.classes:
            return target.classes[leaf]
        return None

    def resolve_function(
        self, module: ModuleInfo, dotted: str
    ) -> Optional[FunctionInfo]:
        """The project function a name refers to from ``module``."""
        if dotted in module.functions:
            return module.functions[dotted]
        resolved = module.resolve_alias(dotted)
        if resolved in self.functions:
            return self.functions[resolved]
        head, _, leaf = resolved.rpartition(".")
        target = self.modules.get(head)
        if target is not None and leaf in target.functions:
            return target.functions[leaf]
        return None

    def base_classes(self, cls: ClassInfo) -> List[ClassInfo]:
        """Project classes among ``cls``'s direct bases."""
        out = []
        for name in cls.base_names:
            base = self.resolve_class(cls.module, name)
            if base is not None:
                out.append(base)
        return out

    def subclasses_of(self, cls: ClassInfo) -> List[ClassInfo]:
        """Every project class with ``cls`` in its transitive bases."""
        out = []
        for candidate in self.classes.values():
            if candidate is cls:
                continue
            seen: Set[str] = set()
            frontier = [candidate]
            while frontier:
                current = frontier.pop()
                for base in self.base_classes(current):
                    if base.qualname in seen:
                        continue
                    seen.add(base.qualname)
                    if base is cls:
                        out.append(candidate)
                        frontier = []
                        break
                    frontier.append(base)
                else:
                    continue
                break
        return out

    def method_of(
        self, cls: ClassInfo, name: str
    ) -> Optional[FunctionInfo]:
        """``cls``'s method ``name``, searching project base classes."""
        seen: Set[str] = set()
        frontier = [cls]
        while frontier:
            current = frontier.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            frontier.extend(self.base_classes(current))
        return None


def get_model(project: Project) -> ProjectModel:
    """The (cached) analysis model for ``project``."""
    model = getattr(project, _CACHE_ATTR, None)
    if model is None:
        model = ProjectModel(project)
        setattr(project, _CACHE_ATTR, model)
    return model
