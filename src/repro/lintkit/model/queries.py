"""Call-graph and reachability queries over the project model.

Everything here is module-granular and conservative in the direction
the rules need: call edges only exist where the summary pass resolved
a callee to a project function, so "transitively calls fsync" can miss
dynamic dispatch but never invents an edge.  Pickle reachability
carries *provenance* — a human-readable chain
(``Service.checkpoint → StreamRun.sim → Simulation.telemetry``) — so
findings can explain themselves instead of just pointing at a line.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lintkit.model.builder import ClassInfo, ProjectModel


class GraphQueries:
    """Fixpoint and BFS queries, built once per model."""

    def __init__(self, model: "ProjectModel") -> None:
        self.model = model
        #: callee qualname -> set of caller qualnames (project
        #: functions only).
        self.redges: Dict[str, Set[str]] = {}
        for info in model.functions.values():
            for site in info.calls:
                for callee in site.candidates:
                    self.redges.setdefault(callee, set()).add(info.qualname)
        self._fsyncing: Optional[Set[str]] = None

    # ------------------------------------------------------------------
    # fsync fixpoint

    def calls_fsync(self, qualname: str) -> bool:
        """True if ``qualname`` calls ``os.fsync`` directly or through
        any chain of project calls."""
        if self._fsyncing is None:
            fsyncing: Set[str] = set()
            worklist = [
                info.qualname
                for info in self.model.functions.values()
                if info.calls_fsync
            ]
            fsyncing.update(worklist)
            while worklist:
                callee = worklist.pop()
                for caller in self.redges.get(callee, ()):
                    if caller not in fsyncing:
                        fsyncing.add(caller)
                        worklist.append(caller)
            self._fsyncing = fsyncing
        return qualname in self._fsyncing

    # ------------------------------------------------------------------
    # pickle-reachable classes

    def pickle_roots(self) -> List[Tuple["ClassInfo", str]]:
        """Classes whose *whole instance* is pickled, with the qualname
        of the function doing it.

        A root is any project class ``C`` with a method containing
        ``pickle.dump(...)`` / ``pickle.dumps(...)`` whose payload
        expression mentions bare ``self`` (``pickle.dump(self, fh)``,
        ``pickle.dump({"streams": self._streams}, fh)`` does NOT make
        ``C`` a root — but any project class instantiated inside the
        payload does, via its own attr edges).  A call to a project
        helper that pickles one of its parameters
        (``write_checkpoint(path, kind, {"sim": self})``) counts as a
        dump of that argument.
        """
        helpers = self._pickling_helpers()
        roots: List[Tuple["ClassInfo", str]] = []
        for info in self.model.functions.values():
            for site in info.calls:
                if site.external in _DUMPS:
                    payload = site.node.args[0] if site.node.args else None
                else:
                    payload = next((
                        _call_arg(site.node, *helpers[callee])
                        for callee in site.candidates if callee in helpers
                    ), None)
                if payload is None:
                    continue
                for cls, label in self._payload_classes(info, payload):
                    roots.append((cls, label or info.qualname))
        return roots

    def _pickling_helpers(self) -> Dict[str, Tuple[int, str]]:
        """{function qualname: (position, name)} of the parameter each
        project function passes to ``pickle.dump``/``pickle.dumps``."""
        helpers: Dict[str, Tuple[int, str]] = {}
        for info in self.model.functions.values():
            params = [a.arg for a in info.node.args.args]
            for site in info.calls:
                if site.external not in _DUMPS or not site.node.args:
                    continue
                names = {
                    node.id
                    for expr in _expanded(info, site.node.args[0])
                    for node in ast.walk(expr) if isinstance(node, ast.Name)
                }
                for index, name in enumerate(params):
                    if name != "self" and name in names:
                        helpers[info.qualname] = (index, name)
        return helpers

    def _payload_classes(
        self, info, payload: ast.expr
    ) -> List[Tuple["ClassInfo", Optional[str]]]:
        """Project classes pickled by ``payload`` inside ``info``."""
        out: List[Tuple["ClassInfo", Optional[str]]] = []
        seen_exprs = _expanded(info, payload)
        for expr in seen_exprs:
            for node in ast.walk(expr):
                # bare self => the owning class is pickled wholesale
                if isinstance(node, ast.Name) and node.id == "self" and \
                        info.owner is not None:
                    # exclude the receiver of self.attr (that's the
                    # attribute's value, resolved via attr edges below)
                    out.append((info.owner, info.qualname))
                elif isinstance(node, ast.Attribute) and isinstance(
                    node.value, ast.Name
                ) and node.value.id == "self" and info.owner is not None:
                    for qual in info.owner.attr_classes.get(node.attr, ()):
                        cls = self.model.classes.get(qual)
                        if cls is not None:
                            out.append(
                                (cls,
                                 f"{info.qualname} via self.{node.attr}")
                            )
        # A bare-`self` match above also walks the `self` inside
        # `self.attr`; drop the owner entry when every mention of self
        # is an attribute receiver.
        has_bare_self = any(
            _mentions_bare_self(expr) for expr in seen_exprs
        )
        if not has_bare_self:
            out = [(c, l) for (c, l) in out
                   if info.owner is None or c is not info.owner
                   or (l and "via self." in l)]
        return out

    def reachable_classes(
        self, roots: Iterable[Tuple["ClassInfo", str]]
    ) -> Dict[str, str]:
        """BFS over attribute→class edges from ``roots``.

        Returns ``{class qualname: provenance}`` where provenance reads
        ``Service.checkpoint → StreamRun.sim → Simulation.telemetry``.
        Expansion per reached class: its attr-edge targets, the
        targets' project subclasses (the attribute may hold any of
        them), and its own project bases (their attrs live on the
        instance).  Classes defining ``__getstate__``/``__reduce__``
        are *recorded* but not traversed — they rewrite their own
        pickled payload.
        """
        prov: Dict[str, str] = {}
        frontier: List["ClassInfo"] = []
        for cls, label in roots:
            if cls.qualname not in prov:
                prov[cls.qualname] = label
                frontier.append(cls)
        while frontier:
            current = frontier.pop(0)
            here = prov[current.qualname]
            if current.custom_pickle:
                continue  # opaque: payload is whatever __getstate__ says
            neighbours: List[Tuple["ClassInfo", str]] = []
            for attr, targets in sorted(current.attr_classes.items()):
                for qual in sorted(targets):
                    cls = self.model.classes.get(qual)
                    if cls is None:
                        continue
                    label = f"{here} → {current.name}.{attr}"
                    neighbours.append((cls, label))
                    for sub in self.model.subclasses_of(cls):
                        neighbours.append(
                            (sub, f"{label} (as subclass {sub.name})")
                        )
            for base in self.model.base_classes(current):
                neighbours.append((base, f"{here} → base {base.name}"))
            for cls, label in neighbours:
                if cls.qualname not in prov:
                    prov[cls.qualname] = label
                    frontier.append(cls)
        return prov


_DUMPS = ("pickle.dump", "pickle.dumps")


def _expanded(info, payload: ast.expr) -> List[ast.expr]:
    """``payload`` plus, for a bare name, every expression assigned to
    it in ``info`` (one level: ``payload = {...}; dump(payload)``)."""
    exprs = [payload]
    if isinstance(payload, ast.Name):
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and target.id == payload.id:
                    exprs.append(node.value)
    return exprs


def _call_arg(call: ast.Call, index: int, name: str) -> Optional[ast.expr]:
    """The argument ``call`` binds to parameter ``index``/``name``."""
    if index < len(call.args):
        return call.args[index]
    return next((kw.value for kw in call.keywords if kw.arg == name), None)


def _mentions_bare_self(expr: ast.expr) -> bool:
    """True when ``expr`` mentions ``self`` other than as an attribute
    receiver (``self`` yes; ``self.x`` / ``self.x.y`` no)."""
    receivers = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ) and node.value.id == "self":
            receivers.add(id(node.value))
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id == "self" and \
                id(node) not in receivers:
            return True
    return False

