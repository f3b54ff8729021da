"""PERF001: per-element Python iteration over ndarrays in hot layers.

The epoch hot path (``sim/``, ``cxl/``, ``memory/``, ``core/``, and the
CPU-driven policies in ``baselines/``) flows each chunk through
vectorized array kernels; a ``for`` loop over ``arr.tolist()`` in those
layers reintroduces a per-access Python loop — the exact pattern the vectorized kernels exist to remove, and the
kind of regression a profile will find months later.

The rule flags any ``for`` statement or comprehension whose iterable
contains an ``… .tolist()`` call, in the hot layers only.  The
per-access reference models the kernels are verified against live in
:mod:`repro.verify.reference`, outside the hot layers.  Anything else
either gets vectorized or carries an explicit
``# lint: disable=PERF001`` with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lintkit.base import Rule, register
from repro.lintkit.context import FileContext
from repro.lintkit.findings import Finding

#: Layers whose loops are the epoch hot path.
HOT_LAYERS = ("sim", "cxl", "memory", "core", "baselines")


def _iter_has_tolist(node: ast.expr) -> bool:
    """True when an iterable expression contains an ``X.tolist()`` call."""
    return any(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and sub.func.attr == "tolist"
        for sub in ast.walk(node)
    )


@register
class TolistIteration(Rule):
    """PERF001: ``for`` over ``.tolist()`` in a hot layer."""

    id = "PERF001"
    title = "per-element iteration over an ndarray in a hot layer"
    fix_hint = (
        "vectorize the loop (np.unique/bincount/isin/fancy indexing), "
        "move a per-access reference model into repro.verify.reference, "
        "or justify it with `# lint: disable=PERF001`"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None or not ctx.in_layer(*HOT_LAYERS):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters = [gen.iter for gen in node.generators]
            else:
                continue
            if any(_iter_has_tolist(it) for it in iters):
                yield self.finding(
                    ctx, node,
                    "loop iterates an ndarray element-by-element via "
                    "`.tolist()` in a hot layer; this is the per-access "
                    "pattern the vectorized kernels remove",
                )
