"""DET001–DET004: determinism rules.

The goldens (``tests/data/pipeline_goldens.json`` and the
differential goldens) pin the simulator bit-for-bit; any global-state
RNG draw, wall-clock read, or hash-order iteration on a hot path can
silently break them.  These rules make the determinism contract
machine-checked at lint time instead of discovered via golden diffs.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from repro.lintkit.base import (
    Rule,
    identifiers_in,
    import_aliases,
    register,
    resolve_call_path,
)
from repro.lintkit.context import FileContext
from repro.lintkit.findings import Finding

#: Module-level (global-state) sampling functions of :mod:`random`.
_STDLIB_RANDOM_DRAWS = {
    "seed", "random", "randint", "randrange", "getrandbits", "choice",
    "choices", "shuffle", "sample", "uniform", "triangular", "betavariate",
    "expovariate", "gammavariate", "gauss", "lognormvariate",
    "normalvariate", "vonmisesvariate", "paretovariate", "weibullvariate",
    "randbytes",
}

#: Legacy module-level (global-state) sampling functions of
#: :mod:`numpy.random` — everything that draws from the hidden
#: ``RandomState`` singleton.  Explicit ``Generator`` construction
#: (``default_rng``/``SeedSequence``/``PCG64``/…) is *not* in this
#: set; DET004 checks those are seeded properly.
_NUMPY_RANDOM_DRAWS = {
    "seed", "random", "random_sample", "ranf", "sample", "rand", "randn",
    "randint", "random_integers", "choice", "shuffle", "permutation",
    "bytes", "uniform", "normal", "standard_normal", "poisson",
    "exponential", "binomial", "beta", "gamma", "zipf", "geometric",
    "pareto", "integers",
}

#: Explicit RNG constructors whose seed argument DET004 inspects.
_RNG_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.SeedSequence",
    "numpy.random.Generator",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "random.Random",
}

#: Wall-clock reads DET002 rejects in simulation layers.
_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: Layers whose hot paths must be wall-clock free.  The observability
#: layer (``repro/obs/``) is the designated home for real-time reads.
_SIM_LAYERS = ("sim", "cxl", "core", "memory", "migration", "baselines")

#: Substring that marks an expression as seed-derived for DET004.
_SEED_MARKER = "seed"


def _normalize_numpy(path: str) -> str:
    """Fold the ``np``→``numpy`` alias difference after resolution."""
    return path.replace("np.random.", "numpy.random.", 1) if path.startswith(
        "np.random."
    ) else path


@register
class UnseededGlobalRng(Rule):
    """DET001: draw from a module-level (global-state) RNG.

    ``random.random()``, ``np.random.randint(...)`` and friends pull
    from interpreter-global state that any import or library call can
    perturb, so two runs with the same ``SimConfig.seed`` are not
    guaranteed the same trace.
    """

    id = "DET001"
    title = "module-level RNG draw (global state)"
    fix_hint = (
        "thread an explicit numpy.random.Generator (default_rng(seed)) or "
        "random.Random(seed) instance through instead"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None:
            return
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path = resolve_call_path(node, aliases)
            if path is None:
                continue
            path = _normalize_numpy(path)
            head, _, tail = path.rpartition(".")
            if head == "random" and tail in _STDLIB_RANDOM_DRAWS:
                yield self.finding(
                    ctx, node,
                    f"call to global-state RNG `random.{tail}()` — "
                    "reproducibility depends on hidden interpreter state",
                )
            elif head == "numpy.random" and tail in _NUMPY_RANDOM_DRAWS:
                yield self.finding(
                    ctx, node,
                    f"call to global-state RNG `numpy.random.{tail}()` — "
                    "draws from the hidden RandomState singleton",
                )


@register
class WallClockInSimLayer(Rule):
    """DET002: wall-clock read inside a simulation layer.

    Simulated time lives in ``EpochState.now_s``; real time belongs
    to the observability layer (``repro/obs/``).  A ``time.time()``
    or ``perf_counter()`` on a hot path couples results to host load.
    """

    id = "DET002"
    title = "wall-clock read outside the observability layer"
    fix_hint = (
        "use the simulated clock (st.now_s), or route real-time reads "
        "through repro.obs (e.g. a Tracer span or a TimedStage)"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None or not ctx.in_layer(*_SIM_LAYERS):
            return
        if ctx.in_layer("obs"):
            return
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path = resolve_call_path(node, aliases)
            if path in _WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx, node,
                    f"wall-clock read `{path}()` in simulation layer "
                    f"`{ctx.rel}` — results become host-load dependent",
                )


@register
class SetIterationOrder(Rule):
    """DET003: iteration over a set feeding ordered state.

    CPython set iteration order depends on insertion history and hash
    seeding; a ``for`` loop (or ``list()``/``tuple()``/``enumerate()``)
    over a set produces an ordering that is not a function of the
    program's inputs.  Wrap the set in ``sorted(...)`` instead.
    """

    id = "DET003"
    title = "set iteration feeds ordered state"
    fix_hint = "iterate over sorted(<set>) to pin the order"

    _MATERIALIZERS = {"list", "tuple", "enumerate"}

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None:
            return
        set_names = self._set_valued_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._MATERIALIZERS
                and node.args
            ):
                iters.append(node.args[0])
            for it in iters:
                if self._is_set_expr(it, set_names):
                    yield self.finding(
                        ctx, it,
                        "iterating a set in an order-sensitive position — "
                        "set order is hash/insertion dependent",
                    )

    @staticmethod
    def _set_valued_names(tree: ast.Module) -> Set[str]:
        """Names assigned a set expression anywhere in the module."""
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and SetIterationOrder._is_set_expr(
                node.value, set()
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    @staticmethod
    def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name) and node.id in set_names:
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "set":
                return True
            if node.func.id == "sorted":  # sorted(...) pins the order
                return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            # set algebra: either operand being a set makes the result one
            return SetIterationOrder._is_set_expr(
                node.left, set_names
            ) or SetIterationOrder._is_set_expr(node.right, set_names)
        if isinstance(node, ast.Attribute) and node.attr in (
            "union", "intersection", "difference", "symmetric_difference"
        ):
            return False  # bare method reference, not a call
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("union", "intersection", "difference",
                                   "symmetric_difference")
        ):
            return SetIterationOrder._is_set_expr(node.func.value, set_names)
        return False


@register
class RngSeedNotDerived(Rule):
    """DET004: explicit RNG constructed without a seed-derived seed.

    ``default_rng()`` (OS entropy) or ``default_rng(<constant>)``
    (not a function of ``SimConfig.seed``/``cell_seed``) silently
    decouples a component from the experiment seed.  The seed
    expression must mention an identifier containing ``seed``.
    """

    id = "DET004"
    title = "RNG seed not derived from the experiment seed"
    fix_hint = (
        "derive the seed from SimConfig.seed / cell_seed (an expression "
        "mentioning `seed`), or suppress with a comment explaining why "
        "the value is structural rather than entropy"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None:
            return
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path = resolve_call_path(node, aliases)
            if path is None:
                continue
            path = _normalize_numpy(path)
            if path not in _RNG_CONSTRUCTORS:
                continue
            short = path.rpartition(".")[2]
            if not node.args and not node.keywords:
                yield self.finding(
                    ctx, node,
                    f"`{short}()` with no seed draws OS entropy — the run "
                    "is unreproducible",
                )
                continue
            seed_args = list(node.args) + [kw.value for kw in node.keywords]
            mentioned = [
                ident
                for arg in seed_args
                for ident in identifiers_in(arg)
            ]
            if not any(_SEED_MARKER in ident.lower() for ident in mentioned):
                yield self.finding(
                    ctx, node,
                    f"`{short}(...)` seeded from an expression not derived "
                    "from the experiment seed",
                )
