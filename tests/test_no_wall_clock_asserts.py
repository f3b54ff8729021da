"""No test asserts on wall-clock time.

A wall-clock assertion passes alone and fails under load, and no
Hypothesis profile can make it deterministic.  This check parses every
module under ``tests/`` and fails if an ``assert`` reads
``time.time``, ``time.perf_counter``, ``time.monotonic`` or
``time.process_time`` — directly, or through a local variable bound
from one in the same function (or an enclosing one).  Source inside
string literals, such as lintkit fixtures, is never parsed, so it
never counts.  Timing something and recording it is fine, and so is
asserting on simulated or injected fake time.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Set

CLOCKS = frozenset({"time", "perf_counter", "monotonic", "process_time"})
TESTS = Path(__file__).resolve().parent
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Nodes of ``scope``, stopping at nested functions and classes
    (which are yielded, but not entered)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _bound_names(target: ast.AST) -> Set[str]:
    """Plain names bound by an assignment target (not attributes)."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        return set().union(*(_bound_names(t) for t in target.elts))
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    return set()


def wall_clock_asserts(source: str) -> List[int]:
    """Line numbers of the asserts in ``source`` that read the clock."""
    tree = ast.parse(source)
    modules, clocks = {"time"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name == "time" and a.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            clocks |= {a.asname or a.name for a in node.names if a.name in CLOCKS}

    def reads_clock(node: ast.AST, tainted: Set[str]) -> bool:
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute) and sub.attr in CLOCKS
                    and isinstance(sub.value, ast.Name) and sub.value.id in modules):
                return True
            if isinstance(sub, ast.Name) and (sub.id in clocks or sub.id in tainted):
                return True
        return False

    found: List[int] = []

    def visit(scope: ast.AST, inherited: Set[str]) -> None:
        nodes = list(_own_nodes(scope))
        tainted = set(inherited)
        changed = True
        while changed:  # taint flows through chains like t1 = t0 + dt
            changed = False
            for node in nodes:
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
                    targets = [node.target]
                else:
                    continue
                if node.value is None or not reads_clock(node.value, tainted):
                    continue
                names = set().union(*(_bound_names(t) for t in targets)) - tainted
                if names:
                    tainted |= names
                    changed = True
        for node in nodes:
            if isinstance(node, ast.Assert) and reads_clock(node, tainted):
                found.append(node.lineno)
            elif isinstance(node, _SCOPES):
                visit(node, tainted)

    visit(tree, set())
    return sorted(found)


def test_checker_flags_direct_and_bound_clock_reads():
    source = (
        "import time\n"
        "from time import monotonic as mono\n"
        "def test_a():\n"
        "    t0 = time.perf_counter()\n"
        "    elapsed = time.perf_counter() - t0\n"
        "    assert elapsed < 1.0\n"
        "def test_b():\n"
        "    assert mono() > 0\n"
        "def test_c():\n"
        "    deadline = time.monotonic() + 5\n"
        "    def poll():\n"
        "        assert deadline > 0\n"
        "def test_d(fake):\n"
        "    assert fake.perf_counter() > 0\n"
        "    deadline = time.monotonic()\n"
        "    assert wait_for(deadline=5)\n"
    )
    assert wall_clock_asserts(source) == [6, 8, 12]


def test_no_test_asserts_on_wall_clock():
    offenders = [
        f"{path.relative_to(TESTS)}:{line}"
        for path in sorted(TESTS.rglob("*.py"))
        for line in wall_clock_asserts(path.read_text())
    ]
    assert offenders == [], (
        "assert on wall-clock time (flaky under load); assert on "
        f"simulated or injected fake time instead: {offenders}"
    )
