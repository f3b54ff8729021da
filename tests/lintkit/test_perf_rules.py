"""Fixture tests for PERF001: `.tolist()` iteration in hot layers.

The epoch hot path is vectorized; a ``for`` loop over ``arr.tolist()``
in ``sim/``/``cxl/``/``memory/``/``core/``/``baselines/`` reintroduces
per-access Python iteration.  The per-access reference models live in
``repro.verify`` (a cold layer); in a hot layer every such loop needs a
fix or an explicit suppression, whatever its function is called.
"""

from tests.lintkit.conftest import rule_ids

_HOT_LOOP = """\
    import numpy as np


    def observe(pages):
        total = 0
        for page in pages.tolist():
            total += page
        return total
    """


def test_perf001_flags_tolist_loop_in_hot_layer(lint_tree):
    result = lint_tree({"src/repro/cxl/pac.py": _HOT_LOOP}, rules=["PERF001"])
    assert rule_ids(result) == ["PERF001"]
    assert "element-by-element" in result.findings[0].message


def test_perf001_covers_every_hot_layer(lint_tree):
    for layer in ("sim", "cxl", "memory", "core", "baselines"):
        result = lint_tree(
            {f"src/repro/{layer}/mod.py": _HOT_LOOP}, rules=["PERF001"]
        )
        assert rule_ids(result) == ["PERF001"], layer


def test_perf001_ignores_cold_layers(lint_tree):
    for layer in ("workloads", "obs", "verify"):
        result = lint_tree(
            {f"src/repro/{layer}/mod.py": _HOT_LOOP}, rules=["PERF001"]
        )
        assert result.ok, layer


def test_perf001_flags_reference_named_loops_in_hot_layers(lint_tree):
    result = lint_tree(
        {
            "src/repro/memory/mglru.py": """\
                def _record_accesses_reference(pages):
                    for page in pages.tolist():
                        print(page)
                """
        },
        rules=["PERF001"],
    )
    assert rule_ids(result) == ["PERF001"]


def test_perf001_flags_tolist_loop_in_a_policy(lint_tree):
    # The CPU-driven policies are most of a DAMON run's host time.
    result = lint_tree(
        {
            "src/repro/baselines/damon.py": """\
                def sizes(starts, ends):
                    return [e - s for s, e in zip(starts.tolist(), ends.tolist())]
                """
        },
        rules=["PERF001"],
    )
    assert rule_ids(result) == ["PERF001"]


def test_perf001_flags_comprehensions(lint_tree):
    result = lint_tree(
        {
            "src/repro/sim/engine.py": """\
                def fan_out(pages):
                    return [p + 1 for p in pages.tolist()]
                """
        },
        rules=["PERF001"],
    )
    assert rule_ids(result) == ["PERF001"]


def test_perf001_allows_non_iterating_tolist(lint_tree):
    result = lint_tree(
        {
            "src/repro/core/bulk.py": """\
                def snapshot(arr, mapping):
                    mapping.update(zip(arr.tolist(), arr.tolist()))
                    return set(arr.tolist())
                """
        },
        rules=["PERF001"],
    )
    assert result.ok


def test_perf001_respects_suppression(lint_tree):
    result = lint_tree(
        {
            "src/repro/memory/ifmm.py": """\
                def access(words):
                    # lint: disable=PERF001 -- sequential slot state
                    for word in words.tolist():
                        print(word)
                """
        },
        rules=["PERF001"],
    )
    assert result.ok
    assert result.summary.suppressed == 1
