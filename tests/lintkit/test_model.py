"""Unit tests for the project model: symbol table, summaries, and
call-graph/reachability queries, on synthetic fake-project trees."""

from pathlib import Path

import pytest

from repro.lintkit import load_project
from repro.lintkit.model import get_model, module_name_for
from tests.lintkit.conftest import build_project

REPO_ROOT = Path(__file__).resolve().parents[2]


def model_of(tmp_path, files):
    return get_model(build_project(tmp_path, files))


# ----------------------------------------------------------------------
# naming and indexing


@pytest.mark.parametrize(
    "rel,expected",
    [
        ("src/repro/sim/engine.py", "repro.sim.engine"),
        ("src/repro/obs/__init__.py", "repro.obs"),
        ("tools/bench_engine.py", "tools.bench_engine"),
        ("examples/demo.py", "examples.demo"),
    ],
)
def test_module_name_for(rel, expected):
    assert module_name_for(rel) == expected


def test_symbol_table_indexes_defs(tmp_path):
    model = model_of(tmp_path, {
        "src/repro/sim/thing.py": """
            def helper():
                return 1

            class Widget:
                def __init__(self):
                    self.n = 0

                def bump(self):
                    self.n += 1
        """,
    })
    assert "repro.sim.thing" in model.modules
    widget = model.classes["repro.sim.thing.Widget"]
    assert set(widget.methods) == {"__init__", "bump"}
    assert "repro.sim.thing.helper" in model.functions
    assert model.functions["repro.sim.thing.Widget.bump"].owner is widget


def test_method_resolution_follows_project_bases(tmp_path):
    model = model_of(tmp_path, {
        "src/repro/a/base.py": """
            class Base:
                def shared(self):
                    return 1
        """,
        "src/repro/a/child.py": """
            from repro.a.base import Base

            class Child(Base):
                pass
        """,
    })
    child = model.classes["repro.a.child.Child"]
    shared = model.method_of(child, "shared")
    assert shared is not None
    assert shared.qualname == "repro.a.base.Base.shared"
    base = model.classes["repro.a.base.Base"]
    assert [c.qualname for c in model.subclasses_of(base)] == [
        "repro.a.child.Child"
    ]


def test_cross_module_call_resolution_via_alias(tmp_path):
    model = model_of(tmp_path, {
        "src/repro/a/util.py": """
            def work():
                return 2
        """,
        "src/repro/a/main.py": """
            from repro.a import util

            def entry():
                return util.work()
        """,
    })
    entry = model.functions["repro.a.main.entry"]
    assert ["repro.a.util.work"] == [
        c for site in entry.calls for c in site.candidates
    ]


# ----------------------------------------------------------------------
# summaries


def test_attr_write_kinds(tmp_path):
    model = model_of(tmp_path, {
        "src/repro/a/box.py": """
            class Box:
                def __init__(self):
                    self.total = 0
                    self.seen = {}

                def add(self, n):
                    self.total += n

                def mark(self, key):
                    self.seen[key] = True

                def reset(self):
                    self.total = 0
        """,
    })
    box = model.classes["repro.a.box.Box"]
    by_method = {
        m: [(w.attr, w.kind) for w in f.attr_writes]
        for m, f in box.methods.items()
    }
    assert by_method["add"] == [("total", "mutate")]
    assert by_method["mark"] == [("seen", "mutate")]
    assert by_method["reset"] == [("total", "rebind")]


def test_durable_write_tokens_expand_locals(tmp_path):
    model = model_of(tmp_path, {
        "src/repro/a/saver.py": """
            import os

            def save(path):
                tmp = f"{path}.tmp"
                with open(tmp, "wb") as fh:
                    fh.write(b"x")
                os.replace(tmp, path)
        """,
    })
    save = model.functions["repro.a.saver.save"]
    (write,) = save.durable_writes
    assert write.via == "open"
    assert any("tmp" in t for t in write.path_tokens)
    (replace,) = save.replaces
    assert any("tmp" in t for t in replace.src_tokens)


def test_nested_defs_are_summarized_separately(tmp_path):
    model = model_of(tmp_path, {
        "src/repro/a/nested.py": """
            import os

            def outer(path):
                def later():
                    os.fsync(3)
                    with open(path, "w") as fh:
                        fh.write("x")
                return later
        """,
    })
    outer = model.functions["repro.a.nested.outer"]
    # the nested def runs at some other time: its facts are its own
    assert not outer.calls_fsync
    assert outer.durable_writes == []
    later = model.functions["repro.a.nested.outer.later"]
    assert later.calls_fsync
    assert len(later.durable_writes) == 1


# ----------------------------------------------------------------------
# graph queries


def test_fsync_fixpoint_is_transitive(tmp_path):
    model = model_of(tmp_path, {
        "src/repro/a/sync.py": """
            import os

            def flush(fh):
                os.fsync(fh.fileno())

            def checkpoint(fh):
                flush(fh)

            def never():
                pass
        """,
    })
    q = model.queries
    assert q.calls_fsync("repro.a.sync.flush")
    assert q.calls_fsync("repro.a.sync.checkpoint")
    assert not q.calls_fsync("repro.a.sync.never")


def test_pickle_roots_bare_self_and_attr_payloads(tmp_path):
    model = model_of(tmp_path, {
        "src/repro/a/ckpt.py": """
            import pickle

            class Inner:
                pass

            class Holder:
                def __init__(self):
                    self.inner = Inner()
                    self.counts = {}

                def save_state(self, fh):
                    payload = {"sim": self, "n": 1}
                    pickle.dump(payload, fh)

                def save_partial(self, fh):
                    pickle.dump(self.counts, fh)
        """,
    })
    roots = model.queries.pickle_roots()
    root_quals = sorted({cls.qualname for cls, _ in roots})
    # save_state pickles bare self => Holder is a root; save_partial
    # pickles only a dict attribute => no extra class root.
    assert root_quals == ["repro.a.ckpt.Holder"]


def test_pickle_roots_follow_a_pickling_helper(tmp_path):
    # The envelope is pickled by a module-level helper; the class that
    # passes itself in is still a root, whichever way the argument
    # is bound.
    model = model_of(tmp_path, {
        "src/repro/a/ckpt.py": """
            import pickle

            def write_checkpoint(path, kind, payload):
                envelope = {"kind": kind, **payload}
                with open(path, "wb") as fh:
                    pickle.dump(envelope, fh)

            class Holder:
                def save_state(self, path):
                    write_checkpoint(path, "holder", {"sim": self})

            class Other:
                def save_state(self, path):
                    write_checkpoint(path, kind="other", payload=self)

            class Bystander:
                def save_state(self, path):
                    write_checkpoint(path, "x", {"n": 1})
        """,
    })
    roots = model.queries.pickle_roots()
    assert sorted({cls.qualname for cls, _ in roots}) == [
        "repro.a.ckpt.Holder", "repro.a.ckpt.Other",
    ]


def test_real_tree_pickles_the_simulation():
    project = load_project([str(REPO_ROOT / "src")], root=str(REPO_ROOT))
    roots = get_model(project).queries.pickle_roots()
    assert "repro.sim.engine.Simulation" in {cls.qualname for cls, _ in roots}


def test_reachable_classes_provenance_and_custom_pickle_opacity(tmp_path):
    model = model_of(tmp_path, {
        "src/repro/a/graph.py": """
            import pickle

            class Leaf:
                pass

            class Opaque:
                def __init__(self):
                    self.leaf = Leaf()

                def __getstate__(self):
                    return {}

            class Mid:
                def __init__(self):
                    self.opaque = Opaque()

            class Root:
                def __init__(self):
                    self.mid = Mid()

                def save_state(self, fh):
                    pickle.dump(self, fh)
        """,
    })
    reach = model.queries.reachable_classes(model.queries.pickle_roots())
    assert "repro.a.graph.Root" in reach
    assert "repro.a.graph.Mid" in reach
    assert "repro.a.graph.Opaque" in reach
    # Opaque rewrites its own payload: Leaf is never traversed.
    assert "repro.a.graph.Leaf" not in reach
    assert "Root.mid" in reach["repro.a.graph.Mid"]
    assert "Mid.opaque" in reach["repro.a.graph.Opaque"]


def test_reachable_classes_subclass_closure(tmp_path):
    model = model_of(tmp_path, {
        "src/repro/a/subs.py": """
            import pickle

            class Sink:
                pass

            class FileSink(Sink):
                pass

            class Root:
                def __init__(self, sink: Sink):
                    self.sink = sink

                def save_state(self, fh):
                    pickle.dump(self, fh)
        """,
    })
    reach = model.queries.reachable_classes(model.queries.pickle_roots())
    # the attribute is typed as the base: any subclass may be inside
    assert "repro.a.subs.FileSink" in reach
    assert "subclass FileSink" in reach["repro.a.subs.FileSink"]


def test_model_is_cached_per_project(tmp_path):
    project = build_project(tmp_path, {
        "src/repro/a/one.py": "def f():\n    return 1\n",
    })
    assert get_model(project) is get_model(project)
