"""Bad/good fixture pairs for the PICKLE checkpoint-envelope rules."""

import pytest

from tests.lintkit.conftest import messages, rule_ids

PICKLE = ["PICKLE001", "PICKLE002"]


# ----------------------------------------------------------------------
# PICKLE001 — OS resources inside the envelope


def test_pickle001_flags_open_handle_on_reachable_class(lint_tree):
    result = lint_tree({
        "src/repro/svc/sim.py": """
            import pickle

            class Sink:
                def __init__(self, path):
                    self._fh = open(path, "a")

            class Simulation:
                def __init__(self, path):
                    self.sink = Sink(path)

                def save_state(self, fh):
                    pickle.dump(self, fh)
        """,
    }, rules=PICKLE)
    assert rule_ids(result) == ["PICKLE001"]
    (msg,) = messages(result)
    # provenance names the path into the envelope
    assert "Sink._fh" in msg and "Simulation.sink" in msg


def test_pickle001_flags_thread_handle_with_subclass_closure(lint_tree):
    result = lint_tree({
        "src/repro/svc/sim.py": """
            import pickle
            import threading

            class Sink:
                pass

            class LiveSink(Sink):
                def start(self):
                    self._pump = threading.Thread(target=self.run)

            class Simulation:
                def __init__(self, sink: Sink):
                    self.sink = sink

                def save_state(self, fh):
                    pickle.dump(self, fh)
        """,
    }, rules=PICKLE)
    assert rule_ids(result) == ["PICKLE001"]
    (msg,) = messages(result)
    assert "LiveSink._pump" in msg and "thread handle" in msg


def test_pickle001_custom_getstate_exempts_the_class(lint_tree):
    result = lint_tree({
        "src/repro/svc/sim.py": """
            import pickle

            class Sink:
                def __init__(self, path):
                    self._fh = open(path, "a")

                def __getstate__(self):
                    state = dict(self.__dict__)
                    state["_fh"] = None
                    return state

            class Simulation:
                def __init__(self, path):
                    self.sink = Sink(path)

                def save_state(self, fh):
                    pickle.dump(self, fh)
        """,
    }, rules=PICKLE)
    assert result.findings == []


def test_pickle001_ignores_unreachable_classes(lint_tree):
    result = lint_tree({
        "src/repro/svc/sim.py": """
            import pickle

            class ScratchLog:
                def __init__(self, path):
                    self._fh = open(path, "a")

            class Simulation:
                def __init__(self):
                    self.n = 0

                def save_state(self, fh):
                    pickle.dump(self, fh)
        """,
    }, rules=PICKLE)
    assert result.findings == []


_ENVELOPE = """
    import pickle
    {imports}

    class Sink:
        def __init__(self, path):
            self._res = {value}

    class Simulation:
        def __init__(self, path):
            self.sink = Sink(path)

        def save_state(self, fh):
            pickle.dump(self, fh)
"""


@pytest.mark.parametrize(
    "imports,value,label",
    [
        ("import socket", "socket.socket()", "a socket"),
        ("import threading", "threading.Lock()", "a lock"),
        ("import subprocess", "subprocess.Popen([path])", "a subprocess handle"),
        ("import tempfile", "tempfile.TemporaryFile()", "an open temp file"),
        ("import gzip", 'gzip.open(path, "rt")', "an open file handle"),
        ("", "(line for line in path)", "a generator"),
    ],
    ids=["socket", "lock", "popen", "tempfile", "gzip", "generator"],
)
def test_pickle001_names_each_resource_kind(lint_tree, imports, value, label):
    result = lint_tree({
        "src/repro/svc/sim.py": _ENVELOPE.format(imports=imports, value=value),
    }, rules=PICKLE)
    assert rule_ids(result) == ["PICKLE001"]
    (msg,) = messages(result)
    assert "Sink._res" in msg and label in msg


def test_pickle001_resolves_from_import_aliases(lint_tree):
    result = lint_tree({
        "src/repro/svc/sim.py": _ENVELOPE.format(
            imports="from threading import RLock as _Guard", value="_Guard()"
        ),
    }, rules=PICKLE)
    assert rule_ids(result) == ["PICKLE001"]
    assert "a lock" in messages(result)[0]


def test_pickle001_custom_reduce_exempts_the_class(lint_tree):
    result = lint_tree({
        "src/repro/svc/sim.py": """
            import pickle

            class Sink:
                def __init__(self, path):
                    self.path = path
                    self._fh = open(path, "a")

                def __reduce__(self):
                    return (Sink, (self.path,))

            class Simulation:
                def __init__(self, path):
                    self.sink = Sink(path)

                def save_state(self, fh):
                    pickle.dump(self, fh)
        """,
    }, rules=PICKLE)
    assert result.findings == []


# ----------------------------------------------------------------------
# PICKLE002 — lambdas on checkpointed attributes


def test_pickle002_flags_lambda_assigned_from_outside_the_class(lint_tree):
    # The Tracer.sim_clock bug class: the lambda lands on the reachable
    # object from *another* module's function.
    result = lint_tree({
        "src/repro/svc/sim.py": """
            import pickle

            class Tracer:
                def __init__(self):
                    self.sim_clock = None

            class Simulation:
                def __init__(self):
                    self.tracer = Tracer()

                def save_state(self, fh):
                    pickle.dump(self, fh)

                def run(self, st):
                    self.tracer.sim_clock = lambda: st.now_s
        """,
    }, rules=PICKLE)
    assert rule_ids(result) == ["PICKLE002"]
    (msg,) = messages(result)
    assert "sim_clock" in msg and "Tracer" in msg


def test_pickle002_quiet_for_callable_class_instance(lint_tree):
    result = lint_tree({
        "src/repro/svc/sim.py": """
            import pickle

            class Clock:
                def __init__(self, st):
                    self._st = st

                def __call__(self):
                    return self._st.now_s

            class Tracer:
                def __init__(self):
                    self.sim_clock = None

            class Simulation:
                def __init__(self):
                    self.tracer = Tracer()

                def save_state(self, fh):
                    pickle.dump(self, fh)

                def run(self, st):
                    self.tracer.sim_clock = Clock(st)
        """,
    }, rules=PICKLE)
    assert result.findings == []


def test_pickle002_ignores_lambda_on_unreachable_attribute(lint_tree):
    result = lint_tree({
        "src/repro/svc/plot.py": """
            class Plotter:
                def __init__(self):
                    self.style_fn = None

            def style(plotter):
                plotter.style_fn = lambda ax: ax
        """,
    }, rules=PICKLE)
    assert result.findings == []


def test_pickle002_flags_lambda_on_class_level_annotated_attribute(lint_tree):
    # The attribute is declared only by a class-body annotation, never
    # assigned inside the class's own methods.
    result = lint_tree({
        "src/repro/svc/sim.py": """
            import pickle
            from typing import Callable, Optional

            class Tracer:
                on_epoch: Optional[Callable[[], None]] = None

            class Simulation:
                def __init__(self):
                    self.tracer = Tracer()

                def save_state(self, fh):
                    pickle.dump(self, fh)

            def attach(sim):
                sim.tracer.on_epoch = lambda: None
        """,
    }, rules=PICKLE)
    assert rule_ids(result) == ["PICKLE002"]
    assert "on_epoch" in messages(result)[0]
