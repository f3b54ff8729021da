"""Bad/good fixture pairs for the CRASH crash-safety rule family,
plus the regression harness proving the rules guard the *real*
checkpoint writer, ``write_checkpoint`` in ``sim/engine.py``:
re-introducing the bugs the protocol fixed (in a temp copy) must
light the rules up."""

from pathlib import Path

import pytest

from repro.lintkit import lint_project, load_project
from tests.lintkit.conftest import messages, rule_ids

REPO_ROOT = Path(__file__).resolve().parents[2]
CRASH = ["CRASH001", "CRASH003"]


# ----------------------------------------------------------------------
# CRASH001 — atomic publish


def test_crash001_flags_direct_write_to_final_checkpoint_path(lint_tree):
    result = lint_tree({
        "src/repro/svc/saver.py": """
            import json

            def write_checkpoint(path, payload):
                with open(path, "w") as fh:
                    json.dump(payload, fh)
        """,
    }, rules=["CRASH001"])
    assert rule_ids(result) == ["CRASH001"]
    (msg,) = messages(result)
    assert "torn" in msg


def test_crash001_flags_tmp_file_never_published(lint_tree):
    result = lint_tree({
        "src/repro/svc/saver.py": """
            import json

            def write_checkpoint(path, payload):
                with open(f"{path}.tmp", "w") as fh:
                    json.dump(payload, fh)
        """,
    }, rules=["CRASH001"])
    assert rule_ids(result) == ["CRASH001"]
    (msg,) = messages(result)
    assert "os.replace" in msg


def test_crash001_quiet_on_tmp_plus_replace(lint_tree):
    result = lint_tree({
        "src/repro/svc/saver.py": """
            import json
            import os

            def write_checkpoint(path, payload):
                tmp = f"{path}.tmp"
                with open(tmp, "w") as fh:
                    json.dump(payload, fh)
                os.replace(tmp, path)
        """,
    }, rules=["CRASH001"])
    assert result.findings == []


def test_crash001_ignores_non_checkpoint_writes(lint_tree):
    result = lint_tree({
        "src/repro/svc/plots.py": """
            def write_report(path, text):
                with open(path, "w") as fh:
                    fh.write(text)
        """,
    }, rules=["CRASH001"])
    assert result.findings == []


@pytest.mark.parametrize(
    "func", ["checkpoint", "write_ckpt", "save_state", "publish_manifest"]
)
def test_crash001_function_name_marks_checkpoint_scope(lint_tree, func):
    result = lint_tree({
        "src/repro/svc/saver.py": f"""
            import json

            def {func}(path, payload):
                with open(path, "w") as fh:
                    json.dump(payload, fh)
        """,
    }, rules=["CRASH001"])
    assert rule_ids(result) == ["CRASH001"]


def test_crash001_path_token_marks_checkpoint_scope(lint_tree):
    # A neutrally named function is still in scope when the path it
    # writes names the checkpoint.
    result = lint_tree({
        "src/repro/svc/saver.py": """
            import json
            import os

            def dump(out_dir, payload):
                with open(os.path.join(out_dir, "checkpoint.json"), "w") as fh:
                    json.dump(payload, fh)
        """,
    }, rules=["CRASH001"])
    assert rule_ids(result) == ["CRASH001"]


@pytest.mark.parametrize("suffix", ["tmp", "temp", "partial"])
def test_crash001_every_temp_marker_counts_as_a_temp_path(lint_tree, suffix):
    result = lint_tree({
        "src/repro/svc/saver.py": f"""
            import json
            import os

            def write_checkpoint(path, payload):
                staging = path + ".{suffix}"
                with open(staging, "w") as fh:
                    json.dump(payload, fh)
                os.replace(staging, path)
        """,
    }, rules=["CRASH001"])
    assert result.findings == []


# ----------------------------------------------------------------------
# CRASH003 — fsync-before-replace (advisory note)


def test_crash003_notes_replace_without_fsync_and_never_gates(lint_tree):
    result = lint_tree({
        "src/repro/svc/saver.py": """
            import json
            import os

            def write_checkpoint(path, payload):
                tmp = f"{path}.tmp"
                with open(tmp, "w") as fh:
                    json.dump(payload, fh)
                os.replace(tmp, path)
        """,
    }, rules=["CRASH003"])
    assert rule_ids(result) == ["CRASH003"]
    (finding,) = result.findings
    assert finding.severity.value == "note"
    # advisory: present in the report, absent from the exit code
    assert result.ok and result.exit_code() == 0


def test_crash003_satisfied_by_fsync_in_a_helper(lint_tree):
    result = lint_tree({
        "src/repro/svc/saver.py": """
            import json
            import os

            def _sync(fh):
                fh.flush()
                os.fsync(fh.fileno())

            def write_checkpoint(path, payload):
                tmp = f"{path}.tmp"
                with open(tmp, "w") as fh:
                    json.dump(payload, fh)
                    _sync(fh)
                os.replace(tmp, path)
        """,
    }, rules=["CRASH003"])
    assert result.findings == []


def test_crash003_ignores_replace_outside_checkpoint_scope(lint_tree):
    result = lint_tree({
        "src/repro/svc/plots.py": """
            import os

            def write_report(path, text):
                tmp = f"{path}.tmp"
                with open(tmp, "w") as fh:
                    fh.write(text)
                os.replace(tmp, path)
        """,
    }, rules=["CRASH003"])
    assert result.findings == []


# ----------------------------------------------------------------------
# the real checkpoint writer, guarded: deleting a step of the
# crash-safety protocol from a temp copy must be caught


def _lint_mutated_engine(tmp_path, transform):
    source = (REPO_ROOT / "src/repro/sim/engine.py").read_text()
    mutated = transform(source)
    assert mutated != source, "transform matched nothing — engine.py changed?"
    copy = tmp_path / "src/repro/sim/engine.py"
    copy.parent.mkdir(parents=True)
    copy.write_text(mutated)
    project = load_project([str(tmp_path)], root=str(tmp_path))
    return lint_project(project, only_rules=CRASH)


def test_real_checkpoint_writer_is_clean(tmp_path):
    result = _lint_mutated_engine(tmp_path, lambda s: s + "\n# copy\n")
    assert result.findings == []


def test_removing_fsync_is_flagged_as_advisory(tmp_path):
    result = _lint_mutated_engine(
        tmp_path, lambda s: s.replace("os.fsync(fh.fileno())", "pass")
    )
    assert "CRASH003" in rule_ids(result)


def test_writing_checkpoint_directly_breaks_atomic_publish(tmp_path):
    # Re-introduce the torn-checkpoint bug: drop tmp + replace and
    # land the pickle straight on its final path.
    def direct(source):
        return (
            source
            .replace('tmp = f"{path}.tmp"', "")
            .replace('with open(tmp, "wb") as fh:', 'with open(path, "wb") as fh:')
            .replace("os.replace(tmp, path)", "")
        )

    result = _lint_mutated_engine(tmp_path, direct)
    assert "CRASH001" in rule_ids(result)
