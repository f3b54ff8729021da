"""Engine-level behavior: output formats, exit codes, CLI plumbing,
the rule catalogue, and syntax-error handling."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lintkit import RULE_REGISTRY, format_human, format_json
from repro.lintkit.engine import iter_python_files

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Every registered rule id.  Changing the catalogue means changing
#: this set, the docs tables, and the README family table together.
RULE_IDS = {
    "DET001", "DET002", "DET003", "DET004",
    "UNIT001", "UNIT002", "UNIT003",
    "PERF001",
    "DRIFT001", "DRIFT002", "DRIFT003",
}


#: Ids of rule families that were retired; naming one is a usage error.
RETIRED_IDS = [
    "CONC001", "CONC002", "CONC003", "CONC004", "DTYPE001",
    "CRASH001", "CRASH002", "CRASH003", "CRASH004", "PICKLE001", "PICKLE002",
]


def main(argv):
    return cli_main(["lint", *argv])


_BAD_SRC = """\
import random

x = random.random()
"""


def _write_tree(tmp_path, source=_BAD_SRC):
    target = tmp_path / "src" / "repro" / "sim" / "x.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return target


def test_format_json_structure(lint_tree):
    result = lint_tree(
        {"src/repro/sim/x.py": _BAD_SRC}, rules=["DET001"]
    )
    data = json.loads(format_json(result))
    assert data["version"] == 1
    assert data["summary"]["files"] == 1
    assert data["summary"]["findings"] == 1
    assert data["summary"]["by_rule"]["DET001"]["findings"] == 1
    (finding,) = data["findings"]
    assert finding["rule"] == "DET001"
    assert finding["severity"] == "error"
    assert finding["path"].endswith("x.py")
    assert finding["line"] == 3
    assert finding["fix_hint"]


def test_format_human_has_location_and_summary_line(lint_tree):
    result = lint_tree(
        {"src/repro/sim/x.py": _BAD_SRC}, rules=["DET001"]
    )
    text = format_human(result)
    assert "x.py:3:" in text
    assert "DET001" in text
    assert "lint: 1 files, 1 findings, 0 suppressed" in text


def test_main_exit_zero_on_clean_tree(tmp_path, capsys):
    _write_tree(tmp_path, "x = 1\n")
    code = main([str(tmp_path), "--root", str(tmp_path)])
    assert code == 0


def test_main_exit_one_on_findings(tmp_path, capsys):
    _write_tree(tmp_path)
    code = main([str(tmp_path), "--root", str(tmp_path)])
    assert code == 1
    assert "DET001" in capsys.readouterr().out


def test_main_exit_two_on_unknown_rule(tmp_path, capsys):
    _write_tree(tmp_path)
    code = main([str(tmp_path), "--root", str(tmp_path), "--rules", "BOGUS9"])
    assert code == 2


def test_main_list_rules_prints_catalogue(capsys):
    code = main(["--list-rules"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert {line.split()[0] for line in lines} == RULE_IDS
    assert len(lines) == len(RULE_IDS)


def test_docs_catalogue_tables_match_registered_rules():
    doc = (REPO_ROOT / "docs" / "static_analysis.md").read_text()
    documented = set(re.findall(r"^\| `([A-Z]+[0-9]{3})` \|", doc, re.M))
    assert documented == set(RULE_REGISTRY) == RULE_IDS


def test_main_writes_json_report_to_output_file(tmp_path, capsys):
    _write_tree(tmp_path)
    report = tmp_path / "lint.json"
    code = main(
        [
            str(tmp_path),
            "--root", str(tmp_path),
            "--format", "json",
            "--output", str(report),
        ]
    )
    assert code == 1
    data = json.loads(report.read_text())
    assert data["summary"]["findings"] == 1


def test_syntax_error_becomes_parse_finding(lint_tree):
    result = lint_tree({"src/repro/sim/broken.py": "def broken(:\n"})
    assert not result.ok
    assert [f.rule for f in result.findings] == ["PARSE"]
    assert "syntax error" in result.findings[0].message


def test_format_human_omits_by_rule_line_when_clean(lint_tree):
    result = lint_tree({"src/repro/sim/x.py": "x = 1\n"}, rules=["DET001"])
    assert format_human(result) == "lint: 1 files, 0 findings, 0 suppressed"


def test_format_human_prints_fix_hint_under_finding(lint_tree):
    result = lint_tree({"src/repro/sim/x.py": _BAD_SRC}, rules=["DET001"])
    lines = format_human(result).splitlines()
    assert lines[0].startswith("src/repro/sim/x.py:3:5: error DET001:")
    assert lines[1].startswith("    hint: ")
    assert lines[-1] == "by rule: DET001=1"


def test_main_list_rules_shows_each_severity(capsys):
    assert main(["--list-rules"]) == 0
    severity = {
        line.split()[0]: line.split()[1]
        for line in capsys.readouterr().out.splitlines()
    }
    assert severity == {
        rule_id: f"[{RULE_REGISTRY[rule_id].severity}]" for rule_id in RULE_IDS
    }


def test_main_rules_option_tolerates_spaces_and_empty_items(tmp_path, capsys):
    _write_tree(tmp_path)
    code = main(
        [str(tmp_path), "--root", str(tmp_path), "--rules", " UNIT001 ,, DET001 "]
    )
    assert code == 1
    assert "DET001" in capsys.readouterr().out


@pytest.mark.parametrize("rule_id", RETIRED_IDS)
def test_main_rejects_retired_rule_ids(tmp_path, capsys, rule_id):
    _write_tree(tmp_path, "x = 1\n")
    code = main([str(tmp_path), "--root", str(tmp_path), "--rules", rule_id])
    assert code == 2
    assert rule_id in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["--changed", "HEAD"], ["--max-suppressions", "10"], ["--format", "sarif"]],
    ids=["changed", "max-suppressions", "format-sarif"],
)
def test_main_rejects_removed_options(tmp_path, capsys, argv):
    _write_tree(tmp_path, "x = 1\n")
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path), "--root", str(tmp_path), *argv])
    assert exc.value.code == 2


def test_syntax_error_does_not_stop_other_files(lint_tree):
    result = lint_tree(
        {
            "src/repro/sim/broken.py": "def broken(:\n",
            "src/repro/sim/x.py": _BAD_SRC,
        },
        rules=["DET001"],
    )
    assert [(f.rule, Path(f.path).name) for f in result.findings] == [
        ("PARSE", "broken.py"),
        ("DET001", "x.py"),
    ]


def test_iter_python_files_skips_cache_dirs_and_accepts_files(tmp_path):
    (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text("")
    (tmp_path / "pkg" / "mod.py").write_text("")
    (tmp_path / "pkg" / "notes.txt").write_text("")
    single = tmp_path / "script.py"
    single.write_text("")
    found = iter_python_files([str(tmp_path / "pkg"), str(single), str(single)])
    assert found == [str(tmp_path / "pkg" / "mod.py"), str(single)]
