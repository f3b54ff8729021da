"""Suppression mechanics: ``# lint: disable=RULE`` comments, span
expansion over multi-line statements, and SUP001 stale-suppression
findings."""

import textwrap

from repro.lintkit.suppressions import (
    count_disable_comments,
    find_suppressions,
)
from tests.lintkit.conftest import rule_ids


def test_trailing_comment_suppresses_finding(lint_tree):
    result = lint_tree(
        {
            "src/repro/sim/x.py": """\
                import random

                x = random.random()  # lint: disable=DET001
                """
        },
        rules=["DET001"],
    )
    assert result.ok
    assert result.summary.suppressed == 1
    assert result.summary.by_rule["DET001"]["suppressed"] == 1


def test_standalone_comment_suppresses_line_below(lint_tree):
    result = lint_tree(
        {
            "src/repro/sim/x.py": """\
                import random

                # lint: disable=DET001 -- deliberate entropy for the demo
                x = random.random()
                """
        },
        rules=["DET001"],
    )
    assert result.ok
    assert result.summary.suppressed == 1


def test_suppression_covers_multiline_statement(lint_tree):
    # The finding lands on the random.random() line, two lines below
    # the comment; the statement-span expansion must still cover it.
    result = lint_tree(
        {
            "src/repro/sim/x.py": """\
                import random

                # lint: disable=DET001
                values = [
                    random.random()
                    for _ in range(3)
                ]
                """
        },
        rules=["DET001"],
    )
    assert result.ok
    assert result.summary.suppressed == 1


def test_unused_suppression_is_flagged_as_sup001(lint_tree):
    result = lint_tree(
        {
            "src/repro/sim/x.py": """\
                # lint: disable=DET001
                x = 1
                """
        }
    )
    assert rule_ids(result) == ["SUP001"]
    assert "never fired" in result.findings[0].message
    assert result.findings[0].severity.value == "warning"


def test_suppression_naming_unknown_rule_is_flagged(lint_tree):
    result = lint_tree(
        {
            "src/repro/sim/x.py": """\
                x = 1  # lint: disable=NOPE001
                """
        }
    )
    assert rule_ids(result) == ["SUP001"]
    assert "unknown rule" in result.findings[0].message


def test_suppression_for_an_unselected_rule_is_not_flagged(lint_tree):
    # With --rules DET001 the PERF001 suppression's rule never ran, so
    # the entry is neither stale nor unknown; NOPE001 is still unknown.
    result = lint_tree(
        {
            "src/repro/sim/x.py": """\
                x = 1  # lint: disable=PERF001
                y = 2  # lint: disable=NOPE001
                """
        },
        rules=["DET001"],
    )
    assert [(f.rule, f.line) for f in result.findings] == [("SUP001", 2)]
    assert "unknown rule `NOPE001`" in result.findings[0].message


def test_disable_text_inside_docstring_is_not_a_suppression(lint_tree):
    source = textwrap.dedent(
        '''\
        def f():
            """Suppress with `# lint: disable=DET001` above the line."""
            return 1
        '''
    )
    result = lint_tree({"src/repro/sim/x.py": source})
    assert result.ok
    assert count_disable_comments(source) == 0


def test_count_disable_comments_counts_real_comments():
    source = (
        "import random\n"
        "a = random.random()  # lint: disable=DET001\n"
        "# lint: disable=DET003\n"
        "b = list({1, 2})\n"
    )
    assert count_disable_comments(source) == 2


def test_one_comment_lists_several_rules():
    sup = find_suppressions("x = 1  # lint: disable=DET001, UNIT002 -- why\n")
    assert [(e.rule, e.comment_line, e.target_line) for e in sup.entries] == [
        ("DET001", 1, 1),
        ("UNIT002", 1, 1),
    ]


def test_comment_chain_attaches_to_first_code_line(lint_tree):
    result = lint_tree(
        {
            "src/repro/sim/x.py": """\
                import random

                # lint: disable=DET001
                # the demo wants fresh entropy on every run
                x = random.random()
                """
        },
        rules=["DET001"],
    )
    assert result.ok
    assert result.summary.suppressed == 1


def test_blank_line_breaks_standalone_attachment(lint_tree):
    result = lint_tree(
        {
            "src/repro/sim/x.py": """\
                import random

                # lint: disable=DET001

                x = random.random()
                """
        },
        rules=["DET001"],
    )
    assert rule_ids(result) == ["DET001", "SUP001"]
    assert result.summary.suppressed == 0


def test_suppression_silences_only_the_rule_it_names(lint_tree):
    result = lint_tree(
        {
            "src/repro/sim/x.py": """\
                import random

                x = random.random()  # lint: disable=DET003
                """
        },
        rules=["DET001", "DET003"],
    )
    assert rule_ids(result) == ["DET001", "SUP001"]


def test_sup001_cannot_be_suppressed():
    sup = find_suppressions("x = 1  # lint: disable=SUP001\n")
    assert not sup.consume("SUP001", 1)
    assert [e.rule for e in sup.unused()] == ["SUP001"]


def test_count_disable_comments_is_zero_on_untokenizable_source():
    assert count_disable_comments("x = (  # lint: disable=DET001\n") == 0
