"""``lint: disable=RULE`` suppression comments.

A suppression silences one or more rules on one line.  Trailing, on
the flagged line itself::

    self._t0 = time.perf_counter()  # lint: disable=DET002

or on a comment-only line directly above the flagged line (chains of
consecutive comment lines attach to the first code line below them;
a blank line breaks the attachment).

Only *real* comments count — the parser tokenizes the file, so the
pattern appearing inside a string or docstring (like the examples in
this module) is ignored.  Every suppression must be used: a disable
entry that never matches a finding is reported as ``SUP001`` so
stale exemptions cannot accumulate.  ``SUP001`` itself cannot be
suppressed.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List

#: Matches ``lint: disable=DET001`` and ``lint: disable=DET001,UNIT002``
#: inside a comment token.  Anything after the rule list (e.g. an
#: ``-- explanation``) is free-form.
_DISABLE_RE = re.compile(
    r"#\s*lint:\s*disable=([A-Z][A-Z0-9]*(?:\s*,\s*[A-Z][A-Z0-9]*)*)"
)

_COMMENT_ONLY_RE = re.compile(r"^\s*(#|$)")
_BLANK_RE = re.compile(r"^\s*$")


@dataclass
class SuppressionEntry:
    """One rule listed in one disable comment."""

    rule: str
    comment_line: int  #: line the comment itself is on (1-based)
    target_line: int  #: line of code the suppression applies to
    used: bool = field(default=False)


def _disable_comments(source: str) -> List[tuple]:
    """(line, standalone, [rules]) for every real disable comment.

    Tokenizes the file so the pattern appearing inside a string or
    docstring is never picked up.
    """
    out: List[tuple] = []
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _DISABLE_RE.search(tok.string)
        if not match:
            continue
        line, col = tok.start
        before = lines[line - 1][:col] if line - 1 < len(lines) else ""
        rules = [r.strip() for r in match.group(1).split(",")]
        out.append((line, before.strip() == "", rules))
    return out


def _target_line(line: int, standalone: bool, lines: List[str]) -> int:
    """The code line a disable comment on ``line`` applies to.

    Trailing comments apply to their own line; standalone comments
    attach to the first code line below them (chains of consecutive
    comment lines pass through; a blank line or EOF breaks the
    attachment, leaving the suppression anchored — and stale — on
    itself).
    """
    if not standalone:
        return line
    cursor = line + 1
    while cursor <= len(lines):
        text = lines[cursor - 1]
        if _BLANK_RE.match(text):
            break
        if not _COMMENT_ONLY_RE.match(text):
            return cursor
        cursor += 1
    return line


class FileSuppressions:
    """All suppression comments of one source file."""

    def __init__(self, source: str):
        self.entries: List[SuppressionEntry] = []
        self._by_line: Dict[int, List[SuppressionEntry]] = {}
        lines = source.splitlines()
        for line, standalone, rules in _disable_comments(source):
            self._add(rules, line, _target_line(line, standalone, lines))

    def _add(self, rules: List[str], comment_line: int, target_line: int) -> None:
        for rule in rules:
            entry = SuppressionEntry(rule, comment_line, target_line)
            self.entries.append(entry)
            self._by_line.setdefault(target_line, []).append(entry)

    def expand(self, stmt_spans: Dict[int, int]) -> None:
        """Extend each entry over the multi-line statement it targets.

        ``stmt_spans`` maps a statement's first line to its last line;
        an entry anchored at a statement's first line then suppresses
        findings anywhere inside that statement (the AST reports a
        call's line as the line the callee appears on, which for a
        wrapped expression is rarely the anchor line).
        """
        for entry in list(self.entries):
            end = stmt_spans.get(entry.target_line)
            if end is None:
                continue
            for line in range(entry.target_line + 1, end + 1):
                self._by_line.setdefault(line, []).append(entry)

    def consume(self, rule: str, line: int) -> bool:
        """True (and mark used) if ``rule`` is suppressed on ``line``."""
        if rule == "SUP001":
            return False
        hit = False
        for entry in self._by_line.get(line, []):
            if entry.rule == rule:
                entry.used = True
                hit = True
        return hit

    def unused(self) -> List[SuppressionEntry]:
        return [e for e in self.entries if not e.used]

    def __len__(self) -> int:
        return len(self.entries)


def find_suppressions(source: str) -> FileSuppressions:
    return FileSuppressions(source)


def count_disable_comments(source: str) -> int:
    """Number of real ``lint: disable=`` comments in ``source``."""
    return len(_disable_comments(source))
