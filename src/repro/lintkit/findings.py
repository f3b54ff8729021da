"""Finding and severity types shared by every lint rule."""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings are correctness hazards (nondeterminism, unit
    mix-ups, registry drift); ``WARNING`` findings (stale
    suppressions) rank below them in the report.  Both fail the lint
    run: the linter has no "soft" tier, so a finding is fixed or
    suppressed.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule: the rule identifier (``DET001``, ``UNIT002``, …).
        path: file path relative to the project root (posix-style).
        line: 1-based line number.
        col: 0-based column offset.
        message: what is wrong, concretely.
        severity: see :class:`Severity`.
        fix_hint: how to fix it (or how to suppress it when the code
            is deliberately exempt).
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: Severity = Severity.ERROR
    fix_hint: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def format(self) -> str:
        text = f"{self.location()}: {self.severity} {self.rule}: {self.message}"
        if self.fix_hint:
            text += f"\n    hint: {self.fix_hint}"
        return text

    def as_dict(self) -> dict:
        data = asdict(self)
        data["severity"] = self.severity.value
        return data

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)


@dataclass
class Summary:
    """Aggregate counts for one lint run."""

    files: int = 0
    findings: int = 0
    suppressed: int = 0
    by_rule: dict = field(default_factory=dict)
