"""File and project context handed to lint rules."""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional

from repro.lintkit.suppressions import FileSuppressions, find_suppressions


class FileContext:
    """One parsed source file.

    Attributes:
        path: absolute filesystem path.
        rel: posix-style path relative to the project root — rules
            match layers against this (``src/repro/sim/engine.py``).
        source: the file's text.
        tree: the parsed :mod:`ast` module, or ``None`` when the file
            has a syntax error (reported as ``PARSE`` by the engine).
        suppressions: the file's ``# lint: disable=`` comments.
    """

    def __init__(self, path: str, rel: str, source: str):
        self.path = path
        self.rel = rel.replace(os.sep, "/")
        self.source = source
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree: Optional[ast.Module] = ast.parse(source, filename=rel)
        except SyntaxError as exc:
            self.tree = None
            self.syntax_error = exc
        self.suppressions: FileSuppressions = find_suppressions(source)
        if self.tree is not None:
            spans: dict = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.stmt):
                    end = getattr(node, "end_lineno", None) or node.lineno
                    prev = spans.get(node.lineno)
                    # innermost statement wins: least overreach
                    if prev is None or end < prev:
                        spans[node.lineno] = end
            self.suppressions.expand(spans)

    def in_layer(self, *layers: str) -> bool:
        """True if the file lives under ``repro/<layer>/`` for any of
        the given layer names (package ``__init__`` files included)."""
        for layer in layers:
            if f"repro/{layer}/" in self.rel:
                return True
        return False

    def is_module(self, rel_suffix: str) -> bool:
        return self.rel.endswith(rel_suffix)


class Project:
    """The set of files under analysis plus the project root.

    The root anchors the registry files (``docs/registries/``) that
    the DRIFT rules diff against, so project-scope rules work even
    when only a subtree is being linted.
    """

    def __init__(self, root: str, files: Iterable[FileContext]):
        self.root = os.path.abspath(root)
        self.files: List[FileContext] = list(files)
        self._by_suffix: Dict[str, FileContext] = {}

    def file_ending_with(self, rel_suffix: str) -> Optional[FileContext]:
        """The unique scanned file whose relative path ends with
        ``rel_suffix`` (e.g. ``repro/sim/config.py``)."""
        if rel_suffix not in self._by_suffix:
            matches = [f for f in self.files if f.rel.endswith(rel_suffix)]
            self._by_suffix[rel_suffix] = matches[0] if len(matches) == 1 else None
        return self._by_suffix[rel_suffix]

    def registry_path(self, name: str) -> str:
        return os.path.join(self.root, "docs", "registries", name)
