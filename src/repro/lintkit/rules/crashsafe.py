"""CRASH rules — crash-safe persistence protocols.

Every checkpoint (a run's ``Simulation.save_state``, the service's
``service.ckpt``) is one file published by one protocol: write to a
temp path in the same directory, flush + ``os.fsync``, then
``os.replace`` onto the final name.  Readers see the old file or the
new one, never a torn one.  These rules encode that protocol over the
project model's durable-write/replace summaries, so deleting any step
of it anywhere in the tree is caught statically.

A write is *checkpoint-scoped* when its path tokens or its enclosing
function's name mention ``checkpoint``/``ckpt``/``manifest``/
``save_state``; the rules stay silent elsewhere (scratch outputs,
plots, logs have no atomicity contract).

* **CRASH001** (error) — a checkpoint-scoped write that lands
  directly on the final path (no temp token), or a temp write in a
  function that never ``os.replace``s anything: a crash mid-write
  leaves a torn artifact (or never publishes one).
* **CRASH003** (note, advisory — never gates the exit code) — a
  checkpoint-scoped function publishes via ``os.replace`` but neither
  it nor anything it calls runs ``os.fsync``: rename durability
  without data durability, so power loss can publish an empty file.
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.lintkit.base import Rule, register
from repro.lintkit.context import Project
from repro.lintkit.findings import Finding, Severity
from repro.lintkit.model import get_model

#: Substrings marking a path/function as checkpoint-scoped.
CHECKPOINT_MARKERS = ("checkpoint", "ckpt", "manifest", "save_state")

#: Substrings marking a path expression as a temp path.
TMP_MARKERS = ("tmp", "temp", "partial")


def _checkpoint_scoped(info, tokens: Set[str]) -> bool:
    bag = sorted(tokens | {info.name.lower()})
    return any(marker in token for token in bag for marker in CHECKPOINT_MARKERS)


def _tmpish(tokens: Set[str]) -> bool:
    return any(marker in token for token in sorted(tokens) for marker in TMP_MARKERS)


@register
class AtomicPublishRule(Rule):
    id = "CRASH001"
    title = "checkpoint artifact written without tmp + os.replace"
    severity = Severity.ERROR
    fix_hint = (
        "write to `<final>.tmp` in the same directory, fsync, then "
        "`os.replace(tmp, final)` — readers then see old-or-new, "
        "never torn"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        model = get_model(project)
        for info in model.functions.values():
            for write in info.durable_writes:
                if not _checkpoint_scoped(info, write.path_tokens):
                    continue
                if not _tmpish(write.path_tokens):
                    yield self.finding(
                        info.ctx,
                        write.node,
                        f"`{info.name}` writes a checkpoint artifact "
                        "directly to its final path; a crash mid-write "
                        "leaves a torn file",
                    )
                elif not info.replaces:
                    yield self.finding(
                        info.ctx,
                        write.node,
                        f"`{info.name}` writes a checkpoint temp file but "
                        "never publishes it with `os.replace`",
                    )


@register
class FsyncBeforeReplaceRule(Rule):
    id = "CRASH003"
    title = "os.replace without fsync (advisory)"
    severity = Severity.NOTE
    fix_hint = (
        "`fh.flush(); os.fsync(fh.fileno())` before `os.replace` — "
        "rename durability does not imply data durability"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        model = get_model(project)
        for info in model.functions.values():
            if not info.replaces:
                continue
            tokens: Set[str] = set()
            for write in info.durable_writes:
                tokens |= write.path_tokens
            for replace in info.replaces:
                tokens |= replace.src_tokens | replace.dst_tokens
            if not _checkpoint_scoped(info, tokens):
                continue
            if model.queries.calls_fsync(info.qualname):
                continue
            yield self.finding(
                info.ctx,
                info.replaces[0].node,
                f"`{info.name}` publishes with `os.replace` but never "
                "reaches `os.fsync`; power loss can publish an empty file",
            )
