"""Trace capture, storage, and replay.

The paper's §7.1 methodology collects "traces of cache-filtered and
time-stamped addresses to DRAM" with Intel Pin + Ramulator, then feeds
them to the tracker simulator.  This module is that pipeline's
equivalent: capture a generator's stream (optionally LLC-filtered),
persist it, and replay it later as a
:class:`~repro.workloads.base.TraceGenerator` — so expensive workload
construction (e.g. preferential-attachment graphs) happens once.

Two on-disk formats coexist:

* **v1** — one compressed ``.npz`` holding the whole address array
  (:func:`save_trace`); simple, but the file only exists once the
  trace is complete, so it cannot back a live stream.
* **v2** — a chunked, append-only binary stream
  (:class:`TraceWriter` / :class:`TraceReader`): a magic + JSON
  header, then length-prefixed zlib-compressed chunks each carrying a
  CRC32, then an optional footer index written at close.  A v2 file
  is *readable while it is being written*: a reader walks the chunk
  blocks and simply stops at the incomplete tail; once the footer
  lands the file is complete and the index gives O(1) metadata.  The
  ``repro serve`` daemon tails v2 traces as live ingest streams.

:func:`load_trace` auto-detects either format.  Capture goes through
:func:`capture` (materialise in memory) or :func:`record` (stream
straight to a v2 file, the record half of record/replay).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict
from pathlib import Path
from typing import IO, Iterator, Optional, Tuple, Union

import numpy as np

from repro.cache.cache import SetAssociativeCache
from repro.workloads.base import DEFAULT_CHUNK, TraceGenerator, WorkloadSpec

#: Format version stamped into every v1 (.npz) trace file.
TRACE_FORMAT_VERSION = 1
#: Format version stamped into every v2 (chunked stream) trace file.
TRACE_FORMAT_VERSION_V2 = 2

#: Leading magic of a v2 stream file.
V2_MAGIC = b"RTRACE02"
#: Trailing magic sealing a *complete* v2 file (footer present).
V2_TAIL = b"RTRCEND2"

_BLOCK_CHUNK = 0x01
_BLOCK_FOOTER = 0x02

#: Per-block header: kind (u8), compressed length (u32), CRC32 of the
#: compressed payload (u32), address count / chunk count (u64).
_BLOCK_HEADER = struct.Struct("<BIIQ")
#: File tail: byte offset of the footer block (u64) + tail magic.
_TAIL = struct.Struct("<Q8s")


class TraceFormatError(ValueError):
    """The file is not a recognisable trace of either format."""


class TraceCorruptError(TraceFormatError):
    """A v2 block failed its CRC / structural check."""


class TraceExhausted(EOFError):
    """A strict replay ran past the end of its stored trace."""


def capture(
    generator: TraceGenerator,
    total_accesses: int,
    llc: Optional[SetAssociativeCache] = None,
    chunk_size: int = DEFAULT_CHUNK,
) -> np.ndarray:
    """Materialise a (optionally cache-filtered) trace.

    Args:
        generator: source workload.
        total_accesses: accesses to draw *before* filtering; the
            returned trace is shorter when an LLC filter absorbs hits.
        llc: optional cache model; only its misses reach the trace,
            mirroring the DRAM-side view the CXL controller sees.
    """
    parts = []
    for chunk in generator.chunks(total_accesses, chunk_size):
        if llc is not None:
            chunk = llc.filter(chunk)
        if chunk.size:
            parts.append(chunk.astype(np.uint64))
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate(parts)


def save_trace(
    path: Union[str, Path],
    trace: np.ndarray,
    spec: WorkloadSpec,
    metadata: Optional[dict] = None,
) -> Path:
    """Persist a trace with its workload spec as compressed .npz (v1)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "version": TRACE_FORMAT_VERSION,
        "spec": asdict(spec),
        "metadata": metadata or {},
    }
    np.savez_compressed(
        path,
        addresses=np.asarray(trace, dtype=np.uint64),
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
    )
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def _load_trace_v1(path: Path) -> Tuple[np.ndarray, WorkloadSpec, dict]:
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        if header.get("version") != TRACE_FORMAT_VERSION:
            raise TraceFormatError(
                f"unsupported trace format version {header.get('version')}"
            )
        spec = WorkloadSpec(**header["spec"])
        return data["addresses"].copy(), spec, header["metadata"]


def load_trace(path: Union[str, Path]) -> Tuple[np.ndarray, WorkloadSpec, dict]:
    """Load a stored trace of either format.

    Returns ``(addresses, spec, metadata)``.  The format is detected
    from the file's leading magic, not its extension; a v2 file that
    is still being written loads its complete prefix.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(V2_MAGIC))
    if magic == V2_MAGIC:
        with TraceReader(path) as reader:
            return reader.read_all(), reader.spec, dict(reader.metadata)
    try:
        return _load_trace_v1(path)
    except (OSError, ValueError, KeyError) as exc:
        if isinstance(exc, TraceFormatError):
            raise
        raise TraceFormatError(
            f"{path} is neither a v2 stream (bad magic) nor a v1 .npz "
            f"trace ({exc})"
        ) from exc


# ----------------------------------------------------------------------
# v2: chunked append-only stream


class TraceWriter:
    """Append-only chunked v2 trace writer.

    Layout::

        RTRACE02
        u32 header_len | header JSON {version, spec, metadata}
        repeat:  0x01 | u32 comp_len | u32 crc32 | u64 count | zlib(addresses)
        close:   0x02 | u32 comp_len | u32 crc32 | u64 nchunks | zlib(index JSON)
                 u64 footer_offset | RTRCEND2

    Every chunk block is flushed as soon as it is appended, so a
    concurrent :class:`TraceReader` (or a reader inspecting the file
    after a crash) sees each complete chunk immediately; only the
    footer marks the stream finished.  The index JSON maps chunk
    ordinals to byte offsets and counts for O(1) metadata on reopen.
    """

    def __init__(
        self,
        path: Union[str, Path],
        spec: WorkloadSpec,
        metadata: Optional[dict] = None,
        compresslevel: int = 6,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.spec = spec
        self.metadata = dict(metadata or {})
        self.compresslevel = int(compresslevel)
        self.chunks_written = 0
        self.addresses_written = 0
        self._index: list = []
        self._fh: Optional[IO[bytes]] = open(self.path, "wb")
        header = json.dumps({
            "version": TRACE_FORMAT_VERSION_V2,
            "spec": asdict(spec),
            "metadata": self.metadata,
        }).encode()
        self._fh.write(V2_MAGIC)
        self._fh.write(struct.pack("<I", len(header)))
        self._fh.write(header)
        self._fh.flush()

    @property
    def closed(self) -> bool:
        return self._fh is None

    def append(self, chunk: np.ndarray) -> None:
        """Write one chunk block (empty chunks are skipped)."""
        if self._fh is None:
            raise ValueError("trace writer is closed")
        data = np.ascontiguousarray(chunk, dtype="<u8")
        if data.size == 0:
            return
        payload = zlib.compress(data.tobytes(), self.compresslevel)
        self._index.append(
            {"offset": self._fh.tell(), "count": int(data.size)}
        )
        self._fh.write(_BLOCK_HEADER.pack(
            _BLOCK_CHUNK, len(payload), zlib.crc32(payload), data.size
        ))
        self._fh.write(payload)
        # One flush per chunk: a tailing reader (or a post-crash scan)
        # must always see whole blocks, never a buffered half-block.
        self._fh.flush()
        self.chunks_written += 1
        self.addresses_written += int(data.size)

    def close(self) -> None:
        """Seal the stream with the footer index.  Idempotent."""
        if self._fh is None:
            return
        footer_offset = self._fh.tell()
        payload = zlib.compress(json.dumps({
            "chunks": self._index,
            "total_addresses": self.addresses_written,
        }).encode(), self.compresslevel)
        self._fh.write(_BLOCK_HEADER.pack(
            _BLOCK_FOOTER, len(payload), zlib.crc32(payload),
            self.chunks_written,
        ))
        self._fh.write(payload)
        self._fh.write(_TAIL.pack(footer_offset, V2_TAIL))
        self._fh.flush()
        self._fh.close()
        self._fh = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


class TraceReader:
    """Reader for v2 streams, including ones still being written.

    The reader is *incremental*: :meth:`read_next` returns the next
    complete chunk on disk, or ``None`` when the writer has not
    appended one yet (call again later — the ``repro serve`` daemon
    polls exactly this way).  :attr:`complete` flips to True once the
    footer block is reached; after that ``read_next`` stays ``None``
    forever and :attr:`total_addresses` comes from the index.

    A partial block at the end of a footer-less file is treated as an
    in-flight append (or the torn tail of a crashed writer), never an
    error; a CRC mismatch on a *complete* block raises
    :class:`TraceCorruptError` — corruption must not silently replay
    as a plausible workload.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh: Optional[IO[bytes]] = open(self.path, "rb")
        # Header parsing can raise (truncated file, bad magic, alien
        # spec); close the handle on every such path or it leaks.
        try:
            magic = self._fh.read(len(V2_MAGIC))
            if magic != V2_MAGIC:
                raise TraceFormatError(
                    f"{self.path} is not a v2 trace (magic {magic!r})"
                )
            (header_len,) = struct.unpack("<I", self._read_exact(4))
            header = json.loads(self._read_exact(header_len).decode())
            if header.get("version") != TRACE_FORMAT_VERSION_V2:
                raise TraceFormatError(
                    f"unsupported v2 version {header.get('version')}"
                )
            self.spec = WorkloadSpec(**header["spec"])
            self.metadata: dict = header.get("metadata", {})
            self._data_start = self._fh.tell()
        except Exception:
            self._fh.close()
            self._fh = None
            raise
        #: Chunks consumed through :meth:`read_next` / :meth:`skip`.
        self.chunks_read = 0
        self._complete = False
        self._footer: Optional[dict] = None

    # -- low-level ------------------------------------------------------

    def _read_exact(self, n: int) -> bytes:
        data = self._fh.read(n)
        if len(data) != n:
            raise TraceCorruptError(
                f"{self.path}: truncated read ({len(data)}/{n} bytes)"
            )
        return data

    def _next_block(self, decode: bool) -> Optional[np.ndarray]:
        """Parse the block at the current offset.

        Returns the chunk (or a size-0 placeholder when skipping),
        ``None`` when no complete block is on disk yet or the footer
        was reached.
        """
        if self._fh is None:
            raise ValueError("trace reader is closed")
        if self._complete:
            return None
        start = self._fh.tell()
        head = self._fh.read(_BLOCK_HEADER.size)
        if len(head) < _BLOCK_HEADER.size:
            self._fh.seek(start)
            return None  # in-flight append; try again later
        kind, comp_len, crc, count = _BLOCK_HEADER.unpack(head)
        payload = self._fh.read(comp_len)
        if len(payload) < comp_len:
            self._fh.seek(start)
            return None  # body not fully on disk yet
        if kind == _BLOCK_FOOTER:
            if zlib.crc32(payload) != crc:
                raise TraceCorruptError(f"{self.path}: footer CRC mismatch")
            self._footer = json.loads(zlib.decompress(payload).decode())
            if count != len(self._footer.get("chunks", ())):
                raise TraceCorruptError(
                    f"{self.path}: footer chunk count mismatch"
                )
            self._complete = True
            return None
        if kind != _BLOCK_CHUNK:
            raise TraceCorruptError(
                f"{self.path}: unknown block kind 0x{kind:02x}"
            )
        if zlib.crc32(payload) != crc:
            raise TraceCorruptError(
                f"{self.path}: chunk {self.chunks_read} CRC mismatch"
            )
        self.chunks_read += 1
        if not decode:
            return np.empty(0, dtype=np.uint64)
        data = np.frombuffer(zlib.decompress(payload), dtype="<u8")
        if data.size != count:
            raise TraceCorruptError(
                f"{self.path}: chunk {self.chunks_read - 1} declares "
                f"{count} addresses but holds {data.size}"
            )
        return data.astype(np.uint64)

    # -- public ---------------------------------------------------------

    @property
    def complete(self) -> bool:
        """True once the footer was reached (the writer closed)."""
        return self._complete

    @property
    def total_addresses(self) -> Optional[int]:
        """Indexed total; None until the footer has been read."""
        if self._footer is None:
            return None
        return int(self._footer["total_addresses"])

    def read_next(self) -> Optional[np.ndarray]:
        """The next complete chunk, or None (not yet written / done)."""
        return self._next_block(decode=True)

    def skip(self, n_chunks: int) -> int:
        """Skip complete chunks without decompressing; returns skipped.

        Resume uses this to reposition a stream source at the chunk
        ordinal recorded in a service checkpoint.
        """
        skipped = 0
        for _ in range(int(n_chunks)):
            if self._next_block(decode=False) is None:
                break
            skipped += 1
        return skipped

    def chunks(self) -> Iterator[np.ndarray]:
        """Iterate the complete chunks currently on disk."""
        while True:
            chunk = self.read_next()
            if chunk is None:
                return
            yield chunk

    def read_all(self) -> np.ndarray:
        """All remaining complete addresses as one array."""
        parts = list(self.chunks())
        if not parts:
            return np.empty(0, dtype=np.uint64)
        return np.concatenate(parts)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


def record(
    generator: TraceGenerator,
    total_accesses: int,
    path: Union[str, Path],
    llc: Optional[SetAssociativeCache] = None,
    chunk_size: int = DEFAULT_CHUNK,
    metadata: Optional[dict] = None,
) -> Path:
    """Stream a capture straight to a v2 file (the record path).

    Unlike :func:`capture` + :func:`save_trace`, nothing is held in
    memory beyond one chunk, and the file is tail-readable while the
    capture runs.
    """
    with TraceWriter(path, generator.spec, metadata=metadata) as writer:
        for chunk in generator.chunks(total_accesses, chunk_size):
            if llc is not None:
                chunk = llc.filter(chunk)
            writer.append(chunk)
    return Path(path)


class ReplayWorkload(TraceGenerator):
    """A TraceGenerator that replays a stored address stream.

    By default, requests beyond the stored length wrap around (the
    trace is treated as one steady-state period) — but every wrap is
    *counted* in :attr:`wraps`, and the engine surfaces the total as
    ``RunResult.extra["replay_wraps"]`` plus a ``replay.wrap``
    telemetry event, so a truncated capture can never silently replay
    as a plausible periodic workload.  ``strict=True`` forbids
    wrapping entirely: running past the end raises
    :class:`TraceExhausted`.
    """

    def __init__(
        self, trace: np.ndarray, spec: WorkloadSpec, strict: bool = False
    ):
        super().__init__(spec, seed=0)
        trace = np.asarray(trace, dtype=np.uint64)
        if trace.size == 0:
            raise ValueError("cannot replay an empty trace")
        self._trace = trace
        self._pos = 0
        self._consumed = 0  # lifetime addresses served (restart resets)
        #: Times the replay re-served the start of the trace.
        self.wraps = 0
        #: True forbids wrapping: exhaustion raises TraceExhausted.
        self.strict = bool(strict)

    @classmethod
    def from_file(
        cls, path: Union[str, Path], strict: bool = False
    ) -> ReplayWorkload:
        addresses, spec, _ = load_trace(path)
        return cls(addresses, spec, strict=strict)

    @property
    def remaining(self) -> int:
        """Addresses left before the next wrap (or exhaustion)."""
        if self.strict:
            return self._trace.size - self._consumed
        return self._trace.size - self._pos

    def restart(self) -> None:
        self._pos = 0
        self._consumed = 0
        self.wraps = 0

    def chunk(self, chunk_size: int = DEFAULT_CHUNK) -> np.ndarray:
        n = self._trace.size
        take = int(chunk_size)
        if self.strict and self._consumed + take > n:
            raise TraceExhausted(
                f"strict replay of {self.spec.name!r} exhausted: "
                f"{take} addresses requested with {n - self._consumed} "
                f"of {n} remaining"
            )
        if take > 0:
            self._consumed += take
            # The wrap count is the pass index of the last address
            # served, derived from the *lifetime* total rather than
            # the modular position: an exact-multiple read lands the
            # position back on 0, and a position-based count would
            # miss every subsequent full pass.  Reading exactly up to
            # the last element is not (yet) a wrap; re-serving the
            # first element is.
            self.wraps = (self._consumed - 1) // n
        idx = (self._pos + np.arange(take)) % n
        self._pos = (self._pos + take) % n
        return self._trace[idx]
