"""Trace recording and storage: the one stored trace format.

The paper's §7.1 methodology collects "traces of cache-filtered and
time-stamped addresses to DRAM" with Intel Pin + Ramulator, then feeds
them to the tracker simulator.  This module is that pipeline's
equivalent: :func:`record` streams a generator's accesses (optionally
LLC-filtered) to a trace file and :class:`TraceReader` reads them back,
so expensive workload construction (e.g. preferential-attachment
graphs) happens once.

A trace is a chunked, append-only binary stream written by
:class:`TraceWriter`: a magic carrying the format version, a header
block (workload spec + metadata), one block per chunk of addresses,
and at close a footer index block and a tail.  Every block has the
same layout (kind, compressed length, CRC32, count, zlib payload), so
everything between the magic and the tail is checksummed.  A trace is
*readable while it is being written*: a reader walks the chunk blocks
and stops at the incomplete tail.  Once the tail lands the file is
sealed, and a block that does not fit in a sealed file is corruption,
not an in-flight append.  The ``repro serve`` daemon tails traces as
live ingest streams.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import asdict
from pathlib import Path
from typing import IO, Iterator, Optional, Tuple, Union

import numpy as np

from repro.cache.cache import SetAssociativeCache
from repro.workloads.base import DEFAULT_CHUNK, TraceGenerator, WorkloadSpec

#: Format version of every trace file, stamped into its leading magic.
TRACE_FORMAT_VERSION = 3

_MAGIC_PREFIX = b"RTRACE"
#: Leading magic: ``RTRACE`` plus the two-digit format version.
TRACE_MAGIC = _MAGIC_PREFIX + b"%02d" % TRACE_FORMAT_VERSION
#: Trailing magic sealing a *complete* file (footer present).
TRACE_TAIL = b"RTRCEND3"

_KIND_CHUNK = 0x01
_KIND_FOOTER = 0x02
_KIND_HEADER = 0x03

#: Per-block header: kind (u8), compressed length (u32), CRC32 of the
#: compressed payload (u32), and a count (u64): addresses in a chunk,
#: chunks in the footer, JSON bytes in the header.
_BLOCK = struct.Struct("<BIIQ")
#: File tail: byte offset of the footer block (u64) + tail magic.
_TAIL = struct.Struct("<Q8s")


class TraceFormatError(ValueError):
    """The file is not a trace of the supported format version."""


class TraceCorruptError(TraceFormatError):
    """A block failed its CRC or structural check."""


class TraceWriter:
    """Append-only chunked trace writer.

    Layout (every block is ``kind | u32 comp_len | u32 crc32 | u64 count
    | zlib payload``)::

        RTRACE03
        header:  0x03 | ... | count = JSON bytes | zlib(JSON {spec, metadata})
        repeat:  0x01 | ... | count = addresses  | zlib(addresses)
        close:   0x02 | ... | count = chunks     | zlib(index JSON)
                 u64 footer_offset | RTRCEND3

    Every chunk block is flushed as soon as it is appended, so a
    concurrent :class:`TraceReader` (or a reader inspecting the file
    after a crash) sees each complete chunk immediately; only the
    footer and tail mark the stream finished.  The index JSON maps
    chunk ordinals to byte offsets and counts for O(1) metadata on
    reopen.
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
            "spec": asdict(spec),
            "metadata": self.metadata,
        }).encode()
        self._fh.write(TRACE_MAGIC)
        self._write_block(_KIND_HEADER, header, len(header))
        self._fh.flush()

    @property
    def closed(self) -> bool:
        return self._fh is None

    def _write_block(self, kind: int, body: bytes, count: int) -> None:
        payload = zlib.compress(body, self.compresslevel)
        self._fh.write(
            _BLOCK.pack(kind, len(payload), zlib.crc32(payload), count)
        )
        self._fh.write(payload)

    def append(self, chunk: np.ndarray) -> None:
        """Write one chunk block (empty chunks are skipped)."""
        if self._fh is None:
            raise ValueError("trace writer is closed")
        data = np.ascontiguousarray(chunk, dtype="<u8")
        if data.size == 0:
            return
        self._index.append(
            {"offset": self._fh.tell(), "count": int(data.size)}
        )
        self._write_block(_KIND_CHUNK, data.tobytes(), data.size)
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
        self._write_block(_KIND_FOOTER, json.dumps({
            "chunks": self._index,
            "total_addresses": self.addresses_written,
        }).encode(), self.chunks_written)
        self._fh.write(_TAIL.pack(footer_offset, TRACE_TAIL))
        self._fh.flush()
        self._fh.close()
        self._fh = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


class TraceReader:
    """Reader for trace files, including ones still being written.

    The reader is *incremental*: :meth:`read_next` returns the next
    complete chunk on disk, or ``None`` when the writer has not
    appended one yet (call again later — the ``repro serve`` daemon
    polls exactly this way).  :attr:`complete` flips to True once the
    footer block is reached; after that ``read_next`` stays ``None``
    forever and :attr:`total_addresses` comes from the index.

    A partial block at the end of an unsealed file (no tail yet) is
    treated as an in-flight append, or the torn tail of a crashed
    writer, never an error.  Everything else that does not check out
    raises :class:`TraceFormatError` (an unsupported version) or
    :class:`TraceCorruptError` (a CRC mismatch, a block of the wrong
    kind or size, or a partial block in a sealed file): corruption
    must not silently replay as a plausible workload.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh: Optional[IO[bytes]] = open(self.path, "rb")
        # Header parsing can raise (truncated file, bad magic, alien
        # spec); close the handle on every such path or it leaks.
        try:
            self._check_magic(self._fh.read(len(TRACE_MAGIC)))
            block = self._read_block()
            if block is None:
                raise TraceCorruptError(f"{self.path}: truncated header")
            kind, count, payload = block
            if kind != _KIND_HEADER:
                raise TraceCorruptError(
                    f"{self.path}: expected the header block, found "
                    f"kind 0x{kind:02x}"
                )
            raw = self._inflate(payload, "header")
            if len(raw) != count:
                raise TraceCorruptError(
                    f"{self.path}: header declares {count} bytes but "
                    f"holds {len(raw)}"
                )
            header = self._json(raw, "header")
            try:
                self.spec = WorkloadSpec(**header["spec"])
                self.metadata: dict = dict(header["metadata"])
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceCorruptError(
                    f"{self.path}: malformed header ({exc!r})"
                ) from exc
        except Exception:
            self._fh.close()
            self._fh = None
            raise
        #: Chunks consumed through :meth:`read_next` / :meth:`skip`.
        self.chunks_read = 0
        self._complete = False
        self._footer: Optional[dict] = None

    # -- low-level ------------------------------------------------------

    def _check_magic(self, magic: bytes) -> None:
        version = magic[len(_MAGIC_PREFIX):]
        if not magic.startswith(_MAGIC_PREFIX) or not version.isdigit():
            raise TraceFormatError(
                f"{self.path} is not a trace (magic {magic!r})"
            )
        if int(version) != TRACE_FORMAT_VERSION:
            raise TraceFormatError(
                f"{self.path}: trace format version {int(version)} is not "
                f"supported (this reader reads version "
                f"{TRACE_FORMAT_VERSION}); record the trace again"
            )

    def _sealed_footer(self) -> Optional[int]:
        """The footer's byte offset if the file ends in a valid tail."""
        size = os.fstat(self._fh.fileno()).st_size
        if size < len(TRACE_MAGIC) + _BLOCK.size + _TAIL.size:
            return None
        self._fh.seek(size - _TAIL.size)
        offset, tail = _TAIL.unpack(self._fh.read(_TAIL.size))
        if tail != TRACE_TAIL or not (
            len(TRACE_MAGIC) <= offset <= size - _TAIL.size - _BLOCK.size
        ):
            return None
        return offset

    def _read_block(self) -> Optional[Tuple[int, int, bytes]]:
        """Read the block at the current offset and check its CRC.

        Returns ``(kind, count, payload)``, or ``None`` with the offset
        restored when the block is not fully on disk yet.  A sealed
        file has nothing in flight, so a partial block there raises.
        """
        start = self._fh.tell()
        block = self._try_block(start)
        if block is not None:
            return block
        footer = self._sealed_footer()
        if footer is None:
            self._fh.seek(start)
            return None
        # The writer may have sealed the file after the short read:
        # read once more, now that nothing can still be in flight.
        self._fh.seek(start)
        block = self._try_block(start)
        if block is None:
            raise TraceCorruptError(
                f"{self.path}: the block at byte {start} runs past the end "
                f"of a sealed trace (footer at byte {footer})"
            )
        return block

    def _try_block(self, start: int) -> Optional[Tuple[int, int, bytes]]:
        """The CRC-checked block at ``start``, or ``None`` if it is short."""
        head = self._fh.read(_BLOCK.size)
        if len(head) < _BLOCK.size:
            return None
        kind, comp_len, crc, count = _BLOCK.unpack(head)
        payload = self._fh.read(comp_len)
        if len(payload) < comp_len:
            return None
        if zlib.crc32(payload) != crc:
            raise TraceCorruptError(
                f"{self.path}: CRC mismatch in the block at byte {start}"
            )
        return kind, count, payload

    def _inflate(self, payload: bytes, what: str) -> bytes:
        try:
            return zlib.decompress(payload)
        except zlib.error as exc:
            raise TraceCorruptError(
                f"{self.path}: {what} does not decompress ({exc})"
            ) from exc

    def _json(self, raw: bytes, what: str) -> dict:
        try:
            value = json.loads(raw)
        except ValueError as exc:
            raise TraceCorruptError(
                f"{self.path}: {what} is not JSON ({exc})"
            ) from exc
        if not isinstance(value, dict):
            raise TraceCorruptError(f"{self.path}: {what} is not an object")
        return value

    def _read_footer(self, start: int, count: int, payload: bytes) -> None:
        """Check the footer block and the tail after it.

        While the writer is still sealing (footer on disk, tail not
        yet) the offset goes back to the footer for the next poll.
        """
        footer = self._json(self._inflate(payload, "footer"), "footer")
        chunks = footer.get("chunks")
        if (not isinstance(chunks, list) or len(chunks) != count
                or count != self.chunks_read):
            raise TraceCorruptError(
                f"{self.path}: footer indexes {count} chunks but "
                f"{self.chunks_read} precede it"
            )
        tail = self._fh.read(_TAIL.size)
        if len(tail) < _TAIL.size:
            self._fh.seek(start)
            return
        if tail != _TAIL.pack(start, TRACE_TAIL):
            raise TraceCorruptError(
                f"{self.path}: the tail does not point at the footer "
                f"(byte {start})"
            )
        self._footer = footer
        self._complete = True

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
        block = self._read_block()
        if block is None:
            return None  # in-flight append; try again later
        kind, count, payload = block
        if kind == _KIND_FOOTER:
            self._read_footer(start, count, payload)
            return None
        if kind != _KIND_CHUNK:
            raise TraceCorruptError(
                f"{self.path}: unexpected block kind 0x{kind:02x} at "
                f"byte {start}"
            )
        self.chunks_read += 1
        if not decode:
            return np.empty(0, dtype=np.uint64)
        raw = self._inflate(payload, f"chunk {self.chunks_read - 1}")
        if len(raw) != 8 * count:
            raise TraceCorruptError(
                f"{self.path}: chunk {self.chunks_read - 1} declares "
                f"{count} addresses but holds {len(raw)} bytes"
            )
        return np.frombuffer(raw, dtype="<u8").astype(np.uint64)

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
    """Record ``total_accesses`` of a generator to a trace file.

    With ``llc``, only the cache's misses reach the file, mirroring
    the DRAM-side view the CXL controller sees; the stored trace is
    then shorter than ``total_accesses``.  Nothing is held in memory
    beyond one chunk, and the file is tail-readable while the
    recording runs.
    """
    with TraceWriter(path, generator.spec, metadata=metadata) as writer:
        for chunk in generator.chunks(total_accesses, chunk_size):
            if llc is not None:
                chunk = llc.filter(chunk)
            writer.append(chunk)
    return Path(path)
