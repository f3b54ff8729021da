"""Tests for trace recording, storage and reading back."""

import json
import struct
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.workloads import (
    TraceCorruptError,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    record,
    uniform_workload,
)
from repro.workloads.traceio import TRACE_MAGIC


class TestTraceStream:
    """The chunked, append-only trace format."""

    @staticmethod
    def chunks_of(n_chunks, chunk_size=256, seed=7):
        wl = uniform_workload(footprint_pages=128, seed=seed)
        return wl, [wl.trace(chunk_size) for _ in range(n_chunks)]

    def test_write_read_roundtrip(self, tmp_path):
        wl, chunks = self.chunks_of(4)
        path = tmp_path / "t.rtrace"
        meta = {"llc": {"ways": 4, "bytes": 6 << 20}, "tags": ["a", "b"]}
        with TraceWriter(path, wl.spec, metadata=meta) as w:
            for c in chunks:
                w.append(c)
        with TraceReader(path) as r:
            got = [r.read_next() for _ in range(4)]
            assert all(np.array_equal(g, c) for g, c in zip(got, chunks))
            assert r.read_next() is None  # footer reached
            assert r.complete
            assert r.total_addresses == 4 * 256
            assert r.spec == wl.spec
            assert r.metadata == meta

    def test_tail_readable_while_writing(self, tmp_path):
        """The service tails a file its producer has not sealed yet."""
        wl, chunks = self.chunks_of(3)
        path = tmp_path / "live.rtrace"
        writer = TraceWriter(path, wl.spec)
        reader = TraceReader(path)
        assert reader.read_next() is None  # nothing appended yet
        writer.append(chunks[0])
        got = reader.read_next()
        assert np.array_equal(got, chunks[0])
        # In flight: no footer, so the reader reports "not yet" —
        # not an error, not completion.
        assert reader.read_next() is None
        assert not reader.complete
        assert reader.total_addresses is None
        writer.append(chunks[1])
        writer.append(chunks[2])
        assert np.array_equal(reader.read_next(), chunks[1])
        writer.close()
        assert np.array_equal(reader.read_next(), chunks[2])
        assert reader.read_next() is None
        assert reader.complete
        assert reader.total_addresses == 3 * 256
        reader.close()

    @pytest.mark.parametrize("more_chunks", [0, 1])
    def test_seal_between_short_read_and_seal_check(
            self, tmp_path, monkeypatch, more_chunks):
        """A reader polling at EOF gets a short read; if the producer
        seals the file before the reader looks for the tail, the block
        at that offset is now whole and must be read, not rejected."""
        wl, chunks = self.chunks_of(1 + more_chunks)
        path = tmp_path / "live.rtrace"
        writer = TraceWriter(path, wl.spec)
        writer.append(chunks[0])
        reader = TraceReader(path)
        assert np.array_equal(reader.read_next(), chunks[0])
        sealed_footer = TraceReader._sealed_footer

        def seal_first(self):
            for chunk in chunks[1:]:
                writer.append(chunk)
            writer.close()
            return sealed_footer(self)

        monkeypatch.setattr(TraceReader, "_sealed_footer", seal_first)
        for chunk in chunks[1:]:
            assert np.array_equal(reader.read_next(), chunk)
        assert reader.read_next() is None
        assert reader.complete
        assert reader.total_addresses == len(chunks) * 256
        reader.close()

    def test_torn_tail_is_in_flight_not_error(self, tmp_path):
        """A half-written block (crashed writer) must read as a clean
        prefix, never as corruption."""
        wl, chunks = self.chunks_of(2)
        path = tmp_path / "torn.rtrace"
        writer = TraceWriter(path, wl.spec)
        writer.append(chunks[0])
        boundary = writer._fh.tell()
        writer.append(chunks[1])
        writer.close()
        data = path.read_bytes()
        torn = tmp_path / "crashed.rtrace"
        torn.write_bytes(data[:boundary + 7])  # mid-second-block
        with TraceReader(torn) as r:
            assert np.array_equal(r.read_next(), chunks[0])
            assert r.read_next() is None
            assert not r.complete

    def test_truncated_header_raises_and_closes_the_handle(
        self, tmp_path, monkeypatch
    ):
        """A reader that dies parsing the header must not leak its
        file handle: the constructor raises *after* closing it."""
        import builtins

        wl, chunks = self.chunks_of(1)
        path = tmp_path / "ok.rtrace"
        with TraceWriter(path, wl.spec) as w:
            w.append(chunks[0])
        bad = tmp_path / "truncated.rtrace"
        # Valid magic, then the file ends mid header block.
        bad.write_bytes(path.read_bytes()[: len(TRACE_MAGIC) + 2])

        opened = []
        real_open = builtins.open

        def spy(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            opened.append(fh)
            return fh

        monkeypatch.setattr(builtins, "open", spy)
        with pytest.raises(TraceCorruptError):
            TraceReader(bad)
        assert opened, "reader never opened the file?"
        assert all(fh.closed for fh in opened)

    def test_bad_magic_raises_and_closes_the_handle(
        self, tmp_path, monkeypatch
    ):
        import builtins

        bad = tmp_path / "alien.rtrace"
        bad.write_bytes(b"NOTATRACE-FORMAT")

        opened = []
        real_open = builtins.open

        def spy(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            opened.append(fh)
            return fh

        monkeypatch.setattr(builtins, "open", spy)
        with pytest.raises(TraceFormatError):
            TraceReader(bad)
        assert opened and all(fh.closed for fh in opened)

    def test_crc_corruption_raises(self, tmp_path):
        wl, chunks = self.chunks_of(2)
        path = tmp_path / "ok.rtrace"
        writer = TraceWriter(path, wl.spec)
        writer.append(chunks[0])
        payload_mid = writer._fh.tell() - 4  # inside chunk 0's payload
        writer.append(chunks[1])
        writer.close()
        data = bytearray(path.read_bytes())
        data[payload_mid] ^= 0xFF
        bad = tmp_path / "bad.rtrace"
        bad.write_bytes(bytes(data))
        with TraceReader(bad) as r:
            with pytest.raises(TraceCorruptError):
                r.read_next()

    def test_skip_repositions_without_decoding(self, tmp_path):
        wl, chunks = self.chunks_of(5)
        path = tmp_path / "skip.rtrace"
        with TraceWriter(path, wl.spec) as w:
            for c in chunks:
                w.append(c)
        with TraceReader(path) as r:
            assert r.skip(3) == 3
            assert r.chunks_read == 3
            assert np.array_equal(r.read_next(), chunks[3])
            assert np.array_equal(r.read_next(), chunks[4])
            assert r.read_next() is None
        # Skipping past the end stops at the footer.
        with TraceReader(path) as r:
            assert r.skip(99) == 5
            assert r.complete

    def test_empty_chunks_are_dropped(self, tmp_path):
        wl, chunks = self.chunks_of(1)
        path = tmp_path / "empty.rtrace"
        with TraceWriter(path, wl.spec) as w:
            w.append(np.empty(0, dtype=np.uint64))
            w.append(chunks[0])
            w.append(np.empty(0, dtype=np.uint64))
            assert w.chunks_written == 1
        with TraceReader(path) as r:
            assert np.array_equal(r.read_all(), chunks[0])

    def test_in_flight_file_reads_its_prefix(self, tmp_path):
        wl, chunks = self.chunks_of(2)
        path = tmp_path / "prefix.rtrace"
        writer = TraceWriter(path, wl.spec)
        writer.append(chunks[0])
        with TraceReader(path) as r:  # before close: prefix only
            assert np.array_equal(r.read_all(), chunks[0])
            assert not r.complete
        writer.close()

    def test_footer_without_tail_is_in_flight(self, tmp_path):
        """A writer killed mid-close leaves the footer but no tail: the
        file is not sealed yet, so the reader waits rather than fails."""
        wl, chunks = self.chunks_of(2)
        path = tmp_path / "closing.rtrace"
        with TraceWriter(path, wl.spec) as w:
            for c in chunks:
                w.append(c)
        path.write_bytes(path.read_bytes()[:-3])
        with TraceReader(path) as r:
            assert np.array_equal(r.read_all(), np.concatenate(chunks))
            assert r.read_next() is None
            assert not r.complete

    def test_closed_writer_and_reader_refuse_io(self, tmp_path):
        wl, chunks = self.chunks_of(1)
        path = tmp_path / "closed.rtrace"
        writer = TraceWriter(path, wl.spec)
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            writer.append(chunks[0])
        reader = TraceReader(path)
        reader.close()
        with pytest.raises(ValueError, match="closed"):
            reader.read_next()

    def test_reader_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "not_a_trace"
        path.write_bytes(b"GARBAGE!" * 4)
        with pytest.raises(TraceFormatError):
            TraceReader(path)

    def test_record_streams_to_a_trace(self, tmp_path):
        wl = uniform_workload(footprint_pages=64, seed=9)
        twin = uniform_workload(footprint_pages=64, seed=9)
        path = record(wl, 2048, tmp_path / "rec.rtrace", chunk_size=512)
        with TraceReader(path) as r:
            addresses = r.read_all()
            assert r.spec == wl.spec
            assert r.complete
        # Draw the twin with the same chunking: the generator's RNG
        # stream depends on per-draw sizes.
        expect = np.concatenate([twin.trace(512) for _ in range(4)])
        assert np.array_equal(addresses, expect)

    def test_record_with_llc_filter(self, tmp_path):
        wl = uniform_workload(footprint_pages=16, seed=9)
        llc = SetAssociativeCache(capacity_bytes=64 * 512, ways=8)
        path = record(wl, 5000, tmp_path / "filt.rtrace", llc=llc)
        with TraceReader(path) as r:
            assert 0 < r.read_all().size < 5000


def write_sealed(path, n_chunks=2, chunk_size=256, metadata=None):
    """A sealed trace; returns its chunks and each chunk block's offset."""
    wl = uniform_workload(footprint_pages=128, seed=11)
    chunks = [wl.trace(chunk_size) for _ in range(n_chunks)]
    offsets = []
    with TraceWriter(path, wl.spec, metadata=metadata) as w:
        for c in chunks:
            offsets.append(w._fh.tell())
            w.append(c)
    return wl, chunks, offsets


class TestDamagedTraces:
    """A damaged trace raises a named error; it never reads back as a
    shorter or different workload."""

    @pytest.mark.parametrize("chunk", [0, 1])
    def test_sealed_file_with_overlong_block_raises(self, tmp_path, chunk):
        """A flipped bit in the high byte of a chunk's length field must
        not read as an in-flight append: that is a silent short read,
        and a ``repro serve`` stream that never drains."""
        path = tmp_path / "t.rtrace"
        _, _, offsets = write_sealed(path)
        data = bytearray(path.read_bytes())
        data[offsets[chunk] + 4] ^= 0x01  # kind(1) | len(4, LE) | ...
        path.write_bytes(bytes(data))
        with TraceReader(path) as r:
            with pytest.raises(TraceCorruptError, match="sealed"):
                r.read_all()
        with TraceReader(path) as r:
            with pytest.raises(TraceCorruptError, match="sealed"):
                r.skip(2)

    def test_unsealed_file_with_overlong_block_is_in_flight(self, tmp_path):
        """Without the tail the same bytes are indistinguishable from a
        writer that has not finished the block yet."""
        path = tmp_path / "t.rtrace"
        _, chunks, offsets = write_sealed(path)
        data = bytearray(path.read_bytes()[:-16])  # drop the tail
        data[offsets[1] + 4] ^= 0x01
        path.write_bytes(bytes(data))
        with TraceReader(path) as r:
            assert np.array_equal(r.read_all(), chunks[0])
            assert not r.complete

    def test_every_header_bit_flip_raises(self, tmp_path):
        """The magic and the header block are checksummed or checked:
        no single flipped bit reads back as a different spec."""
        path = tmp_path / "t.rtrace"
        _, _, offsets = write_sealed(path, metadata={"llc_ways": 4})
        good = path.read_bytes()
        bad = tmp_path / "bad.rtrace"
        for pos in range(offsets[0]):
            for bit in range(8):
                data = bytearray(good)
                data[pos] ^= 1 << bit
                bad.write_bytes(bytes(data))
                with pytest.raises(TraceFormatError):
                    TraceReader(bad).close()

    def test_tail_must_point_at_the_footer(self, tmp_path):
        path = tmp_path / "t.rtrace"
        write_sealed(path)
        data = bytearray(path.read_bytes())
        data[-16] ^= 0x01  # low byte of the tail's footer offset
        path.write_bytes(bytes(data))
        with TraceReader(path) as r:
            with pytest.raises(TraceCorruptError, match="tail"):
                r.read_all()

    def test_chunk_relabelled_as_footer_raises(self, tmp_path):
        """The chunk's CRC still matches; its payload is no index."""
        path = tmp_path / "t.rtrace"
        _, _, offsets = write_sealed(path)
        data = bytearray(path.read_bytes())
        data[offsets[1]] = 0x02
        path.write_bytes(bytes(data))
        with TraceReader(path) as r:
            with pytest.raises(TraceCorruptError, match="footer"):
                r.read_all()

    def test_footer_relabelled_as_chunk_raises(self, tmp_path):
        path = tmp_path / "t.rtrace"
        write_sealed(path)
        data = bytearray(path.read_bytes())
        (footer,) = struct.unpack("<Q", data[-16:-8])
        data[footer] = 0x01
        path.write_bytes(bytes(data))
        with TraceReader(path) as r:
            with pytest.raises(TraceCorruptError, match="declares"):
                r.read_all()

    def test_footer_must_index_the_chunks_before_it(self, tmp_path):
        """A footer indexing more chunks than precede it means a block
        went missing, even though every block left checks out."""
        wl = uniform_workload(footprint_pages=8, seed=0)
        path = tmp_path / "t.rtrace"
        with TraceWriter(path, wl.spec) as w:
            w.append(wl.trace(64))
            w._index.append(dict(w._index[0]))
            w.chunks_written += 1
        with TraceReader(path) as r:
            with pytest.raises(TraceCorruptError, match="precede"):
                r.read_all()

    def test_checksummed_header_without_a_spec_raises(self, tmp_path):
        """A header block with a valid CRC but no spec is malformed,
        not a ``KeyError``."""
        wl = uniform_workload(footprint_pages=8, seed=0)
        path = tmp_path / "t.rtrace"
        with TraceWriter(path, wl.spec) as w:
            w._fh.seek(len(TRACE_MAGIC))
            w._fh.truncate()
            body = json.dumps({"metadata": {}}).encode()
            w._write_block(0x03, body, len(body))
        with pytest.raises(TraceCorruptError, match="malformed header"):
            TraceReader(path)

    @pytest.mark.parametrize("version", [2, 99])
    def test_other_format_versions_are_named(self, tmp_path, version):
        wl = uniform_workload(footprint_pages=8, seed=0)
        header = json.dumps({"version": version,
                             "spec": wl.spec.__dict__,
                             "metadata": {}}).encode()
        path = tmp_path / "old.rtrace"
        path.write_bytes(b"RTRACE%02d" % version
                         + struct.pack("<I", len(header)) + header)
        with pytest.raises(TraceFormatError,
                           match=f"version {version} is not supported"):
            TraceReader(path)


@lru_cache(maxsize=1)
def _fuzz_subject():
    """Bytes of a small sealed trace plus what it must read back as."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.rtrace"
        wl, chunks, _ = write_sealed(path, n_chunks=3, chunk_size=64,
                                     metadata={"llc_ways": 4})
        return path.read_bytes(), np.concatenate(chunks), wl.spec


class TestByteFlipFuzz:
    @settings(max_examples=400)
    @given(data=st.data())
    def test_one_flipped_byte_fails_loudly_or_reads_identically(self, data):
        blob, addresses, spec = _fuzz_subject()
        pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
        xor = data.draw(st.integers(1, 255), label="xor")
        damaged = bytearray(blob)
        damaged[pos] ^= xor
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.rtrace"
            path.write_bytes(bytes(damaged))
            try:
                with TraceReader(path) as r:
                    got = r.read_all()
                    read = (r.complete, r.spec, r.metadata)
            except TraceFormatError:
                return
        assert read == (True, spec, {"llc_ways": 4})
        assert np.array_equal(got, addresses)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_one_flipped_byte_fails_loudly_or_skips_whole(self, data):
        """The resume path repositions with ``skip``, which checks CRCs
        but decodes nothing: it too must not stop short silently."""
        blob, addresses, _ = _fuzz_subject()
        pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
        xor = data.draw(st.integers(1, 255), label="xor")
        damaged = bytearray(blob)
        damaged[pos] ^= xor
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.rtrace"
            path.write_bytes(bytes(damaged))
            try:
                with TraceReader(path) as r:
                    skipped = (r.skip(10), r.complete, r.total_addresses)
            except TraceFormatError:
                return
        assert skipped == (3, True, addresses.size)
