"""Tests for the mechanistic YCSB/slab KV engine."""

import numpy as np
import pytest

from repro.memory.address import PAGE_SIZE
from repro.verify.reference import sample_pages
from repro.workloads.ycsb import (
    SlabAllocator,
    YcsbMix,
    YcsbWorkload,
)
from tests.sparsity_helpers import from_trace


class TestSlabAllocator:
    def test_objects_do_not_overlap(self):
        alloc = SlabAllocator()
        spans = []
        rng = np.random.default_rng(0)
        for _ in range(500):
            size = int(rng.integers(16, 1025))
            addr, cls = alloc.allocate(size)
            spans.append((addr, addr + cls))
        spans.sort()
        for (_a0, a1), (b0, _b1) in zip(spans, spans[1:]):
            assert a1 <= b0

    def test_same_class_packs_one_page(self):
        alloc = SlabAllocator()
        addrs = [alloc.allocate(100)[0] for _ in range(PAGE_SIZE // 128)]
        pages = {a // PAGE_SIZE for a in addrs}
        assert len(pages) == 1

    def test_class_rounding(self):
        alloc = SlabAllocator()
        _, cls = alloc.allocate(65)
        assert cls == 128

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            SlabAllocator().allocate(4096)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlabAllocator(size_classes=())
        with pytest.raises(ValueError):
            SlabAllocator(size_classes=(100,))  # not a 64 multiple


class TestYcsbWorkload:
    def make(self, **kw):
        defaults = dict(num_keys=5000, seed=1)
        defaults.update(kw)
        return YcsbWorkload(**defaults)

    def test_spec_latency_sensitive(self):
        wl = self.make()
        assert wl.spec.latency_sensitive
        assert wl.spec.footprint_pages > 0

    def test_trace_addresses_within_footprint(self):
        wl = self.make()
        pa = wl.trace(20_000)
        assert int(pa.max()) < wl.spec.footprint_pages * PAGE_SIZE
        assert (pa % 64 == 0).all()

    def test_request_touches_bucket_then_value(self):
        wl = self.make(num_keys=100)
        pa = wl.chunk_requests(1)
        # First access in the hash-table region, rest in the heap.
        heap_base = wl._bucket_pages * PAGE_SIZE
        assert int(pa[0]) < heap_base
        assert (pa[1:] >= heap_base).all()
        # Value words are consecutive.
        assert (np.diff(pa[1:]) == 64).all()

    def test_deterministic(self):
        a = self.make().trace(5000)
        b = self.make().trace(5000)
        assert np.array_equal(a, b)

    def test_restart(self):
        wl = self.make()
        a = wl.trace(5000)
        wl.restart()
        assert np.array_equal(a, wl.trace(5000))

    def test_keys_match_reference_draw(self):
        wl = self.make()
        popularity = wl._key_sampler.popularity
        ranks = np.arange(1, wl.num_keys + 1, dtype=np.float64) ** -0.99
        assert np.array_equal(np.sort(popularity), np.sort(ranks / ranks.sum()))
        keys = sample_pages(popularity, 4000, np.random.default_rng(wl.seed + 1))
        assert np.array_equal(wl.chunk_requests(4000),
                              wl._requests_to_addresses(keys))

    def test_mix_validation(self):
        with pytest.raises(ValueError):
            YcsbMix(read_fraction=1.5)
        with pytest.raises(ValueError):
            YcsbWorkload(num_keys=0)


class TestEmergentSparsity:
    """The Figure 4 cross-validation: the slab layout *produces* the
    sparsity the calibrated Redis generator encodes."""

    def test_heap_pages_mostly_sparse(self):
        """Small values + a request window that covers a fraction of
        the keyspace leave most heap pages with ≤16 of 64 words
        touched — the Redis-class regime of Figure 4, emerging from
        the slab layout with no sparsity configured anywhere."""
        wl = YcsbWorkload(num_keys=60_000, seed=2)
        pa = wl.trace(150_000)
        heap_base = wl._bucket_pages * PAGE_SIZE
        prof = from_trace("ycsb", pa[pa >= heap_base])
        assert prof.at(16) > 0.7

    def test_requests_spread_wide_across_heap(self):
        """Zipfian keys scattered by the allocator spread traffic over
        most of the heap — the paper's 'uniform random memory
        accesses' character, despite the key-level skew."""
        wl = YcsbWorkload(num_keys=20_000, seed=3)
        pa = wl.trace(300_000)
        heap_base = wl._bucket_pages * PAGE_SIZE
        pages = (pa[pa >= heap_base] // PAGE_SIZE).astype(np.int64)
        counts = np.bincount(pages)
        touched = counts[counts > 0].astype(float)
        heap_pages = wl.spec.footprint_pages - wl._bucket_pages
        assert len(touched) > 0.5 * heap_pages
        top1 = np.sort(touched)[::-1][: max(1, len(touched) // 100)].sum()
        assert top1 / touched.sum() < 0.5

    def test_drivable_by_engine(self):
        from repro.sim import SimConfig, Simulation

        wl = YcsbWorkload(num_keys=3000, seed=4)
        cfg = SimConfig(total_accesses=60_000, chunk_size=30_000,
                        ddr_pages=256, cxl_pages=4096, checkpoints=1)
        result = Simulation(wl, cfg, policy="m5-hwt").run()
        assert result.p99_latency_us is not None
        assert result.promoted > 0
