"""A mechanistic key-value store + YCSB workload engine.

The registry's Redis/Memcached/CacheLib generators are *statistical*
(popularity and word-density calibrated to the paper's measurements).
This module builds the same traffic *mechanistically*: a slab
allocator lays keys out in memory, a YCSB-style request stream picks
keys, and each request touches the bucket word of a hash table plus
the value's words.  The Figure 4 sparsity then *emerges* from the
layout — small values scattered across slab pages leave most of each
page's 64 words untouched — instead of being configured, which makes
this engine the cross-validation oracle for the calibrated generators
(see ``tests/workloads/test_ycsb.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.memory.address import PAGE_SIZE, WORD_SIZE
from repro.workloads.base import DEFAULT_CHUNK, TraceGenerator, WorkloadSpec
from repro.workloads.zipf import PageSampler

#: Slab size classes in bytes (jemalloc/memcached-style).
DEFAULT_SIZE_CLASSES = (64, 128, 256, 512, 1024)


@dataclass(frozen=True)
class YcsbMix:
    """Operation mix.  YCSB-A is 50% reads / 50% updates; both touch
    the same resident value words (updates add no new allocation in
    this model)."""

    read_fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")


class SlabAllocator:
    """Lays out fixed-size objects in page-aligned slabs.

    Objects of one size class fill consecutive slots of dedicated
    pages; pages of different classes interleave in allocation order —
    the layout that makes KV heaps word-sparse.
    """

    def __init__(self, size_classes=DEFAULT_SIZE_CLASSES):
        if not size_classes:
            raise ValueError("need at least one size class")
        if any(s % WORD_SIZE or s <= 0 for s in size_classes):
            raise ValueError("size classes must be positive multiples of 64")
        self.size_classes = tuple(int(s) for s in size_classes)
        self._next_page = 0
        # Per class: (current page, next free slot index).
        self._open = {s: None for s in self.size_classes}

    def _class_for(self, size: int) -> int:
        for cls in self.size_classes:
            if size <= cls:
                return cls
        raise ValueError(f"object of {size}B exceeds largest size class")

    def allocate(self, size: int):
        """Allocate one object; returns (byte address, class bytes)."""
        cls = self._class_for(size)
        slots_per_page = PAGE_SIZE // cls
        state = self._open[cls]
        if state is None or state[1] >= slots_per_page:
            state = (self._next_page, 0)
            self._next_page += 1
        page, slot = state
        self._open[cls] = (page, slot + 1)
        return page * PAGE_SIZE + slot * cls, cls

    @property
    def pages_used(self) -> int:
        return self._next_page


class YcsbWorkload(TraceGenerator):
    """YCSB-over-slab KV store trace generator.

    Args:
        num_keys: keyspace size.
        value_size_sampler: callable(rng, n) → value sizes in bytes;
            default samples the small-object mix typical of cache
            deployments (most values ≤ a few hundred bytes).
        zipf_theta: request-popularity skew over *keys* (YCSB's default
            scrambled-zipfian is ~0.99; page-level skew comes out lower
            because slabs mix keys).
        hashtable_buckets: one 64B bucket word is touched per request.
    """

    def __init__(
        self,
        num_keys: int = 50_000,
        value_size_sampler=None,
        zipf_theta: float = 0.99,
        mix: Optional[YcsbMix] = None,
        hashtable_buckets: int = 1 << 14,
        seed: int = 0,
        name: str = "ycsb-kv",
    ):
        if num_keys <= 0 or hashtable_buckets <= 0:
            raise ValueError("num_keys and buckets must be positive")
        if zipf_theta < 0:
            raise ValueError("zipf_theta must be non-negative")
        self.mix = mix if mix is not None else YcsbMix()
        rng = np.random.default_rng(seed)
        sampler = value_size_sampler or self._default_sizes
        sizes = sampler(rng, num_keys)

        # Load phase: hash table region first, then slab heap.
        self._bucket_pages = -(-hashtable_buckets * WORD_SIZE // PAGE_SIZE)
        allocator = SlabAllocator()
        addresses = np.empty(num_keys, dtype=np.int64)
        lengths = np.empty(num_keys, dtype=np.int64)
        for key in range(num_keys):
            addr, cls = allocator.allocate(int(sizes[key]))
            addresses[key] = addr
            lengths[key] = max(1, int(sizes[key]) // WORD_SIZE)
        heap_base = self._bucket_pages * PAGE_SIZE
        self._value_addr = addresses + heap_base
        self._value_words = lengths
        self._buckets = hashtable_buckets
        footprint = self._bucket_pages + allocator.pages_used
        spec = WorkloadSpec(
            name=name,
            footprint_pages=footprint,
            description="mechanistic YCSB over a slab-allocated KV heap",
            cores=1,
            latency_sensitive=True,
            mpki=15.0,
        )
        super().__init__(spec, seed)
        self._rng = np.random.default_rng(seed + 1)
        self._carry = np.empty(0, dtype=np.uint64)
        # Scrambled-zipfian over keys.
        ranks = np.arange(1, num_keys + 1, dtype=np.float64) ** -zipf_theta
        p = ranks / ranks.sum()
        self._key_sampler = PageSampler(p[rng.permutation(num_keys)])

    @staticmethod
    def _default_sizes(rng, n):
        """Cache-style small-object mix: 60% ≤128B, 30% ≤512B, 10% ~1KB."""
        choice = rng.random(n)
        sizes = np.where(
            choice < 0.6,
            rng.integers(16, 129, n),
            np.where(choice < 0.9, rng.integers(129, 513, n),
                     rng.integers(513, 1025, n)),
        )
        return sizes

    @property
    def num_keys(self) -> int:
        return self._value_addr.size

    def _requests_to_addresses(self, keys: np.ndarray) -> np.ndarray:
        """Expand key requests into the byte-address stream: one hash
        bucket probe plus the value's words."""
        words = self._value_words[keys]
        total = int(words.sum()) + keys.size
        out = np.empty(total, dtype=np.uint64)
        pos = 0
        bucket = (keys % self._buckets) * WORD_SIZE
        for i, key in enumerate(keys.tolist()):
            out[pos] = bucket[i]
            pos += 1
            w = int(words[i])
            base = int(self._value_addr[key])
            out[pos : pos + w] = base + np.arange(w, dtype=np.uint64) * WORD_SIZE
            pos += w
        return out

    def chunk_requests(self, num_requests: int) -> np.ndarray:
        """Generate the address stream of ``num_requests`` operations."""
        keys = self._key_sampler.sample(int(num_requests), self._rng)
        return self._requests_to_addresses(keys)

    def chunk(self, chunk_size: int = DEFAULT_CHUNK) -> np.ndarray:
        """Exactly ``chunk_size`` accesses (requests are generated on
        demand; the tail of the last request carries into the next
        chunk) — the interface the simulation engine drives."""
        size = int(chunk_size)
        while self._carry.size < size:
            mean_words = 1.0 + float(self._value_words.mean())
            need = size - self._carry.size
            requests = max(1, int(need / mean_words) + 1)
            self._carry = np.concatenate(
                [self._carry, self.chunk_requests(requests)]
            )
        out, self._carry = self._carry[:size], self._carry[size:]
        return out

    def restart(self) -> None:
        self._rng = np.random.default_rng(self.seed + 1)
        self._carry = np.empty(0, dtype=np.uint64)
