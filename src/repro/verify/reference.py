"""Per-access reference models: the oracles of the vectorized kernels.

The paper defines PAC/WAC (§3) and the HPT/HWT top-K trackers (§5.1) by
what they do on *one* access; MGLRU and ``migrate_pages()`` act on one
page at a time.  The production pipeline reaches the same end state a
chunk at a time with array kernels.  This module keeps the literal
one-at-a-time semantics as plain functions, one per vectorized entry
point (DAMON's region work: one region at a time), so the ``engine``
and ``kernels`` oracles, the golden matrix and the Hypothesis
equivalence suites can hold the kernels to them.

:func:`as_reference` binds these functions onto one built component, or
onto every component of a :class:`~repro.sim.engine.Simulation` before
its first epoch, replacing the vectorized entry points on those
instances only::

    sim = as_reference(Simulation(workload, config, policy="m5-hpt"))
    sim.run()  # bit-identical to the production run, over 10x slower

:func:`as_exact_sequence` goes one step further for the CM-Sketch and
CAM-only trackers: one estimator update and one CAM offer per access,
the hardware pipeline the ``sketch`` oracle compares the chunked ingest
against.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

import numpy as np

from repro.baselines.base import MigrationPolicy
from repro.baselines.damon import Damon
from repro.core.spacesaving import SpaceSaving
from repro.core.topk import SortedCam
from repro.core.trackers import (
    CmSketchTopK,
    ExactTopK,
    SpaceSavingTopK,
    TopKTracker,
)
from repro.cxl.batch import AccessBatch
from repro.cxl.pac import PageAccessCounter
from repro.cxl.wac import WordAccessCounter
from repro.memory.address import PAGE_SHIFT, PAGE_SIZE, WORD_SHIFT
from repro.memory.migration import MigrationEngine
from repro.memory.mglru import MultiGenLru
from repro.memory.tiers import NodeKind, TieredMemory
from repro.sim.engine import Simulation

T = TypeVar("T")

# ----------------------------------------------------------------------
# tiers


def translate(memory: TieredMemory, logical_addresses: np.ndarray) -> np.ndarray:
    """One page-table walk per access."""
    la = np.asarray(logical_addresses, dtype=np.uint64)
    out = np.empty(la.shape, dtype=np.uint64)
    for i, addr in enumerate(la.tolist()):
        frame = int(memory.frame_map[addr >> PAGE_SHIFT])
        if frame < 0:
            raise KeyError("access to unallocated logical page")
        out[i] = (frame << PAGE_SHIFT) | (addr & (PAGE_SIZE - 1))
    return out


def record_epoch_accesses(memory: TieredMemory, logical_pages: np.ndarray) -> None:
    """One node-counter increment per access."""
    for lpage in np.asarray(logical_pages, dtype=np.int64).tolist():
        code = int(memory.node_map[lpage])
        if code >= 0:
            memory.nodes[code].record_accesses(1)


# ----------------------------------------------------------------------
# PAC / WAC


def _count_each(counter: Any, slots: np.ndarray) -> None:
    """One SRAM increment per access, spilling into the 64-bit table
    at each saturation crossing (the §3 counter semantics)."""
    for slot in slots.tolist():
        count = int(counter._sram[slot]) + 1
        if count > counter._saturation:
            counter._table[slot] += np.uint64(count)
            counter.spills += 1
            count = 0
        counter._sram[slot] = count


def pac_observe(pac: PageAccessCounter, addresses: np.ndarray) -> None:
    """PAC snoop, one access at a time (direct-mapped SRAM)."""
    if pac._cache_mode:
        # The counter-cache mode has a single, sequential implementation.
        PageAccessCounter.observe(pac, addresses)
        return
    if not pac.enabled:
        return
    pa = np.asarray(addresses, dtype=np.uint64)
    pa = pa[pac.region.contains(pa)]
    pac.total_accesses += int(pa.size)
    pfns = (pa >> np.uint64(PAGE_SHIFT)).astype(np.int64)
    _count_each(pac, pfns - pac.region.first_page)


def wac_observe(wac: WordAccessCounter, addresses: np.ndarray) -> None:
    """WAC snoop, one access at a time over the monitor window."""
    if not wac.enabled:
        return
    pa = np.asarray(addresses, dtype=np.uint64)
    pa = pa[wac.monitor_region.contains(pa)]
    wac.total_accesses += int(pa.size)
    start = np.uint64(wac.monitor_region.start)
    _count_each(wac, ((pa - start) >> np.uint64(WORD_SHIFT)).astype(np.int64))


def observe_batch(snoop: Any, batch: AccessBatch) -> None:
    """Ignore the batch's shared digests and replay its raw addresses."""
    snoop.observe(batch.addresses)


def batch_digest(
    addresses: np.ndarray, shift: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The :class:`AccessBatch` digest by ``np.unique``: (unique keys
    ascending, first index, multiplicities) of ``PA >> shift``, one
    stable sort per shift."""
    keys = np.asarray(addresses, dtype=np.uint64) >> np.uint64(shift)
    return np.unique(keys, return_index=True, return_counts=True)


def batch_digest_ordered(
    addresses: np.ndarray, shift: int
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`batch_digest`'s keys and multiplicities in
    first-appearance order."""
    uniques, first, counts = batch_digest(addresses, shift)
    order = np.argsort(first, kind="stable")
    return uniques[order], counts[order]


# ----------------------------------------------------------------------
# trackers


def offer_batch(cam: SortedCam, addresses: np.ndarray, estimates: np.ndarray) -> int:
    """One CAM offer per (address, estimate) pair, in order."""
    pairs = zip(np.atleast_1d(addresses).tolist(), np.atleast_1d(estimates).tolist())
    return sum(cam.offer(address, estimate) for address, estimate in pairs)


def update_batch(
    summary: Any, keys: np.ndarray, weights: Optional[np.ndarray] = None
) -> None:
    """One ``update_one`` per key (``weight`` repeats at once), in order:
    Space-Saving and Misra–Gries alike."""
    keys_list = np.atleast_1d(np.asarray(keys, dtype=np.uint64)).tolist()
    if weights is None:
        for key in keys_list:
            summary.update_one(key)
        return
    for key, weight in zip(keys_list, np.atleast_1d(weights).tolist()):
        summary.update_one(key, weight)


def exact_ingest(tracker: ExactTopK, keys: np.ndarray) -> None:
    """One exact counter increment per access."""
    for key in keys.tolist():
        tracker._counts[key] = tracker._counts.get(key, 0) + 1


def ingest_sequence(tracker: TopKTracker, keys: np.ndarray) -> None:
    """One estimator update and one CAM offer per access — the §5.1
    hardware pipeline, as opposed to the chunked ingest."""
    if isinstance(tracker, CmSketchTopK):
        for key in keys.tolist():
            tracker.cam.offer(key, tracker.sketch.update_one(key))
    elif isinstance(tracker, SpaceSavingTopK):
        for key in keys.tolist():
            tracker.summary.update_one(key)
    else:
        raise TypeError(f"no exact-sequence model for {type(tracker).__name__}")


# ----------------------------------------------------------------------
# MGLRU, migration, hot-page list


def record_accesses(mglru: MultiGenLru, pages: np.ndarray) -> None:
    """One generation/heat update per access.  Generation assignment
    is idempotent and heat adds are exact integer-valued float
    additions, so the vectorized kernel must match bit for bit."""
    for page in np.asarray(pages, dtype=np.int64).tolist():
        if mglru._gen[page] >= 0:
            mglru._gen[page] = mglru.max_seq
            mglru._heat[page] += 1.0


def coldest(
    mglru: MultiGenLru, n: int, among: Optional[np.ndarray] = None
) -> np.ndarray:
    """Sort every tracked candidate by its (generation, heat, page)
    key and keep the first ``n``."""
    pages = (range(mglru.num_pages) if among is None
             else np.asarray(among, dtype=np.int64).tolist())
    keys = sorted((int(mglru._gen[page]), float(mglru._heat[page]), page)
                  for page in pages if mglru._gen[page] >= 0)
    return np.array([page for _, _, page in keys[:max(n, 0)]], dtype=np.int64)


def promote(engine: MigrationEngine, pages: np.ndarray) -> int:
    """One demote/promote pair per page."""
    pages = engine._reject_pinned(np.unique(np.asarray(pages, dtype=np.int64)))
    on_cxl = pages[engine.memory.node_map[pages] == 1]
    if on_cxl.size == 0:
        return 0
    budget = engine.memory.ddr.free_pages - engine.ddr_reserve_pages
    promoted = engine._promote_sequential(pages, on_cxl, budget)
    engine.stats.promoted += promoted
    engine.stats.time_us += engine.cost_model.cost_us(promoted)
    return promoted


def demote(engine: MigrationEngine, pages: np.ndarray) -> int:
    """One page move per demotion, stopping when CXL is full."""
    pages = engine._reject_pinned(np.unique(np.asarray(pages, dtype=np.int64)))
    demoted = 0
    for lpage in pages[engine.memory.node_map[pages] == 0].tolist():
        try:
            engine.memory.move_page(lpage, NodeKind.CXL)
        except MemoryError:
            break
        engine.mglru.untrack(np.array([lpage]))
        demoted += 1
    engine.stats.demoted += demoted
    engine.stats.time_us += engine.cost_model.cost_us(demoted)
    return demoted


def record_hot(policy: MigrationPolicy, logical_pages: np.ndarray) -> None:
    """One membership test and append per identified page."""
    for lpage in np.atleast_1d(np.asarray(logical_pages, dtype=np.int64)).tolist():
        if policy._hot_mask[lpage]:
            continue
        policy._hot_mask[lpage] = True
        policy.hot_pages.append(lpage)
        policy.hot_pfns.append(int(policy.memory.frame_map[lpage]))
        policy._pending_candidates.append(lpage)


# ----------------------------------------------------------------------
# DAMON regions


def _regions(damon: Damon) -> List[List[int]]:
    """The regions as ``[start, end, nr_accesses]`` records."""
    return [list(region) for region in zip(
        damon.starts.tolist(), damon.ends.tolist(), damon._nr_accesses.tolist())]


def _set_regions(damon: Damon, regions: List[List[int]]) -> None:
    table = np.array(regions, dtype=np.int64).reshape(-1, 3)
    damon.starts, damon.ends, damon._nr_accesses = table.T.copy()


def promote_hot(damon: Damon, threshold: float) -> None:
    """Highest score first (ties by address), one ``record_hot`` per
    region, until a region scores below ``threshold`` or the quota is
    spent."""
    budget = damon.quota_pages
    for start, end, nr in sorted(_regions(damon), key=lambda r: (-r[2], r[0])):
        if nr < threshold or budget <= 0:
            break
        pages = np.arange(start, end)
        pages = pages[damon.memory.node_map[pages] == 1][:budget]
        budget -= int(pages.size)
        damon.record_hot(pages)


def merge_regions(damon: Damon) -> None:
    """Merge each region into the last kept one in place, testing the
    region count before the pass on every step."""
    regions = _regions(damon)
    merged: List[List[int]] = []
    for region in regions:
        if (merged
                and abs(merged[-1][2] - region[2]) <= damon.merge_threshold
                and len(regions) > damon.min_nr_regions):
            last = merged[-1]
            last_size, size = last[1] - last[0], region[1] - region[0]
            last[2] = (last[2] * last_size + region[2] * size) // (last_size + size)
            last[1] = region[1]
        else:
            merged.append(region)
    _set_regions(damon, merged)


def split_regions(damon: Damon) -> None:
    """One scalar cut draw per region of two or more pages, in address
    order."""
    regions = _regions(damon)
    if len(regions) * 2 > damon.max_nr_regions:
        return
    split: List[List[int]] = []
    for start, end, nr in regions:
        size = end - start
        if size < 2:
            split.append([start, end, nr])
            continue
        lo = start + max(1, size // 4)
        hi = end - max(1, size // 4)
        cut = int(damon._rng.integers(lo, max(lo + 1, hi)))
        split += [[start, cut, nr], [cut, end, nr]]
    _set_regions(damon, split)


# ----------------------------------------------------------------------
# binding

#: Entry points each component type swaps for its reference model.
REFERENCE_MODELS: Tuple[Tuple[Any, Dict[str, Callable[..., Any]]], ...] = (
    (TieredMemory, {"translate": translate,
                    "record_epoch_accesses": record_epoch_accesses}),
    (PageAccessCounter, {"observe": pac_observe, "observe_batch": observe_batch}),
    (WordAccessCounter, {"observe": wac_observe, "observe_batch": observe_batch}),
    (TopKTracker, {"observe_batch": observe_batch}),
    (ExactTopK, {"_ingest": exact_ingest}),
    (SortedCam, {"offer_batch": offer_batch}),
    (SpaceSaving, {"update_batch": update_batch}),
    (MultiGenLru, {"record_accesses": record_accesses, "coldest": coldest}),
    (MigrationEngine, {"promote": promote, "demote": demote}),
    (MigrationPolicy, {"record_hot": record_hot}),
    (Damon, {"_promote_hot": promote_hot, "_merge_regions": merge_regions,
             "_split_regions": split_regions}),
)


def _bind(obj: Any, methods: Dict[str, Callable[..., Any]]) -> None:
    # A partial, unlike a bound method, survives a pickle round trip.
    for name, fn in methods.items():
        setattr(obj, name, functools.partial(fn, obj))


def as_reference(obj: T) -> T:
    """Swap ``obj``'s vectorized entry points for the per-access
    models above, and return it.

    ``obj`` is one component (tiers, PAC/WAC, a tracker with its CAM or
    summary, MGLRU, the migration engine, a CPU-driven policy) or a
    whole :class:`Simulation`, whose components are all converted.  The
    swap is per instance; other instances keep the production kernels.
    """
    if isinstance(obj, Simulation):
        parts = (obj.memory, obj.mglru, obj.engine, *obj.controller.snoops,
                 obj.epoch_policy)
        for part in parts:
            as_reference(part)
        return obj
    for cls, methods in REFERENCE_MODELS:
        if isinstance(obj, cls):
            _bind(obj, methods)
    if isinstance(obj, TopKTracker):
        for part in (getattr(obj, "cam", None), getattr(obj, "summary", None)):
            if part is not None:
                as_reference(part)
    return obj


def as_exact_sequence(tracker: T) -> T:
    """Make a CM-Sketch or CAM-only tracker ingest one access at a time
    (:func:`ingest_sequence`), and return it."""
    _bind(tracker, {"observe_batch": observe_batch, "_ingest": ingest_sequence})
    return tracker
