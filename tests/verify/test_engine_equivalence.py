"""Hypothesis equivalence suites: vectorized kernels ≡ reference models.

Every vectorized kernel of the epoch hot path has a per-access
reference model in :mod:`repro.verify.reference`, bound onto an
instance by ``as_reference``.  The kernel promises *identical* end
state — not statistically similar, identical — and these properties
check that promise on randomly generated streams, including the shapes
most likely to break a vectorization: empty chunks, all-duplicate
chunks, streams that saturate hardware counters, and estimate ties
that stress eviction order.  DAMON's region work is held to its
one-region-at-a-time twin the same way: tiny footprints, caps that
block the split, quotas that cut inside a region, pages already on DDR.

The Hypothesis profile (``tests/conftest.py``) decides randomness:
tier-1 derandomizes, so CI replays the same examples on every run, and
``HYPOTHESIS_PROFILE=explore`` searches randomly.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.damon import Damon
from repro.core.spacesaving import MisraGries, SpaceSaving
from repro.core.topk import SortedCam
from repro.core.trackers import make_hpt
from repro.cxl.batch import AccessBatch
from repro.cxl.pac import PageAccessCounter
from repro.cxl.wac import WordAccessCounter
from repro.memory.address import PAGE_SHIFT, PAGE_SIZE, WORD_SHIFT, AddressRegion
from repro.memory.mglru import MultiGenLru
from repro.memory.migration import MigrationEngine
from repro.memory.tiers import NodeKind, TieredMemory
from repro.verify import as_reference
from repro.verify.reference import batch_digest, batch_digest_ordered

SETTINGS = settings(max_examples=60, deadline=None)

# Narrow key spaces force duplicates and counter saturation; min_size=0
# includes the empty chunk.
streams = st.lists(st.integers(0, 40), min_size=0, max_size=300)
chunked_streams = st.lists(streams, min_size=1, max_size=4)

NUM_PAGES = 64
REGION = AddressRegion(0x1000_0000, NUM_PAGES * PAGE_SIZE)


def _addresses(keys):
    pages = np.asarray(keys, dtype=np.uint64) % np.uint64(NUM_PAGES)
    return np.uint64(REGION.start) + (pages << np.uint64(PAGE_SHIFT))


def _cam_state(cam):
    return (list(cam._entries.items()), cam.offers, cam.hits, cam.insertions,
            cam.replacements, cam.rejections)


class TestSortedCamOfferBatch:
    """offer_batch ≡ a loop of offer() calls, hottest first with ties
    in input order, including eviction ties."""

    # Estimates drawn from a tiny range so ties (the argmin/eviction
    # tie-break paths) occur constantly.
    offers = st.lists(
        st.tuples(st.integers(0, 60), st.integers(1, 5)),
        min_size=0,
        max_size=120,
    )

    @SETTINGS
    @given(offers)
    def test_matches_sequential(self, pairs):
        # offer_batch's contract: distinct keys ascending (what a
        # tracker's unique ingest produces), estimates in any order.
        best = {}
        for key, est in pairs:
            best[key] = max(est, best.get(key, 0))
        items = sorted(best.items())
        seq, batch = SortedCam(8), SortedCam(8)
        hottest_first = sorted(items, key=lambda kv: -kv[1])  # stable
        tracked = sum(seq.offer(key, est) for key, est in hottest_first)
        keys = np.array([k for k, _ in items], dtype=np.int64)
        ests = np.array([e for _, e in items], dtype=np.int64)
        assert batch.offer_batch(keys, ests) == tracked
        assert _cam_state(seq) == _cam_state(batch)

    # One CAM across several chunks: keys reused between chunks (head
    # hits, evictions of earlier entries, tail hits) and estimates that
    # can fall below an entry's count (hits that lower it).
    chunk_list = st.lists(
        st.dictionaries(st.integers(0, 15), st.integers(1, 4), max_size=16),
        min_size=1,
        max_size=6,
    )

    @SETTINGS
    @given(st.integers(1, 8), chunk_list)
    def test_chunks_without_reset_match_reference(self, k, chunks):
        ref, fast = as_reference(SortedCam(k)), SortedCam(k)
        for chunk in chunks:
            keys = np.array(sorted(chunk), dtype=np.uint64)
            ests = np.array([chunk[key] for key in sorted(chunk)], dtype=np.uint64)
            assert ref.offer_batch(keys, ests) == fast.offer_batch(keys, ests)
            assert _cam_state(ref) == _cam_state(fast)


class TestCountStructureBatches:
    """update_batch ≡ one update_one per key for the count summaries.

    Dict *order* is asserted too — downstream tie-breaks (CAM argmin)
    depend on it.
    """

    @SETTINGS
    @given(chunked_streams)
    def test_spacesaving(self, chunks):
        ref, fast = as_reference(SpaceSaving(8)), SpaceSaving(8)
        for chunk in chunks:
            keys = np.asarray(chunk, dtype=np.uint64)
            ref.update_batch(keys)
            fast.update_batch(keys)
        assert list(ref._counts.items()) == list(fast._counts.items())
        assert ref.items_seen == fast.items_seen
        assert sorted(ref.top_k(8)) == sorted(fast.top_k(8))

    @SETTINGS
    @given(chunked_streams)
    def test_misra_gries(self, chunks):
        ref, fast = as_reference(MisraGries(8)), MisraGries(8)
        for chunk in chunks:
            keys = np.asarray(chunk, dtype=np.uint64)
            ref.update_batch(keys)
            fast.update_batch(keys)
        assert list(ref._counts.items()) == list(fast._counts.items())
        assert ref.items_seen == fast.items_seen


class TestTrackerBatches:
    """Full trackers: observe_batch on production vs reference instances."""

    @SETTINGS
    @given(chunked_streams)
    def test_all_algorithms(self, chunks):
        for algorithm in ("cm-sketch", "space-saving", "misra-gries", "exact"):
            ref = as_reference(
                make_hpt(k=6, algorithm=algorithm, num_counters=256))
            fast = make_hpt(k=6, algorithm=algorithm, num_counters=256)
            for chunk in chunks:
                batch = AccessBatch(_addresses(chunk), region=REGION)
                ref.observe_batch(batch)
                fast.observe_batch(batch)
            assert sorted(ref.peek()) == sorted(fast.peek())
            assert ref.accesses_observed == fast.accesses_observed


class TestSnoopCounterBatches:
    """PAC/WAC chunked counter updates conserve per-line counts across
    saturation (2-bit counters spill after 3 accesses)."""

    @SETTINGS
    @given(chunked_streams)
    def test_pac_counts(self, chunks):
        ref = as_reference(PageAccessCounter(REGION, counter_bits=2))
        fast = PageAccessCounter(REGION, counter_bits=2)
        for chunk in chunks:
            batch = AccessBatch(_addresses(chunk), region=REGION)
            ref.observe_batch(batch)
            fast.observe_batch(batch)
        assert np.array_equal(ref.counts(), fast.counts())
        assert ref.total_accesses == fast.total_accesses

    @SETTINGS
    @given(chunked_streams)
    def test_wac_counts(self, chunks):
        ref = as_reference(WordAccessCounter(
            REGION, window_bytes=REGION.size // 2, counter_bits=2))
        fast = WordAccessCounter(REGION, window_bytes=REGION.size // 2,
                                 counter_bits=2)
        for chunk in chunks:
            batch = AccessBatch(_addresses(chunk), region=REGION)
            ref.observe_batch(batch)
            fast.observe_batch(batch)
        assert np.array_equal(ref.counts(), fast.counts())
        assert ref.total_accesses == fast.total_accesses


U64_MAX = 2**64 - 1


@st.composite
def digest_batches(draw):
    """uint64 address batches with heavy duplicates: a few base
    addresses (anywhere, within four pages of ``2**64 - 1``, or near
    zero), each reused with offsets inside one page, so many words of
    one page and repeats of one word both occur."""
    bases = draw(st.lists(
        st.one_of(st.integers(0, U64_MAX),
                  st.integers(U64_MAX - 4 * PAGE_SIZE, U64_MAX),
                  st.integers(0, 4 * PAGE_SIZE)),
        min_size=1, max_size=6))
    picks = draw(st.lists(
        st.tuples(st.integers(0, len(bases) - 1),
                  st.integers(0, PAGE_SIZE - 1)),
        min_size=0, max_size=300))
    addresses = [(bases[i] + offset) & U64_MAX for i, offset in picks]
    return np.array(addresses, dtype=np.uint64)


class TestBatchDigest:
    """The one-sort AccessBatch digest ≡ one np.unique per shift, in
    values and dtypes, whichever granularity is asked for first and
    whether the ordered view comes before the digest or after it."""

    @SETTINGS
    @given(digest_batches(), st.booleans(), st.booleans())
    @example(np.empty(0, dtype=np.uint64), True, False)
    @example(np.empty(0, dtype=np.uint64), False, True)
    @example(np.array([U64_MAX], dtype=np.uint64), True, True)
    @example(np.array([U64_MAX], dtype=np.uint64), False, False)
    def test_matches_np_unique(self, addresses, page_first, ordered_first):
        batch = AccessBatch(addresses)
        shifts = (PAGE_SHIFT, WORD_SHIFT) if page_first else (WORD_SHIFT, PAGE_SHIFT)
        for shift in shifts:
            ordered = batch.unique_keys_ordered(shift) if ordered_first else ()
            got = (*batch.unique_keys(shift), batch._first(shift),
                   *(ordered or batch.unique_keys_ordered(shift)))
            keys, first, counts = batch_digest(addresses, shift)
            want = (keys, counts, first, *batch_digest_ordered(addresses, shift))
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("shift", range(WORD_SHIFT))
    def test_shift_below_a_word_raises(self, shift):
        batch = AccessBatch(np.arange(64, dtype=np.uint64))
        with pytest.raises(ValueError, match="finer than a word"):
            batch.unique_keys(shift)
        with pytest.raises(ValueError, match="finer than a word"):
            batch.unique_keys_ordered(shift)


def _tiered(reference):
    memory = TieredMemory(ddr_pages=8, cxl_pages=NUM_PAGES + 4,
                          num_logical_pages=NUM_PAGES)
    memory.allocate_all(NodeKind.CXL)
    return as_reference(memory) if reference else memory


class TestMemoryBatches:
    """Tiers, MGLRU, and bulk migration frame placement."""

    @SETTINGS
    @given(streams)
    def test_mglru_record_accesses(self, keys):
        pages = np.asarray(keys, dtype=np.int64) % NUM_PAGES
        ref, fast = as_reference(MultiGenLru(NUM_PAGES)), MultiGenLru(NUM_PAGES)
        for lru in (ref, fast):
            lru.track(np.arange(0, NUM_PAGES, 2))
            lru.age()
        ref.record_accesses(pages)
        fast.record_accesses(pages)
        assert np.array_equal(ref._gen, fast._gen)
        assert np.array_equal(ref._heat, fast._heat)

    @SETTINGS
    @given(chunked_streams)
    def test_promote_demote_state(self, chunks):
        states = []
        for reference in (True, False):
            memory = _tiered(reference)
            mglru = MultiGenLru(NUM_PAGES)
            engine = MigrationEngine(memory, mglru=mglru)
            if reference:
                as_reference(mglru)
                as_reference(engine)
            for i, chunk in enumerate(chunks):
                pages = np.asarray(chunk, dtype=np.int64) % NUM_PAGES
                mglru.record_accesses(pages[memory.node_map[pages] == 0])
                engine.promote(pages)
                if i % 2:
                    engine.demote(pages[: len(pages) // 2])
                    mglru.age()
            states.append((
                memory.frame_map.tolist(), memory.node_map.tolist(),
                list(memory.ddr._free), list(memory.cxl._free),
                mglru._gen.tolist(), mglru._heat.tolist(),
                engine.stats.promoted, engine.stats.demoted,
            ))
        assert states[0] == states[1]

    @SETTINGS
    @given(streams)
    def test_translate_and_epoch_accounting(self, keys):
        pages = np.asarray(keys, dtype=np.int64) % NUM_PAGES
        addresses = (pages.astype(np.uint64) << np.uint64(PAGE_SHIFT)) | (
            np.arange(pages.size, dtype=np.uint64) % np.uint64(PAGE_SIZE)
        )
        ref, fast = _tiered(True), _tiered(False)
        assert np.array_equal(ref.translate(addresses),
                              fast.translate(addresses))
        ref.record_epoch_accesses(pages)
        fast.record_epoch_accesses(pages)
        assert (ref.ddr.accesses_total, ref.cxl.accesses_total) == (
            fast.ddr.accesses_total, fast.cxl.accesses_total)


def _damon_pair(num_pages, ddr_pages, **kwargs):
    """A reference and a production DAMON over identical tiers, with
    ``ddr_pages`` already resident on DDR."""
    pair = []
    ddr = sorted(set(ddr_pages))
    for reference in (True, False):
        memory = TieredMemory(ddr_pages=max(1, len(ddr)), cxl_pages=num_pages,
                              num_logical_pages=num_pages)
        memory.allocate_all(NodeKind.CXL)
        for lpage in ddr:
            memory.move_page(lpage, NodeKind.DDR)
        damon = Damon(memory, **kwargs)
        pair.append(as_reference(damon) if reference else damon)
    return pair


def _damon_state(damon):
    return (damon.starts.tolist(), damon.ends.tolist(),
            damon._nr_accesses.tolist(), damon.hot_pages, damon.hot_pfns,
            damon.samples_taken, damon.aggregations, damon.costs.events,
            damon._rng.bit_generator.state)


@st.composite
def damon_knobs(draw, num_pages):
    """Region bounds (some caps block every split), merge threshold,
    a quota small enough to cut inside a region, the seed, and the
    pages already on DDR."""
    min_nr = draw(st.integers(2, 12))
    return dict(
        min_nr_regions=min_nr,
        max_nr_regions=draw(st.integers(min_nr, 4 * min_nr)),
        merge_threshold=draw(st.integers(0, 3)),
        quota_pages=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**16)),
    ), draw(st.lists(st.integers(0, num_pages - 1), max_size=num_pages // 2))


@st.composite
def damon_regions(draw):
    """An arbitrary region table: sizes (one-page regions included),
    scores with frequent ties, and the knobs above."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=30))
    nrs = draw(st.lists(st.integers(0, 6), min_size=len(sizes),
                        max_size=len(sizes)))
    knobs, ddr = draw(damon_knobs(sum(sizes)))
    return sizes, nrs, knobs, ddr


@st.composite
def damon_runs(draw):
    """A footprint (including ones smaller than ``min_nr_regions``), a
    few epochs of accesses over it, and the knobs above."""
    num_pages = draw(st.integers(1, 160))
    knobs, ddr = draw(damon_knobs(num_pages))
    epochs = draw(st.lists(
        st.lists(st.integers(0, num_pages - 1), min_size=1, max_size=200),
        min_size=1, max_size=4))
    return num_pages, knobs, ddr, epochs


class TestDamonRegions:
    """DAMON's array-held region work ≡ the one-region-at-a-time
    reference: same regions, same hot-page list, same RNG state."""

    @SETTINGS
    @given(damon_regions(), st.floats(1.0, 7.0))
    def test_each_step_matches_reference(self, table, threshold):
        sizes, nrs, knobs, ddr = table
        pair = _damon_pair(sum(sizes), ddr, **knobs)
        ends = np.cumsum(sizes)
        for damon in pair:
            damon.starts, damon.ends = ends - np.asarray(sizes), ends
            damon._nr_accesses = np.asarray(nrs, dtype=np.int64)
        steps = (("_promote_hot", (threshold,)), ("_merge_regions", ()),
                 ("_split_regions", ()))
        for step, args in steps:
            for damon in pair:
                getattr(damon, step)(*args)
            assert _damon_state(pair[0]) == _damon_state(pair[1]), step

    @SETTINGS
    @given(damon_runs())
    def test_epochs_match_reference(self, run):
        num_pages, knobs, ddr, epochs = run
        pair = _damon_pair(num_pages, ddr, **knobs)
        for damon in pair:
            for i, pages in enumerate(epochs):
                damon.observe(np.asarray(pages, dtype=np.int64),
                              now_s=0.25 * i, epoch_s=0.25)
        assert pair[1].aggregations >= 2 * len(epochs)
        assert _damon_state(pair[0]) == _damon_state(pair[1])
        assert np.array_equal(pair[1].starts[1:], pair[1].ends[:-1])
        assert pair[1].ends[-1] == num_pages
