"""Differential oracles: paired configurations that must agree.

The repro keeps one production path per structure plus the per-access
reference models of :mod:`repro.verify.reference`, a PAC counter-cache
mode and two migration modes.  Each pair below is an *oracle*: one
side is the slow, obviously-correct semantics, the other is the fast
path the pipeline actually runs, and the two must agree — exactly
where the docstrings promise identical state, within a tolerance where
only the aggregate behaviour is guaranteed.

Seven oracle pairs, all run by ``repro verify``:

* ``sketch`` — a :class:`~repro.core.trackers.CmSketchTopK` ingesting
  one access at a time (:func:`~repro.verify.reference.as_exact_sequence`,
  the hardware semantics) vs the chunked production ingest.  The
  CM-Sketch counter table and ``items_seen`` must be identical; the
  CAM's top-K selection must overlap within tolerance (admission order
  differs transiently, §5.1 reset makes the divergence bounded per
  query period).
* ``pac`` — :class:`~repro.cxl.pac.PageAccessCounter` cache mode
  (bounded SRAM, direct-mapped, evict-on-conflict) vs direct mode.
  After ``flush()`` both must report *identical* per-page counts:
  PAC conserves every snooped access regardless of SRAM sizing.
* ``migration`` — a full simulation in ``instant`` mode vs ``async``
  mode with an effectively unlimited budget, no injected aborts, and
  the dirty-page model disabled.  Migration totals and tier occupancy
  must agree within small tolerances; execution time agrees loosely
  (the async cost model charges remap CPU + copy contention instead
  of the flat 54 µs).
* ``engine`` — a full simulation on the per-access reference models
  (:func:`~repro.verify.reference.as_reference`) vs the production
  pipeline (the vectorized array kernels).  Zero tolerance
  everywhere: the kernels promise bit-identical results, down to the
  hot-PFN list.
* ``kernels`` — each vectorized kernel against its per-access
  reference model on one shared skewed stream: trackers
  (CM-Sketch/CAM, SpaceSaving, MisraGries, Exact),
  PAC/WAC observe, MGLRU generation updates, address translation,
  bulk promote/demote frame placement, the TLB's new-page sets, and
  DAMON's sampling and region promotion, merge and split.  All state
  comparisons are exact (mismatch counts with zero tolerance).
* ``fleet`` — a 1-tenant, 2-tier :class:`~repro.fleet.FleetSimulation`
  vs the plain single-run :class:`~repro.sim.engine.Simulation`.  Zero
  tolerance everywhere, down to the frame and node maps: the fleet
  path (NodeSpec tiers, tenant windows, lockstep driver) must
  degenerate exactly to the single-run engine.
* ``resume`` — an uninterrupted run vs one resumed from its last
  periodic checkpoint, bit-exact.

Every comparison is a :class:`DiffRow` with a per-field tolerance
(0 = bit-exact required), collected into an :class:`OracleReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, SupportsFloat, Tuple

import numpy as np

from repro.core.topk import SortedCam
from repro.core.trackers import CmSketchTopK
from repro.cxl.pac import PageAccessCounter
from repro.memory.address import PAGE_SHIFT, PAGE_SIZE, WORD_SHIFT, AddressRegion
from repro.sim.config import SimConfig
from repro.sim.engine import RunResult, Simulation
from repro.verify.reference import (
    as_exact_sequence,
    as_reference,
    batch_digest,
    batch_digest_ordered,
    sample_pages,
)
from repro.workloads import registry
from repro.workloads.zipf import PageSampler


@dataclass
class DiffRow:
    """One compared quantity: oracle value ``a`` vs fast-path ``b``."""

    field: str
    a: float
    b: float
    #: Allowed relative drift of ``b`` from ``a`` (0 = must be equal).
    #: A zero baseline falls back to comparing absolutely.
    tolerance: float = 0.0

    @property
    def drift(self) -> float:
        if self.a == self.b:
            return 0.0
        scale = max(abs(self.a), abs(self.b))
        return abs(self.a - self.b) / scale if scale else 0.0

    @property
    def ok(self) -> bool:
        return self.drift <= self.tolerance


@dataclass
class OracleReport:
    """Outcome of one oracle pair."""

    name: str
    description: str
    rows: List[DiffRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def failures(self) -> List[DiffRow]:
        return [row for row in self.rows if not row.ok]

    def add(
        self, field: str, a: SupportsFloat, b: SupportsFloat, tolerance: float = 0.0
    ) -> None:
        self.rows.append(DiffRow(field, float(a), float(b), tolerance))

    def format(self) -> str:
        lines = [f"oracle {self.name}: {self.description}"]
        for row in self.rows:
            mark = "ok  " if row.ok else "FAIL"
            lines.append(
                f"  {mark} {row.field:<28s} a={row.a:<14.6g} "
                f"b={row.b:<14.6g} drift={row.drift:.2%} "
                f"(tol {row.tolerance:.2%})"
            )
        return "\n".join(lines)


def _mismatches(a: Sequence[Any], b: Sequence[Any]) -> int:
    """Positions where two sequences differ, plus their length gap."""
    return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))


def _zipf_keys(rng: np.random.Generator, n: int, key_space: int) -> np.ndarray:
    """A skewed, deterministic key stream over ``[0, key_space)``."""
    keys = rng.zipf(1.2, size=n).astype(np.uint64) % np.uint64(key_space)
    return keys


def _cam_batches(
    rng: np.random.Generator, k: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Three chunks for one ``k``-entry CAM, as a tracker hands them
    over (distinct keys ascending, uint64 estimates): a full table of
    stale low counts; hotter new keys mixed with hits on half of it,
    so the contended head runs the full ``k`` offers; then every key
    seen so far at low estimates, so most of the table is hit (and
    lowered) after the break."""
    stale = rng.choice(4 * k, size=k, replace=False)
    fresh = 4 * k + rng.choice(4 * k, size=2 * k, replace=False)
    hotter = np.concatenate([rng.choice(stale, size=k // 2, replace=False), fresh])
    seen = np.concatenate([stale, fresh])
    chunks = [(stale, rng.integers(1, 4, size=k)),
              (hotter, rng.integers(2, 24, size=hotter.size)),
              (seen, rng.integers(1, 6, size=seen.size))]
    chunks[2][1][:4] = 64  # a short head ahead of the tail hits
    out = []
    for keys, ests in chunks:
        order = np.argsort(keys)
        out.append((keys[order].astype(np.uint64), ests[order].astype(np.uint64)))
    return out


def _log_inserts(tlb: Any) -> List[Any]:
    """Make ``tlb`` log each new-page set it caches, with its dtype."""
    inserted: List[Any] = []
    insert = tlb._insert

    def record(new_pages: np.ndarray) -> None:
        inserted.append((new_pages.dtype.str, new_pages.tolist()))
        insert(new_pages)

    tlb._insert = record
    return inserted


def _cam_state(cam: SortedCam) -> List[Any]:
    return [*cam._entries.items(), cam.offers, cam.hits, cam.insertions,
            cam.replacements, cam.rejections]


# ----------------------------------------------------------------------
# oracle 1: per-access vs chunked CM-Sketch tracker


def sketch_oracle(
    seed: int = 0,
    accesses: int = 100_000,
    k: int = 64,
    num_counters: int = 4096,
    key_space: int = 4096,
    chunk: int = 4096,
    overlap_tolerance: float = 0.15,
) -> OracleReport:
    """Per-access vs chunked :class:`CmSketchTopK` on one stream."""
    report = OracleReport(
        "sketch",
        "per-access vs chunked CmSketchTopK: identical counters, "
        "top-K overlap within tolerance",
    )
    rng = np.random.default_rng(seed)
    keys = _zipf_keys(rng, accesses, key_space)
    addresses = keys << np.uint64(PAGE_SHIFT)
    exact = as_exact_sequence(CmSketchTopK(k, num_counters=num_counters))
    chunked = CmSketchTopK(k, num_counters=num_counters)
    for start in range(0, accesses, chunk):
        exact.observe(addresses[start:start + chunk])
        chunked.observe(addresses[start:start + chunk])

    mismatch = int((exact.sketch.table != chunked.sketch.table).sum())
    report.add("table_mismatched_counters", 0, mismatch)
    report.add("items_seen", exact.sketch.items_seen, chunked.sketch.items_seen)
    report.add("accesses_observed", exact.accesses_observed,
               chunked.accesses_observed)

    top_exact = {key for key, _ in exact.peek()}
    top_chunked = {key for key, _ in chunked.peek()}
    overlap = len(top_exact & top_chunked) / max(1, len(top_exact))
    report.add("topk_overlap", 1.0, overlap, tolerance=overlap_tolerance)
    return report


# ----------------------------------------------------------------------
# oracle 2: PAC cache mode vs direct mode


def pac_oracle(
    seed: int = 0,
    accesses: int = 200_000,
    num_pages: int = 1024,
    sram_counters: int = 128,
    counter_bits: int = 6,
    chunk: int = 8192,
) -> OracleReport:
    """Cache-mode vs direct-mode PAC flush totals on one trace.

    ``counter_bits`` is deliberately small so the trace actually
    exercises the saturation-spill path of both modes.
    """
    report = OracleReport(
        "pac",
        "PAC cache-mode vs direct-mode: identical per-page counts "
        "after flush",
    )
    region = AddressRegion(0x1000_0000, num_pages * PAGE_SIZE)
    direct = PageAccessCounter(region, counter_bits=counter_bits)
    cached = PageAccessCounter(
        region, counter_bits=counter_bits, sram_counters=sram_counters
    )
    rng = np.random.default_rng(seed)
    pages = _zipf_keys(rng, accesses, num_pages)
    words = rng.integers(0, 64, size=accesses).astype(np.uint64)
    addresses = (
        np.uint64(region.start)
        + (pages << np.uint64(PAGE_SHIFT))
        + (words << np.uint64(6))
    )
    for start in range(0, accesses, chunk):
        direct.observe(addresses[start:start + chunk])
        cached.observe(addresses[start:start + chunk])
    direct.flush()
    cached.flush()

    report.add("total_accesses", direct.total_accesses, cached.total_accesses)
    a, b = direct.counts(), cached.counts()
    report.add("sum_counts", int(a.sum()), int(b.sum()))
    report.add("per_page_mismatches", 0, int((a != b).sum()))
    return report


# ----------------------------------------------------------------------
# oracle 3: instant vs async-unlimited migration


#: Per-field relative tolerances for the migration oracle.  The async
#: cost model replaces the flat 54 µs/page with remap CPU + copy
#: contention, so simulated time drifts by ~10%; for time-driven
#: policies (M5's Elector) that legitimately shifts *when* the last
#: activation lands.  Promotion counts are therefore quantized in
#: whole activation batches (K = 64 pages), and at oracle-sized
#: traces one batch is up to ~20% of the total — the placement
#: tolerances allow exactly that one-batch drift.  Anything beyond
#: it — lost queue entries, spurious aborts, double promotion — still
#: breaks the tolerance, and the zero-tolerance residue rows (aborts,
#: pending, drops) catch queue leaks regardless of size.
MIGRATION_TOLERANCES: Dict[str, float] = {
    "promoted": 0.25,
    "demoted": 0.25,
    "nr_pages_ddr": 0.25,
    "nr_pages_cxl": 0.05,
    "n_hot": 0.25,
    "execution_time_s": 0.15,
    "app_time_s": 0.10,
}


def _unlimited_async(config: SimConfig) -> SimConfig:
    """The async twin of ``config`` with every throttle removed."""
    kwargs = {f: getattr(config, f) for f in (
        "total_accesses", "chunk_size", "trace_subsample", "ddr_pages",
        "cxl_pages", "checkpoints", "pages_per_gb", "migrate", "seed",
    )}
    return SimConfig(
        migration_mode="async",
        migration_inflight_budget=1_000_000,
        migration_queue_capacity=1_000_000,
        migration_abort_rate=0.0,
        migration_copy_gbps=0.0,
        write_fraction=0.0,  # no dirty-recheck aborts
        **kwargs,
    )


def diff_run_results(
    a: RunResult,
    b: RunResult,
    tolerances: Optional[Dict[str, float]] = None,
) -> List[DiffRow]:
    """Field-by-field diff of two :class:`RunResult` snapshots."""
    tolerances = MIGRATION_TOLERANCES if tolerances is None else tolerances
    fields = {
        "promoted": (a.promoted, b.promoted),
        "demoted": (a.demoted, b.demoted),
        "nr_pages_ddr": (a.nr_pages_ddr, b.nr_pages_ddr),
        "nr_pages_cxl": (a.nr_pages_cxl, b.nr_pages_cxl),
        "n_hot": (len(a.hot_pfns), len(b.hot_pfns)),
        "execution_time_s": (a.execution_time_s, b.execution_time_s),
        "app_time_s": (a.app_time_s, b.app_time_s),
    }
    return [
        DiffRow(name, float(va), float(vb), tolerances.get(name, 0.0))
        for name, (va, vb) in fields.items()
    ]


def migration_oracle(
    bench: str = "mcf",
    policy: str = "m5-hpt",
    seed: int = 1,
    accesses: int = 400_000,
    chunk: int = 16_384,
    check_invariants: bool = True,
    tolerances: Optional[Dict[str, float]] = None,
) -> OracleReport:
    """Instant-mode vs async-unlimited-budget simulation runs.

    With ``check_invariants`` a broken invariant raises out of either
    run, so it fails the oracle instead of yielding a report.
    """
    report = OracleReport(
        "migration",
        f"{bench}/{policy}: instant vs async-with-unlimited-budget",
    )
    base = SimConfig(
        total_accesses=accesses,
        chunk_size=chunk,
        checkpoints=1,
        check_invariants=check_invariants,
    )
    instant = Simulation(
        registry.build(bench, seed=seed), base, policy=policy
    ).run()
    async_cfg = _unlimited_async(base)
    async_cfg.check_invariants = check_invariants
    async_sim = Simulation(registry.build(bench, seed=seed), async_cfg,
                           policy=policy)
    async_result = async_sim.run()

    report.rows.extend(diff_run_results(instant, async_result, tolerances))
    # The unlimited queue must drain and abort nothing: any residue
    # means the budgets or the dirty model leaked into the oracle.
    report.add("async_aborted", 0, async_result.extra.get("mig_aborted", 0.0))
    report.add("async_pending", 0, async_result.extra.get("mig_pending", 0.0))
    report.add("async_dropped_full", 0,
               async_result.extra.get("mig_dropped_queue_full", 0.0))
    return report


# ----------------------------------------------------------------------
# oracle 4: reference models vs production pipeline (bit-exact)


def engine_oracle(
    bench: str = "mcf",
    policy: str = "m5-hpt",
    seed: int = 1,
    accesses: int = 120_000,
    chunk: int = 15_000,
) -> OracleReport:
    """Per-access reference run vs production run, zero tolerance.

    The vectorized hot path is a pure reimplementation of the
    reference models — every stage promises identical end state — so
    *every* field must match exactly, including the hot-PFN list
    contents and order.
    """
    report = OracleReport(
        "engine",
        f"{bench}/{policy}: reference models vs production epoch hot "
        "path (bit-exact)",
    )
    cfg = SimConfig(
        total_accesses=accesses, chunk_size=chunk, checkpoints=2, seed=seed
    )

    def build() -> Simulation:
        return Simulation(
            registry.build(bench, seed=seed), cfg, policy=policy,
            enable_wac=policy.startswith("m5"),
        )

    a, b = as_reference(build()).run(), build().run()
    report.rows.extend(diff_run_results(a, b, tolerances={}))
    report.add("overhead_time_s", a.overhead_time_s, b.overhead_time_s)
    report.add("migration_time_s", a.migration_time_s, b.migration_time_s)
    report.add("hot_pfn_mismatches", 0, _mismatches(a.hot_pfns, b.hot_pfns))
    report.add("ratio_checkpoint_mismatches", 0,
               _mismatches(a.ratio_checkpoints, b.ratio_checkpoints))
    return report


# ----------------------------------------------------------------------
# oracle 5: per-kernel reference vs production state


def kernels_oracle(seed: int = 0, accesses: int = 60_000) -> OracleReport:
    """Each vectorized kernel vs its per-access reference model.

    One skewed stream drives paired instances (production vs
    :func:`~repro.verify.reference.as_reference`) of every structure
    the epoch hot path vectorizes; their internal state must match
    exactly afterwards.
    """
    from repro.baselines.damon import Damon
    from repro.core.trackers import make_hpt, make_hwt
    from repro.cxl.batch import AccessBatch
    from repro.cxl.wac import WordAccessCounter
    from repro.memory.mglru import MultiGenLru
    from repro.memory.migration import MigrationEngine, PinReason
    from repro.memory.tiers import NodeKind, TieredMemory
    from repro.memory.tlb import Tlb

    report = OracleReport(
        "kernels",
        "reference models vs vectorized kernels: exact state equality "
        "per structure",
    )
    rng = np.random.default_rng(seed)
    num_pages = 1024
    region = AddressRegion(0x1000_0000, num_pages * PAGE_SIZE)
    pages = _zipf_keys(rng, accesses, num_pages)
    words = rng.integers(0, 64, size=accesses).astype(np.uint64)
    addresses = (
        np.uint64(region.start)
        + (pages << np.uint64(PAGE_SHIFT))
        + (words << np.uint64(6))
    )
    chunks = [addresses[s:s + 8192] for s in range(0, accesses, 8192)]

    # AccessBatch digest (keys, first index, counts, ordered view): one
    # word sort plus run reductions vs one np.unique per shift, values
    # and dtypes.  Odd chunks ask for the page digest first, and chunks
    # 2 and 3 (mod 4) for the ordered view first, so every memo order runs.
    digest_mismatches = 0
    for i, chunk in enumerate(chunks):
        batch = AccessBatch(chunk, region=region)
        for shift in ((PAGE_SHIFT, WORD_SHIFT) if i % 2 else (WORD_SHIFT, PAGE_SHIFT)):
            ordered = batch.unique_keys_ordered(shift) if i % 4 >= 2 else ()
            keys, counts = batch.unique_keys(shift)
            got = (keys, batch._first(shift), counts,
                   *(ordered or batch.unique_keys_ordered(shift)))
            want = (*batch_digest(chunk, shift), *batch_digest_ordered(chunk, shift))
            digest_mismatches += sum(
                a.dtype != b.dtype or not np.array_equal(a, b) for a, b in zip(got, want))
    report.add("batch_digest_mismatches", 0, digest_mismatches)

    # Trackers: every algorithm, page and word granularity, and a
    # non-default CM-Sketch depth: every option the factories forward.
    trackers = [
        (f"{granularity}_{algorithm}", make, dict(algorithm=algorithm))
        for granularity, make in (("page", make_hpt), ("word", make_hwt))
        for algorithm in ("cm-sketch", "space-saving", "misra-gries", "exact")
    ] + [("page_cm-sketch_depth2", make_hpt,
          dict(algorithm="cm-sketch", depth=2))]
    for name, make, options in trackers:
        ref = as_reference(make(k=32, num_counters=2048, **options))
        fast = make(k=32, num_counters=2048, **options)
        for chunk in chunks:
            batch = AccessBatch(chunk, region=region)
            ref.observe_batch(batch)
            fast.observe_batch(batch)
        report.add(f"tracker_{name}_top_mismatches", 0,
                   _mismatches(sorted(ref.peek()), sorted(fast.peek())))
        report.add(f"tracker_{name}_accesses", ref.accesses_observed,
                   fast.accesses_observed)

    # Sorted CAM at K = 64 and 128 through chunks whose contended head
    # is K offers long: the return value, the entries in dict order
    # and the five offer counters after every chunk.
    cam_rng = np.random.default_rng(seed)
    cam_mismatches = 0
    for k in (64, 128):
        ref_cam, fast_cam = as_reference(SortedCam(k)), SortedCam(k)
        for keys, ests in _cam_batches(cam_rng, k):
            cam_mismatches += int(ref_cam.offer_batch(keys, ests)
                                  != fast_cam.offer_batch(keys, ests))
            cam_mismatches += _mismatches(_cam_state(ref_cam), _cam_state(fast_cam))
    report.add("cam_offer_mismatches", 0, cam_mismatches)

    # PAC direct mode: identical per-page counts (spill stats may
    # legitimately differ — a chunked spill covers several
    # saturations — so only counts are compared).
    pac_ref = as_reference(PageAccessCounter(region))
    pac_fast = PageAccessCounter(region)
    for chunk in chunks:
        batch = AccessBatch(chunk, region=region)
        pac_ref.observe_batch(batch)
        pac_fast.observe_batch(batch)
    report.add("pac_count_mismatches", 0,
               int((pac_ref.counts() != pac_fast.counts()).sum()))

    # WAC monitoring a quarter of the region (exercises the
    # observe_batch window re-filter against the wider batch).
    wac_ref = as_reference(
        WordAccessCounter(region, window_bytes=region.size // 4))
    wac_fast = WordAccessCounter(region, window_bytes=region.size // 4)
    for chunk in chunks:
        batch = AccessBatch(chunk, region=region)
        wac_ref.observe_batch(batch)
        wac_fast.observe_batch(batch)
    report.add("wac_count_mismatches", 0,
               int((wac_ref.counts() != wac_fast.counts()).sum()))

    # Tiers + MGLRU + migration: replay one randomized
    # promote/demote/access schedule against both implementations.
    states = {}
    for reference in (True, False):
        memory = TieredMemory(ddr_pages=96, cxl_pages=num_pages + 64,
                              num_logical_pages=num_pages)
        memory.allocate_all(NodeKind.CXL)
        mglru = MultiGenLru(num_pages)
        engine = MigrationEngine(memory, mglru=mglru)
        if reference:
            for part in (memory, mglru, engine):
                as_reference(part)
        op_rng = np.random.default_rng(seed + 1)
        translated, victims = [], []
        for step in range(60):
            # A few DDR pages pinned over the middle third: a full DDR
            # then promotes page by page, passing over pinned victims.
            if step == 20:
                engine.pin(op_rng.choice(memory.pages_on(NodeKind.DDR), 4,
                                         replace=False), PinReason.DMA)
            elif step == 40:
                engine.unpin(np.arange(num_pages))
            lot = op_rng.integers(0, num_pages, size=48)
            memory.record_epoch_accesses(lot)
            translated.append(memory.translate(
                (lot.astype(np.uint64) << np.uint64(PAGE_SHIFT)) | words[:48]))
            mglru.record_accesses(lot[memory.node_map[lot] == 0])
            victims.append(engine.coldest_demotable(protect=lot).tolist())
            engine.promote(op_rng.integers(0, num_pages, size=24))
            if op_rng.random() < 0.3:
                engine.demote(op_rng.integers(0, num_pages, size=8))
            if op_rng.random() < 0.25:
                mglru.age()
        states[reference] = (
            memory.frame_map.copy(), memory.node_map.copy(),
            list(memory.ddr._free), list(memory.cxl._free),
            mglru._gen.copy(), mglru._heat.copy(),
            (engine.stats.promoted, engine.stats.demoted,
             engine.stats.rejected, engine.stats.time_us),
            np.concatenate(translated),
            [node.accesses_total for node in memory.nodes],
            victims,
        )
    ref_state, fast_state = states[True], states[False]
    report.add("frame_map_mismatches", 0,
               int((ref_state[0] != fast_state[0]).sum()))
    report.add("node_map_mismatches", 0,
               int((ref_state[1] != fast_state[1]).sum()))
    report.add("free_list_mismatch", 0,
               int(ref_state[2] != fast_state[2])
               + int(ref_state[3] != fast_state[3]))
    report.add("mglru_gen_mismatches", 0,
               int((ref_state[4] != fast_state[4]).sum()))
    report.add("mglru_heat_mismatches", 0,
               int((ref_state[5] != fast_state[5]).sum()))
    report.add("migration_stats_mismatch", 0,
               int(ref_state[6] != fast_state[6]))
    report.add("translate_mismatches", 0,
               int((ref_state[7] != fast_state[7]).sum()))
    report.add("node_access_mismatch", 0, int(ref_state[8] != fast_state[8]))
    report.add("victim_mismatches", 0, _mismatches(ref_state[9], fast_state[9]))

    # TLB: lots from a handful of pages to several times the capacity
    # (both eviction branches of _insert), with shootdowns and decay
    # in between.  Each instance records the new-page sets it caches,
    # with their dtypes, and the miss mask of every lookup.
    tlbs, logs = [], []
    for reference in (True, False):
        tlb = Tlb(num_pages, capacity=96, decay=0.3, seed=seed)
        if reference:
            as_reference(tlb)
        inserted = _log_inserts(tlb)
        op_rng = np.random.default_rng(seed + 2)
        missed = []
        for step in range(40):
            start = int(op_rng.integers(0, accesses))
            lot = pages[start:start + int(op_rng.integers(1, 600))].astype(np.int64)
            missed.append(tlb.access((lot + 37 * step) % num_pages).tolist())
            tlb.shootdown(op_rng.integers(0, num_pages, size=8))
            tlb.age()
        tlbs.append(tlb)
        logs.append((inserted, missed))
    (ref_inserted, ref_missed), (fast_inserted, fast_missed) = logs
    ref, fast = tlbs
    report.add("tlb_new_page_set_mismatches", 0,
               _mismatches(ref_inserted, fast_inserted))
    report.add("tlb_miss_mask_mismatches", 0, _mismatches(ref_missed, fast_missed))
    report.add("tlb_cached_mismatches", 0, int((ref._cached != fast._cached).sum()))
    report.add("tlb_counter_mismatch", 0, int(
        (ref.hits, ref.misses, ref.shootdowns, ref.resident)
        != (fast.hits, fast.misses, fast.shootdowns, fast.resident)))
    report.add("tlb_rng_state_mismatch", 0,
               int(ref._rng.bit_generator.state != fast._rng.bit_generator.state))

    # DAMON region work: several aggregations per epoch over the same
    # skewed stream, its hot spot moving every epoch.  The small quota
    # cuts inside a region, and every eighth page starts on DDR, so
    # promotion must skip it.
    damons = []
    for reference in (True, False):
        memory = TieredMemory(ddr_pages=num_pages // 8, cxl_pages=num_pages,
                              num_logical_pages=num_pages)
        memory.allocate_all(NodeKind.CXL)
        for lpage in range(0, num_pages, 8):
            memory.move_page(lpage, NodeKind.DDR)
        damon = Damon(memory, min_nr_regions=8, max_nr_regions=64,
                      quota_pages=24, seed=seed)
        if reference:
            as_reference(damon)
        for epoch, start in enumerate(range(0, accesses, 8192)):
            lot = (pages[start:start + 8192].astype(np.int64)
                   + 131 * epoch) % num_pages
            damon.observe(lot, now_s=epoch * 0.25, epoch_s=0.25)
        damons.append(damon)
    ref, fast = damons
    report.add("damon_region_mismatches", 0,
               _mismatches(list(zip(ref.starts.tolist(), ref.ends.tolist())),
                           list(zip(fast.starts.tolist(), fast.ends.tolist()))))
    report.add("damon_hot_page_mismatches", 0,
               _mismatches(ref.hot_pages, fast.hot_pages))
    report.add("damon_hot_pfn_mismatches", 0,
               _mismatches(ref.hot_pfns, fast.hot_pfns))
    report.add("damon_samples_taken", ref.samples_taken, fast.samples_taken)
    report.add("damon_cost_event_mismatch", 0,
               int(ref.costs.events != fast.costs.events))
    report.add("damon_rng_state_mismatch", 0,
               int(ref._rng.bit_generator.state != fast._rng.bit_generator.state))

    # Page draws: the guide table vs one binary search per draw, same
    # uniforms, on three generators' phase popularity at small scale
    # and on a vector whose zero-weight runs (leading, inner and
    # trailing) repeat CDF values; pages and dtypes.
    zero_runs = rng.random(num_pages)
    zero_runs[np.arange(num_pages) // 16 % 3 == 0] = 0.0
    vectors = [registry.build(bench, seed=seed, pages_per_gb=128)._phase.popularity
               for bench in ("mcf", "redis", "pr")]
    vectors.append(zero_runs / zero_runs.sum())
    sample_mismatches = 0
    for i, popularity in enumerate(vectors):
        fast_pages = PageSampler(popularity).sample(
            accesses, np.random.default_rng(seed + i))
        ref_pages = sample_pages(popularity, accesses, np.random.default_rng(seed + i))
        sample_mismatches += (int(fast_pages.dtype != ref_pages.dtype)
                              + int((fast_pages != ref_pages).sum()))
    report.add("sample_pages_mismatches", 0, sample_mismatches)
    return report


# ----------------------------------------------------------------------
# oracle 6: 1-tenant fleet vs single-run engine (bit-exact)


def fleet_oracle(
    bench: str = "mcf",
    policy: str = "m5-hpt",
    seed: int = 1,
    accesses: int = 200_000,
    chunk: int = 16_384,
) -> OracleReport:
    """A 1-tenant, 2-tier fleet vs the single-run engine, zero
    tolerance.

    The fleet path rebuilds the whole stack — NodeSpec-driven tiers,
    per-tenant address windows, spill allocation, the lockstep driver
    — so this oracle pins its core contract: with one tenant and two
    tiers, every field of the run (including the frame and node maps)
    must match the plain :class:`Simulation` bit for bit, and the
    fleet-level accounting must be the no-interference identity
    (slowdown 1.0, full bandwidth share).
    """
    from repro.fleet import FleetConfig, FleetSimulation
    from repro.sim.sweep import cell_seed

    report = OracleReport(
        "fleet",
        f"{bench}/{policy}: 1-tenant 2-tier fleet vs single-run engine "
        "(bit-exact)",
    )
    fleet = FleetConfig(tenants=1, tiers=2, bench=bench, policy=policy)
    cfg = SimConfig(
        total_accesses=accesses, chunk_size=chunk, checkpoints=2, seed=seed
    )
    fleet_sim = FleetSimulation(fleet, cfg)
    tenant = fleet_sim.run().results[0]
    single_sim = Simulation(
        registry.build(bench, seed=cell_seed(seed, bench)), cfg, policy=policy
    )
    single = single_sim.run()
    report.rows.extend(diff_run_results(single, tenant.result, tolerances={}))
    report.add("overhead_time_s", single.overhead_time_s,
               tenant.result.overhead_time_s)
    report.add("migration_time_s", single.migration_time_s,
               tenant.result.migration_time_s)
    report.add("hot_pfn_mismatches", 0,
               _mismatches(single.hot_pfns, tenant.result.hot_pfns))
    report.add("ratio_checkpoint_mismatches", 0,
               _mismatches(single.ratio_checkpoints,
                           tenant.result.ratio_checkpoints))
    tenant_mem = fleet_sim.sims[0].memory
    single_mem = single_sim.memory
    report.add("frame_map_mismatches", 0,
               int((tenant_mem.frame_map != single_mem.frame_map).sum()))
    report.add("node_map_mismatches", 0,
               int((tenant_mem.node_map != single_mem.node_map).sum()))
    report.add("slowdown_vs_isolated", 1.0, tenant.slowdown_vs_isolated)
    report.add("bandwidth_share_min", 1.0, min(tenant.bandwidth_share.values()))
    return report


# ----------------------------------------------------------------------
# oracle 7: uninterrupted vs checkpoint-resumed run (bit-exact)

#: Metric families recording wall-clock rather than simulated state;
#: they can never be bit-identical across process boundaries and are
#: excluded from resume-identity comparisons.
WALL_CLOCK_FAMILIES = frozenset({"pipeline_stage_seconds"})


def _metric_mismatches(a: Dict[str, Any], b: Dict[str, Any]) -> int:
    """Families whose samples differ, ignoring wall-clock recorders."""
    fa = {m["name"]: m for m in a.get("metrics", [])
          if m["name"] not in WALL_CLOCK_FAMILIES}
    fb = {m["name"]: m for m in b.get("metrics", [])
          if m["name"] not in WALL_CLOCK_FAMILIES}
    return sum(1 for name in sorted(set(fa) | set(fb))
               if fa.get(name) != fb.get(name))


def resume_oracle(
    bench: str = "mcf",
    policy: str = "m5-hpt",
    seed: int = 1,
    accesses: int = 200_000,
    chunk: int = 16_384,
    checkpoint_every: int = 5,
) -> OracleReport:
    """Uninterrupted run vs checkpoint-load-resume, zero tolerance.

    One checkpointed run executes to completion; the checkpoint file
    it leaves behind is the *last periodic snapshot* (several epochs
    before the end, since the cadence does not divide the epoch
    count).  Loading that snapshot and running the tail again must
    reproduce the uninterrupted result bit-identically — every
    ``RunResult`` field, the full telemetry timeline, and the
    metrics-registry snapshot (modulo wall-clock recorders, which
    measure the process, not the simulation).
    """
    import os
    import tempfile

    from repro.obs import Observability

    report = OracleReport(
        "resume",
        f"{bench}/{policy}: uninterrupted vs checkpoint-resumed run "
        "(bit-exact)",
    )
    with tempfile.TemporaryDirectory() as tmp:
        cfg = SimConfig(
            total_accesses=accesses,
            chunk_size=chunk,
            checkpoints=2,
            seed=seed,
            checkpoint_every=checkpoint_every,
            checkpoint_path=os.path.join(tmp, "run.ckpt"),
        )
        sim = Simulation(
            registry.build(bench, seed=seed), cfg, policy=policy,
            obs=Observability(metrics=True, tracing=False),
        )
        full = sim.run()
        resumed_sim = Simulation.load_state(cfg.checkpoint_path)
        resumed_at = resumed_sim.resumed_epoch or 0
        resumed = resumed_sim.run()
    report.rows.extend(diff_run_results(full, resumed, tolerances={}))
    report.add("overhead_time_s", full.overhead_time_s, resumed.overhead_time_s)
    report.add("migration_time_s", full.migration_time_s,
               resumed.migration_time_s)
    report.add("hot_pfn_mismatches", 0,
               _mismatches(full.hot_pfns, resumed.hot_pfns))
    report.add("timeline_mismatches", 0,
               _mismatches(full.timeline, resumed.timeline))
    report.add("metric_mismatches", 0,
               _metric_mismatches(full.metrics, resumed.metrics))
    # The resume must actually re-run a tail, or the oracle proves
    # nothing: the cadence is chosen not to divide the epoch count.
    report.add("epochs_rerun", cfg.num_epochs - resumed_at,
               cfg.num_epochs - resumed_at, tolerance=0.0)
    if cfg.num_epochs - resumed_at <= 0:
        report.add("tail_nonempty", 1, 0)
    return report


#: The registry ``repro verify`` iterates.
ORACLES = {
    "sketch": sketch_oracle,
    "pac": pac_oracle,
    "migration": migration_oracle,
    "engine": engine_oracle,
    "kernels": kernels_oracle,
    "fleet": fleet_oracle,
    "resume": resume_oracle,
}


def run_all(
    names: Optional[List[str]] = None, **kwargs: Dict[str, Any]
) -> List[OracleReport]:
    """Run the named oracle pairs (default: all of them), in order."""
    names = list(ORACLES) if not names else list(names)
    unknown = [n for n in names if n not in ORACLES]
    if unknown:
        raise ValueError(f"unknown oracles {unknown}; known: {list(ORACLES)}")
    return [ORACLES[name](**kwargs.get(name, {})) for name in names]
