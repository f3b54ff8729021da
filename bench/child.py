"""One benchmark run, in its own fresh process.

``run.py`` starts this script once per run, one at a time, so every
run gets a clean ``setup_s`` and peak RSS.  The only argument is a JSON
job::

    {"workload": "m5-identify", "seed": 1, "mode": "timed",
     "verify": false, "smoke": false, "workdir": ".bench_run/..."}

``mode`` is ``timed`` (a plain run with a step timer), ``traced`` (the
per-layer span tracer installed) or ``prep`` (record the service
workload's input traces).  ``verify`` adds the workload's correctness
check after the measured run.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import time

# Set-up time starts here, before numpy and repro are imported.
_T0 = time.perf_counter()

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

from probe import probe_s  # noqa: E402
from trace import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    SERVE_BUDGET,
    SERVE_CHECKPOINT_EVERY,
    SMOKE_DIVISOR,
    SMOKE_PAGES_PER_GB,
    WORKLOADS,
    Workload,
)

import repro  # noqa: E402
from repro.cxl.batch import AccessBatch  # noqa: E402
from repro.core.manager import M5Manager  # noqa: E402
from repro.migration.request import Outcome  # noqa: E402
from repro.service import Service, ServiceConfig, StreamSpec  # noqa: E402
from repro.sim import M5Options, SimConfig, Simulation  # noqa: E402
from repro.workloads import build, record  # noqa: E402
from repro.workloads.registry import cxl_capacity_pages, ddr_capacity_pages  # noqa: E402

# The benchmark measures the sources next to it, never an installed copy.
_SRC = Path(__file__).resolve().parent.parent / "src"
if not Path(repro.__file__).resolve().is_relative_to(_SRC):
    raise SystemExit(f"imported repro from {repro.__file__}, not from {_SRC}")

#: Accesses in the invariant-checked prefix run.
INVARIANT_PREFIX = 500_000
#: Root span of a simulation run; its self time is engine glue.
EPOCH_SPAN = "sim.epoch"
#: Root span of a service run: one scheduler round.
ROUND_SPAN = "service.round"


# ----------------------------------------------------------------------
# building the system under test


def _scaled(w: Workload, smoke: bool) -> int:
    return w.accesses // SMOKE_DIVISOR if smoke else w.accesses


def _sim_config(w: Workload, seed: int, smoke: bool, **extra: Any) -> SimConfig:
    fields: Dict[str, Any] = {**w.config, "seed": seed, **extra}
    if smoke:
        fields.update(
            pages_per_gb=SMOKE_PAGES_PER_GB,
            ddr_pages=ddr_capacity_pages(SMOKE_PAGES_PER_GB),
            cxl_pages=cxl_capacity_pages(SMOKE_PAGES_PER_GB),
        )
    return SimConfig(**fields)


def _pages_per_gb(smoke: bool) -> Dict[str, int]:
    return {"pages_per_gb": SMOKE_PAGES_PER_GB} if smoke else {}


def build_sim(w: Workload, seed: int, smoke: bool, workload: Any = None,
              accesses: int = 0, **extra: Any) -> Simulation:
    if workload is None:
        workload = build(w.benches[0], seed=seed, **_pages_per_gb(smoke))
    config = _sim_config(
        w, seed, smoke, total_accesses=accesses or _scaled(w, smoke), **extra
    )
    return Simulation(workload, config, policy=w.policy, enable_wac=w.enable_wac,
                      m5_options=M5Options(**w.m5))


def _trace_path(inputs: Path, bench: str) -> Path:
    return inputs / f"{bench}.rtrace"


def record_inputs(w: Workload, seed: int, smoke: bool, inputs: Path) -> None:
    """Record the service workload's v2 traces (before any timing)."""
    inputs.mkdir(parents=True, exist_ok=True)
    for i, bench in enumerate(w.benches):
        generator = build(bench, seed=seed + i, **_pages_per_gb(smoke))
        record(generator, _scaled(w, smoke), _trace_path(inputs, bench))


def build_service(w: Workload, seed: int, smoke: bool, inputs: Path,
                  ckpt_dir: Path) -> Service:
    streams = [
        StreamSpec(bench, str(_trace_path(inputs, bench)), policy=w.policy,
                   budget=SERVE_BUDGET)
        for bench in w.benches
    ]
    return Service(
        streams,
        _sim_config(w, seed, smoke),
        ServiceConfig(
            checkpoint_every=SERVE_CHECKPOINT_EVERY,
            checkpoint_dir=str(ckpt_dir),
            # Sealed sources never stall, so the idle sleep never runs.
            poll_interval_s=0.0,
            max_rounds=1,
        ),
    )


# ----------------------------------------------------------------------
# instrumentation


def instrument_sim(tracer: Tracer, sim: Simulation) -> None:
    """Wrap each layer's public entry points on this run's objects."""
    tracer.instrument(sim, "step_epoch", EPOCH_SPAN)
    tracer.instrument(sim.workload, "chunk", "workloads.chunk")
    for method in ("translate", "record_epoch_accesses"):
        tracer.instrument(sim.memory, method, "memory.translate")
    tracer.instrument(sim.controller, "serve", "cxl.serve")
    tracer.instrument_class(AccessBatch, "unique_keys", "cxl.batch_digest")
    tracer.instrument_class(AccessBatch, "unique_keys_ordered", "cxl.batch_digest")
    tracer.instrument(sim.pac, "observe_batch", "cxl.pac")
    if sim.wac is not None:
        tracer.instrument(sim.wac, "observe_batch", "cxl.wac")
    policy = sim.epoch_policy
    if isinstance(policy, M5Manager):
        for tracker, name in ((policy.hpt, "core.hpt"), (policy.hwt, "core.hwt")):
            if tracker is not None:
                tracer.instrument(tracker, "observe_batch", name)
                tracer.instrument(tracker, "query", name)
        policy_span = "core.manager"
    else:
        policy_span = "baselines.policy"
    for method in ("on_epoch", "demotion_victims"):
        tracer.instrument(policy, method, policy_span)
    for method in ("record_accesses", "age"):
        tracer.instrument(sim.mglru, method, "memory.mglru.record")
    tracer.instrument(sim.mglru, "coldest", "memory.mglru.coldest")
    for method in ("promote", "demote"):
        tracer.instrument(sim.engine, method, "memory.migration")
    if sim.async_engine is not None:
        tracer.instrument(sim.async_engine, "tick", "migration.tick")
    tracer.instrument(sim.perf, "record_epoch", "sim.perf")


def instrument_service(tracer: Tracer, svc: Service) -> None:
    """Wrap only objects outside the checkpoint pickle envelope."""
    for stream in svc.streams:
        tracer.instrument(stream.source, "read_next", "workloads.traceio.read_next")
        tracer.instrument(stream, "ingest", "service.ingest")
        tracer.instrument(stream, "drive", "service.engine")
    tracer.instrument(svc, "checkpoint", "service.checkpoint")


def count_transactions(sim: Simulation, totals: Dict[str, int]) -> None:
    """Sum the async engine's per-tick transaction outcomes."""
    inner = sim.async_engine.tick

    def counted_tick(*args: Any, **kwargs: Any) -> Any:
        report = inner(*args, **kwargs)
        totals["attempted"] += report.attempted
        totals["committed"] += report.outcomes.get(Outcome.COMMITTED, 0)
        totals["aborted_dirty"] += report.aborted_dirty
        return report

    sim.async_engine.tick = counted_tick


# ----------------------------------------------------------------------
# results


def _jsonable(value: Any) -> Any:
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"cannot digest {type(value).__name__}")


def result_digest(results: Dict[str, Any]) -> str:
    """Hash of every ``RunResult`` scalar, ``hot_pfns``,
    ``ratio_checkpoints``, ``overhead_events`` and ``extra`` (which
    holds the async migration counters), per stream."""
    doc = {
        name: {
            f.name: getattr(r, f.name)
            for f in dataclasses.fields(r)
            if f.name not in ("timeline", "metrics")
        }
        for name, r in sorted(results.items())
    }
    blob = json.dumps(doc, sort_keys=True, default=_jsonable).encode()
    return hashlib.sha256(blob).hexdigest()


def exact_counts(results: Dict[str, Any], epochs: int, requests: int,
                 txn: Dict[str, int], rounds: int = 0,
                 checkpoints: int = 0) -> Dict[str, float]:
    """Simulated statistics; a pure speed-up must leave each unchanged."""
    rs = list(results.values())
    ratios = [r.access_count_ratio for r in rs if r.access_count_ratio is not None]
    p99 = [r.p99_latency_us for r in rs if r.p99_latency_us is not None]
    attempted = txn.get("attempted", 0)
    return {
        "sim.epochs": epochs,
        "cxl.requests": requests,
        "memory.promoted": sum(r.promoted for r in rs),
        "memory.demoted": sum(r.demoted for r in rs),
        "migration.attempted": attempted,
        "migration.committed": txn.get("committed", 0),
        "migration.aborted_dirty": txn.get("aborted_dirty", 0),
        "migration.commit_ratio": txn.get("committed", 0) / attempted if attempted else 0.0,
        "policy.access_count_ratio": max(ratios, default=0.0),
        "policy.overhead_s": sum(r.overhead_time_s for r in rs),
        "sim.exec_s": sum(r.execution_time_s for r in rs),
        "sim.p99_latency_us": max(p99, default=0.0),
        "service.rounds": rounds,
        "service.checkpoints": checkpoints,
    }


# ----------------------------------------------------------------------
# runs


def start_probes() -> List[float]:
    """A run's probe list, holding the probe taken right before its
    first step.  A discarded call first pays the probe's one-time
    costs, which make a process's first probe about 8% slower."""
    probe_s()
    return [probe_s()]


def _ledger(tracer: Tracer, traced: bool, steps: List[float],
            root: str) -> Dict[str, Any]:
    """A traced run's self times, call counts and coverage.

    Coverage leaves out the root span's own time, the glue between the
    layers, so it says how much of the run the named layers explain.
    """
    if not traced:
        return {"spans": {}, "calls": {}, "coverage": 0.0}
    return {"spans": dict(tracer.self_s), "calls": dict(tracer.calls),
            "coverage": tracer.coverage(sum(steps), exclude=(root,))}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def check_invariants(w: Workload, seed: int, smoke: bool,
                     workload: Any) -> Dict[str, Any]:
    """An invariant-checked prefix run; any violation fails it.

    Reuses the timed run's generator, rewound, so the check costs no
    second workload build.
    """
    workload.restart()
    sim = build_sim(
        w, seed, smoke, workload=workload, check_invariants=True,
        accesses=min(INVARIANT_PREFIX, _scaled(w, smoke)),
    )
    result = sim.run()
    violations = int(result.extra.get("invariant_violations", 0))
    return {"name": "invariants", "ok": violations == 0,
            "detail": f"{int(result.extra.get('invariant_checks', 0))} checks, "
                      f"{violations} violations"}


def check_resume(ckpt_dir: Path, digest: str) -> Dict[str, Any]:
    """Resume from the last checkpoint; results must match the
    uninterrupted run's."""
    resumed = Service.resume(ckpt_dir, max_rounds=0, checkpoint_every=0)
    try:
        resumed_digest = result_digest(resumed.run())
    finally:
        resumed.close()
    return {"name": "resume", "ok": resumed_digest == digest,
            "detail": f"resumed after round {resumed.round}"}


def run_sim(w: Workload, seed: int, smoke: bool, traced: bool,
            verify: bool) -> Dict[str, Any]:
    sim = build_sim(w, seed, smoke)
    setup_s = time.perf_counter() - _T0
    tracer = Tracer()
    if traced:
        instrument_sim(tracer, sim)
    txn = {"attempted": 0, "committed": 0, "aborted_dirty": 0}
    if sim.async_engine is not None:
        count_transactions(sim, txn)
    steps: List[float] = []
    probes = start_probes()
    inner = sim.step_epoch

    def timed_step(*args: Any, **kwargs: Any) -> None:
        t0 = time.perf_counter()
        inner(*args, **kwargs)
        steps.append(time.perf_counter() - t0)
        probes.append(probe_s())

    sim.step_epoch = timed_step
    result = sim.run()
    tracer.restore()
    results = {w.benches[0]: result}
    return {
        "setup_s": setup_s,
        "steps": steps,
        "probes": probes,
        "rss_mb": _peak_rss_mb(),
        "accesses": sim.config.total_accesses,
        "digest": result_digest(results),
        "counts": exact_counts(results, len(steps), sim.controller.requests_served, txn),
        **_ledger(tracer, traced, steps, EPOCH_SPAN),
        "io": {},
        "checks": [check_invariants(w, seed, smoke, sim.workload)] if verify else [],
    }


def _dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file()) / 1e6


def run_service(w: Workload, seed: int, smoke: bool, traced: bool,
                verify: bool, inputs: Path, ckpt_dir: Path) -> Dict[str, Any]:
    svc = build_service(w, seed, smoke, inputs, ckpt_dir)
    setup_s = time.perf_counter() - _T0
    tracer = Tracer()
    if traced:
        instrument_service(tracer, svc)
    steps: List[float] = []
    probes = start_probes()
    checkpoint_mb = 0.0
    # One scheduler round per run() call (max_rounds=1): a round is a step.
    while svc.active_streams:
        before = svc.checkpoints_written
        t0 = time.perf_counter()
        with tracer.span(ROUND_SPAN):
            svc.run()
        steps.append(time.perf_counter() - t0)
        probes.append(probe_s())
        if traced and svc.checkpoints_written > before:
            checkpoint_mb += _dir_mb(ckpt_dir)
    tracer.restore()
    svc.close()
    streams = svc.streams
    digest = result_digest(svc.results)
    return {
        "setup_s": setup_s,
        "steps": steps,
        "probes": probes,
        "rss_mb": _peak_rss_mb(),
        "accesses": sum(s.workload.consumed_total for s in streams),
        "digest": digest,
        "counts": exact_counts(
            svc.results,
            sum(s.st.epoch for s in streams),
            sum(s.sim.controller.requests_served for s in streams),
            {},
            rounds=svc.round,
            checkpoints=svc.checkpoints_written,
        ),
        **_ledger(tracer, traced, steps, ROUND_SPAN),
        "io": {
            "decoded_mb": sum(s.workload.fed_total for s in streams) * 8 / 1e6,
            "checkpoint_mb": checkpoint_mb,
        },
        "checks": [check_resume(ckpt_dir, digest)] if verify else [],
    }


def main(job: Dict[str, Any]) -> Dict[str, Any]:
    w = WORKLOADS[job["workload"]]
    seed, smoke, verify = int(job["seed"]), bool(job["smoke"]), bool(job["verify"])
    workdir = Path(job["workdir"])
    inputs = workdir / "inputs"
    if job["mode"] == "prep":
        record_inputs(w, seed, smoke, inputs)
        return {}
    traced = job["mode"] == "traced"
    if not w.serve:
        return run_sim(w, seed, smoke, traced, verify)
    ckpt_dir = workdir / f"ckpt-{job['mode']}"
    try:
        return run_service(w, seed, smoke, traced, verify, inputs, ckpt_dir)
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
