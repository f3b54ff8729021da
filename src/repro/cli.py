"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the benchmark registry (Table 3 + Figure 4 extras);
* ``run`` — one benchmark under one policy, with a summary (pass
  ``--timeline FILE`` for an epoch-resolution JSONL trace,
  ``--metrics FILE`` for a Prometheus/JSON metrics snapshot,
  ``--trace FILE`` for a chrome://tracing span file + flame table);
* ``compare`` — several policies on one benchmark, normalised to the
  no-migration baseline;
* ``sweep`` — a benchmark × policy matrix, parallelised across
  worker processes with ``--jobs`` (``--metrics FILE`` collects every
  cell's metrics snapshot);
* ``fleet`` — N tenants co-located on a shared 2- or 3-tier hierarchy
  with QoS bandwidth arbitration and DRAM→CXL→pooled demotion chains,
  stepped in lockstep in one process;
* ``metrics`` — pretty-print one metrics snapshot, or diff two;
* ``verify`` — the differential oracle pairs (per-access vs chunked
  sketch, PAC cache vs direct mode, instant vs async-unlimited
  migration, reference model vs production pipeline, ...) with
  per-field drift tolerances; non-zero exit on any drift;
* ``hwcost`` — the Table 4 tracker cost model.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import time
from typing import Dict, List, Optional

from repro.analysis import print_table
from repro.core import hwcost
from repro.obs import (
    MetricsRegistry,
    ObsServer,
    Observability,
    SloWatchdog,
    diff_snapshots,
    load_metrics_file,
    load_rules,
    merged_chrome_trace,
    write_chrome_trace,
)
from repro.sim import (
    ALL_POLICIES,
    CheckpointError,
    JsonlSink,
    SimConfig,
    Simulation,
    TelemetryBus,
    collect_matrix,
    matrix_means,
    normalized,
)
from repro.workloads import TraceFormatError, registry


def _config_from(args) -> SimConfig:
    return SimConfig(
        total_accesses=args.accesses,
        chunk_size=args.chunk,
        trace_subsample=args.subsample,
        migrate=not getattr(args, "no_migrate", False),
        checkpoints=getattr(args, "checkpoints", 1) or 1,
        migration_mode=getattr(args, "migration_mode", "instant"),
        migration_inflight_budget=getattr(args, "mig_budget", 128),
        migration_queue_capacity=getattr(args, "mig_queue_cap", 4096),
        migration_abort_rate=getattr(args, "mig_abort_rate", 0.0),
        migration_max_retries=getattr(args, "mig_max_retries", 3),
        migration_copy_gbps=getattr(args, "mig_copy_gbps", 0.0),
        migration_enomem_policy=getattr(args, "mig_enomem", "demote-first"),
        check_invariants=getattr(args, "check_invariants", False),
        slo_rules=getattr(args, "slo_rules", None) or "",
        checkpoint_every=getattr(args, "checkpoint_every", 0),
        checkpoint_path=getattr(args, "checkpoint", None) or "",
    )


def _port(text: str) -> int:
    """argparse type for a live-endpoint port; :class:`ObsServer` owns
    the range check, so a bad port is a usage error before any work."""
    try:
        return ObsServer(dict, port=int(text)).port
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@contextlib.contextmanager
def _serving(source, port: int, linger: float = 0.0,
             note: str = "also /healthz, /snapshot.json"):
    """Serve ``source`` live while the block runs and print the URL.
    If the block succeeds, keep serving the final snapshot ``linger``
    seconds before shutting the server down."""
    with ObsServer(source, port=port) as server:
        print(f"live metrics  : {server.url}/metrics  ({note})", flush=True)
        yield
        if linger > 0:
            print(f"finished; serving the final snapshot for {linger:g}s",
                  flush=True)
            time.sleep(linger)


def cmd_list(args) -> int:
    rows = []
    for name in registry.names():
        spec = registry.spec_of(name)
        rows.append(
            [name, spec.paper_footprint_gb, spec.footprint_pages, spec.cores,
             "p99" if spec.latency_sensitive else "time", spec.description]
        )
    print_table(
        "Registered benchmarks",
        ["name", "GB", "pages", "cores", "metric", "description"],
        rows,
        precision=1,
        col_width=12,
    )
    return 0


def _write_metrics_snapshot(path: str, obs: Observability) -> None:
    """Write the registry snapshot: JSON for ``*.json``, else the
    Prometheus text exposition format."""
    if path.endswith(".json"):
        with open(path, "w") as fh:
            json.dump(obs.snapshot(), fh, indent=2)
    else:
        with open(path, "w") as fh:
            fh.write(obs.prometheus())


def _print_flame_table(obs: Observability) -> None:
    rows = [
        [r["name"], int(r["count"]), r["total_s"], r["self_s"]]
        for r in obs.flame_table()
    ]
    if not rows:
        return
    print_table(
        "flame table: wall-clock per span",
        ["span", "count", "total_s", "self_s"],
        rows,
        precision=4,
        col_width=14,
    )
    coverage = obs.tracer.coverage()
    print(f"stage coverage: {coverage * 100.0:.1f}% of the run span's "
          "wall-clock is inside per-stage spans")


def _print_slo_summary(watchdogs: Dict[str, Optional[SloWatchdog]]) -> None:
    """One line over every watchdog of a run, keyed by scope (a fleet
    has its own plus one per tenant): the breaches summed per rule,
    naming each breaching scope when there are several (or how many
    rules stayed green), then the rules that no watchdog judged, by
    name; those are not green."""
    live = {scope: dog for scope, dog in watchdogs.items() if dog is not None}
    if not live:
        return
    totals = {scope: dog.breaches_by_rule() for scope, dog in live.items()}
    unjudged = [set(dog.rules_without_data()) for dog in live.values()]
    rules = list(dict.fromkeys(name for by_rule in totals.values() for name in by_rule))
    silent = [name for name in rules if all(name in names for names in unjudged)]
    breaches = sum(dog.breaches_total for dog in live.values())
    parts = []
    if breaches:
        per_rule = []
        for name in rules:
            by_scope = {scope: by_rule[name] for scope, by_rule in totals.items()
                        if by_rule.get(name, 0.0) > 0}
            if not by_scope:
                continue
            item = f"{name}={sum(by_scope.values()):.0f}"
            if len(live) > 1:
                item += " [" + ", ".join(
                    f"{scope}: {n:.0f}" for scope, n in by_scope.items()) + "]"
            per_rule.append(item)
        parts.append(f"{breaches} breaches ({', '.join(per_rule)})")
    elif len(silent) < len(rules):
        parts.append(f"all {len(rules) - len(silent)} rules green")
    if silent:
        parts.append(f"no data for {', '.join(silent)}")
    print(f"slo           : {'; '.join(parts)}")


def _refused_on_resume(args, sim: Simulation) -> List[str]:
    """The ``run`` flags given with ``--resume`` that the resumed run
    cannot honour.

    The checkpoint carries the whole run: workload, config, policy,
    telemetry bus (a path-backed JsonlSink reopens in append mode),
    metrics registry and watchdog.  So only the outputs of instruments
    it carries are honoured: ``--metrics`` and ``--serve`` need its
    registry.  Every other flag that differs from its default is
    refused.
    """
    defaults = vars(build_parser().parse_args(["run"]))
    honoured = {"resume", "serve_port", "serve_linger"}
    if sim.obs.metrics_on:
        honoured |= {"metrics", "serve"}
    return ["--" + dest.replace("_", "-")
            for dest, value in vars(args).items()
            if dest not in honoured and value != defaults[dest]]


def _slo_rules_error(args) -> Optional[str]:
    """Why ``--slo-rules`` cannot be loaded, or None.  Checked before
    any work, as a bad ``--timeline`` path is."""
    if not args.slo_rules:
        return None
    try:
        load_rules(args.slo_rules)
    except ValueError as exc:
        return f"cannot load --slo-rules: {exc}"
    return None


def cmd_run(args) -> int:
    resume = getattr(args, "resume", None)
    if resume:
        try:
            sim = Simulation.load_state(resume)
        except (OSError, CheckpointError) as exc:
            print(f"cannot resume from {resume}: {exc}")
            return 2
        refused = _refused_on_resume(args, sim)
        if refused:
            print(f"cannot resume with {', '.join(refused)}: the checkpoint "
                  "fixes the run's options, sinks and instruments")
            return 2
        print(f"resuming from {resume} "
              f"(benchmark {sim.workload.spec.name!r}, "
              f"policy {sim.policy_name!r}, after epoch {sim.resumed_epoch})")
        telemetry = None
        obs = sim.obs if sim.obs.enabled else None
    else:
        if not args.bench:
            print("error: --bench is required (unless resuming with "
                  "--resume)")
            return 2
        if args.trace and args.checkpoint_every:
            print("cannot combine --trace with --checkpoint-every: a traced "
                  "run's spans hold wall-clock state that does not resume")
            return 2
        slo_error = _slo_rules_error(args)
        if slo_error:
            print(slo_error)
            return 2
        workload = registry.build(args.bench, seed=args.seed)
        telemetry = None
        if getattr(args, "timeline", None):
            try:
                with open(args.timeline, "w"):  # fail fast on a bad path
                    pass
            except OSError as exc:
                print(f"cannot write timeline file: {exc}")
                return 2
            telemetry = TelemetryBus([JsonlSink(args.timeline)])
        obs = None
        if args.metrics or args.trace or args.serve:
            obs = Observability(metrics=bool(args.metrics or args.serve),
                                tracing=bool(args.trace))
        sim = Simulation(
            workload, _config_from(args), policy=args.policy,
            telemetry=telemetry, obs=obs,
        )
    # LIFO shutdown: the server (entered last) closes before the bus,
    # so a late scrape never races a half-flushed telemetry file —
    # and both close even if the run raises mid-flight.
    with contextlib.ExitStack() as stack:
        if telemetry is not None:
            stack.enter_context(telemetry)
        if args.serve and obs is not None:
            stack.enter_context(
                _serving(obs.registry, args.serve_port, args.serve_linger)
            )
        result = sim.run()
        if resume:
            sim.telemetry.close()  # flush the reopened JSONL sink
    if telemetry is not None:
        print(f"epoch timeline written to {args.timeline} "
              f"({len(result.timeline)} events)")
    if result.timeline_dropped:
        print(f"timeline ring : overflowed; {result.timeline_dropped} "
              "oldest events dropped (timeline is the tail of the run)")
    if args.metrics:
        _write_metrics_snapshot(args.metrics, obs)
        print(f"metrics snapshot written to {args.metrics}")
    _print_slo_summary({"run": sim.watchdog})
    if args.trace:
        n_events = write_chrome_trace(args.trace, obs.tracer.spans)
        print(f"chrome trace written to {args.trace} "
              f"({n_events} span events; load in chrome://tracing)")
        _print_flame_table(obs)
    print(f"benchmark     : {result.benchmark}")
    print(f"policy        : {result.policy}")
    print(f"execution time: {result.execution_time_s:.2f} s "
          f"(app {result.app_time_s:.2f}, overhead "
          f"{result.overhead_time_s:.3f}, migration "
          f"{result.migration_time_s:.3f})")
    if result.p99_latency_us is not None:
        print(f"p99 latency   : {result.p99_latency_us:.2f} us")
    print(f"promoted      : {result.promoted}  demoted: {result.demoted}")
    print(f"DDR/CXL pages : {result.nr_pages_ddr} / {result.nr_pages_cxl}")
    if sim.config.checkpoint_every > 0:
        print(f"checkpoints   : {sim.checkpoints_written} written "
              f"(every {sim.config.checkpoint_every} epochs -> "
              f"{sim.config.checkpoint_path})")
    if result.access_count_ratio is not None:
        print(f"access-count ratio: {result.access_count_ratio:.3f}")
    # Read the run's own config: on --resume the run-shape flags are
    # parser defaults, not the checkpointed run's settings.  A
    # violation raises out of the run, so a finished run has none.
    if sim.config.check_invariants:
        checks = result.extra.get("invariant_checks", 0.0)
        print(f"invariants    : {checks:.0f} checks, 0 violations")
    if sim.config.migration_mode == "async":
        ex = result.extra
        print(f"async queue   : enqueued {ex.get('mig_enqueued', 0):.0f}, "
              f"committed {ex.get('mig_committed', 0):.0f}, "
              f"aborted {ex.get('mig_aborted', 0):.0f} "
              f"(dirty {ex.get('mig_aborted_dirty', 0):.0f} / "
              f"injected {ex.get('mig_aborted_injected', 0):.0f} / "
              f"enomem {ex.get('mig_aborted_enomem', 0):.0f}), "
              f"retried {ex.get('mig_retries', 0):.0f}, "
              f"dropped {ex.get('mig_dropped_retries', 0):.0f}, "
              f"pending {ex.get('mig_pending', 0):.0f}")
    return 0


def _parse_stream_spec(text: str):
    """``NAME=TRACE[,policy=P][,budget=N]`` → :class:`StreamSpec`."""
    from repro.service import StreamSpec

    if "=" not in text:
        raise ValueError(
            f"stream spec {text!r} must look like NAME=TRACE"
            "[,policy=P][,budget=N]"
        )
    name, rest = text.split("=", 1)
    parts = rest.split(",")
    kwargs = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"bad stream option {part!r} in {text!r}")
        key, value = part.split("=", 1)
        if key == "policy":
            if value not in ALL_POLICIES:
                raise ValueError(f"unknown policy {value!r} in {text!r}")
            kwargs["policy"] = value
        elif key == "budget":
            kwargs["budget"] = int(value)
        else:
            raise ValueError(
                f"unknown stream option {key!r} in {text!r} "
                "(known: policy, budget)"
            )
    return StreamSpec(name.strip(), parts[0], **kwargs)


def cmd_serve(args) -> int:
    from repro.service import Service, ServiceConfig

    if args.resume:
        overrides = {}
        if args.max_rounds is not None:
            overrides["max_rounds"] = args.max_rounds
        if args.poll_interval is not None:
            overrides["poll_interval_s"] = args.poll_interval
        try:
            service = Service.resume(args.resume, **overrides)
        except (OSError, CheckpointError, TraceFormatError) as exc:
            print(f"cannot resume service from {args.resume}: {exc}")
            return 2
        print(f"resumed service from {args.resume} "
              f"(round {service.round}, "
              f"{len(service.active_streams)} live / "
              f"{len(service.results)} finished streams)")
    else:
        if not args.stream:
            print("error: at least one --stream NAME=TRACE is required "
                  "(unless resuming with --resume)")
            return 2
        try:
            specs = [_parse_stream_spec(s) for s in args.stream]
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        sim_config = SimConfig(
            chunk_size=args.chunk,
            seed=args.seed,
        )
        svc_config = ServiceConfig(
            buffer_capacity=args.buffer_cap,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir or "",
            poll_interval_s=(args.poll_interval
                             if args.poll_interval is not None else 0.05),
            max_rounds=args.max_rounds or 0,
        )
        try:
            service = Service(specs, sim_config, svc_config)
        except (OSError, ValueError) as exc:
            print(f"cannot start service: {exc}")
            return 2
        for stream in service.streams:
            print(f"stream {stream.name:<12} {stream.spec.trace} "
                  f"(policy {stream.spec.policy}, "
                  f"budget {stream.spec.budget}/round)")
    service.install_signal_handlers()
    with service, (contextlib.nullcontext() if args.no_http
                   else _serving(service.snapshot, args.port)):
        results = service.run()
    if service._stop_requested:
        where = (f"; state checkpointed to {service.config.checkpoint_dir}"
                 if service.config.checkpoint_every else
                 " (no checkpointing configured - progress lost)")
        print(f"stopped by signal at round {service.round}{where}")
    print(f"rounds        : {service.round}"
          + (f"  checkpoints: {service.checkpoints_written}"
             if service.config.checkpoint_every else ""))
    for name in sorted(results):
        r = results[name]
        print(f"{name:<14}: {r.benchmark}/{r.policy}  "
              f"time {r.execution_time_s:.2f}s  "
              f"promoted {r.promoted}  demoted {r.demoted}")
    unfinished = [s.name for s in service.active_streams]
    if unfinished:
        print(f"unfinished    : {', '.join(sorted(unfinished))}")
    if args.out:
        payload = {
            "rounds": service.round,
            "checkpoints_written": service.checkpoints_written,
            "unfinished": sorted(unfinished),
            "streams": {
                name: {
                    "benchmark": r.benchmark,
                    "policy": r.policy,
                    "execution_time_s": r.execution_time_s,
                    "app_time_s": r.app_time_s,
                    "overhead_time_s": r.overhead_time_s,
                    "migration_time_s": r.migration_time_s,
                    "promoted": r.promoted,
                    "demoted": r.demoted,
                    "nr_pages_ddr": r.nr_pages_ddr,
                    "nr_pages_cxl": r.nr_pages_cxl,
                    "extra": r.extra,
                }
                for name, r in results.items()
            },
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"service summary written to {args.out}")
    return 0


def cmd_compare(args) -> int:
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    unknown = [p for p in policies if p not in ALL_POLICIES]
    if unknown:
        print(f"unknown policies: {', '.join(unknown)}")
        return 2
    base = Simulation(
        registry.build(args.bench, seed=args.seed), _config_from(args),
        policy="none",
    ).run()
    rows = []
    for policy in policies:
        result = Simulation(
            registry.build(args.bench, seed=args.seed), _config_from(args),
            policy=policy,
        ).run()
        rows.append([policy, result.execution_time_s,
                     normalized(base, result), result.promoted,
                     result.demoted])
    print_table(
        f"{args.bench}: performance normalised to no migration",
        ["policy", "exec_s", "norm", "promoted", "demoted"],
        rows,
    )
    return 0


def cmd_sweep(args) -> int:
    benches = [b.strip() for b in args.benches.split(",") if b.strip()]
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    unknown = [p for p in policies if p not in ALL_POLICIES]
    if unknown:
        print(f"unknown policies: {', '.join(unknown)}")
        return 2
    unknown_benches = [b for b in benches if b not in registry.names()]
    if unknown_benches:
        print(f"unknown benchmarks: {', '.join(unknown_benches)}")
        return 2
    if args.jobs < 1:
        print(f"--jobs must be >= 1 (got {args.jobs})")
        return 2
    # ``functools.partial`` keeps the factory picklable for the worker
    # processes (a closure over ``args`` would not be).
    factory = functools.partial(_config_from, args)
    serve = bool(getattr(args, "serve", False))
    metrics_path = getattr(args, "metrics", None)
    on_result = None
    live = contextlib.nullcontext()
    if serve:
        # One live endpoint over the whole matrix: each cell's
        # snapshot lands in the aggregate registry (labelled by
        # bench/policy) the moment the worker returns it.
        aggregate = MetricsRegistry(enabled=True)

        def on_result(bench: str, policy: str, result) -> None:
            if result.metrics:
                aggregate.merge(
                    result.metrics,
                    extra_labels={"bench": bench, "policy": policy},
                )

        live = _serving(aggregate, args.serve_port, args.serve_linger,
                        "cells appear as they finish")
    with live:
        results = collect_matrix(
            benches, policies, factory, seed=args.seed, jobs=args.jobs,
            with_metrics=bool(metrics_path) or serve, on_result=on_result,
        )
    matrix = {
        bench: {
            p: normalized(results[bench]["none"], results[bench][p])
            for p in policies
        }
        for bench in benches
    }
    if metrics_path:
        cell_metrics = {
            bench: {
                policy: result.metrics
                for policy, result in results[bench].items()
            }
            for bench in benches
        }
        with open(metrics_path, "w") as fh:
            json.dump(cell_metrics, fh, indent=2)
        n_cells = sum(len(row) for row in cell_metrics.values())
        print(f"per-cell metrics written to {metrics_path} "
              f"({n_cells} cells)")
    rows = [[bench] + [matrix[bench][p] for p in policies] for bench in benches]
    means = matrix_means(matrix)
    rows.append(["mean"] + [means[p] for p in policies])
    print_table(
        f"sweep ({len(benches)}x{len(policies)} cells, jobs={args.jobs}): "
        "performance normalised to no migration",
        ["bench"] + policies,
        rows,
    )
    return 0


def cmd_fleet(args) -> int:
    from repro.fleet import MAX_TENANTS, FleetConfig, FleetSimulation

    benches = [b.strip() for b in args.bench.split(",") if b.strip()]
    unknown_benches = [b for b in benches if b not in registry.names()]
    if unknown_benches:
        print(f"unknown benchmarks: {', '.join(unknown_benches)}")
        return 2
    if args.tenants > MAX_TENANTS:
        print(f"--tenants is capped at {MAX_TENANTS} by the per-tenant "
              "physical-address windows")
        return 2
    try:
        fleet = FleetConfig(
            tenants=args.tenants,
            tiers=args.tiers,
            bench=args.bench,
            policy=args.policy,
            weights=args.weights,
            qos=not args.no_qos,
            pooled_capacity_gb=args.pooled_gb,
            chain_headroom_frac=args.chain_headroom,
            chain_pull_budget=args.chain_pull_budget,
        )
    except ValueError as exc:
        print(f"bad fleet configuration: {exc}")
        return 2
    slo_error = _slo_rules_error(args)
    if slo_error:
        print(slo_error)
        return 2
    config = _config_from(args)
    config.seed = args.seed
    with_metrics = bool(args.out or args.metrics or args.serve)
    fsim = FleetSimulation(
        fleet,
        config,
        obs=Observability(metrics=with_metrics, tracing=False),
        tenant_metrics=with_metrics,
        tenant_tracing=bool(args.trace),
    )
    with (_serving(fsim.merged_snapshot, args.serve_port,
                   args.serve_linger, "per-tenant labelled series")
          if args.serve else contextlib.nullcontext()):
        result = fsim.run()
    if args.trace:
        trace = merged_chrome_trace(fsim.tenant_spans())
        with open(args.trace, "w") as fh:
            json.dump(trace, fh)
        print(f"fleet chrome trace written to {args.trace} "
              f"({len(trace['traceEvents'])} span events, one process "
              "row per tenant; load in chrome://tracing)")
    tier_names = list(result.results[0].bandwidth_share)
    rows = []
    for t in result.results:
        rows.append(
            [t.tenant, t.bench, t.result.execution_time_s,
             t.slowdown_vs_isolated, t.result.promoted, t.result.demoted,
             t.chain.get("demoted_to_pooled", 0.0),
             t.chain.get("pulled_from_pooled", 0.0)]
            + [t.bandwidth_share[name] for name in tier_names]
        )
    print_table(
        f"fleet: {result.tenants} tenants x {result.tiers} tiers, "
        f"policy {result.policy}, qos={'on' if result.qos else 'off'}, "
        f"{result.epochs} epochs",
        ["tenant", "bench", "exec_s", "slowdn", "prom", "dem",
         "dem_pool", "pull_up"] + [f"bw_{n}" for n in tier_names],
        rows,
        precision=3,
    )
    if getattr(args, "check_invariants", False):
        checks = sum(
            t.result.extra.get("invariant_checks", 0.0)
            for t in result.results
        )
        print(f"invariants    : {checks:.0f} checks, 0 violations")
    _print_slo_summary({
        "fleet": fsim.watchdog,
        **{f"tenant {t}": sim.watchdog for t, sim in enumerate(fsim.sims)},
    })
    if args.out:
        payload = result.as_dict()
        payload["metrics"] = result.metrics
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"fleet summary + per-tenant metrics written to {args.out}")
    if args.metrics:
        with open(args.metrics, "w") as fh:
            json.dump(result.metrics, fh, indent=2)
        print(f"fleet metrics snapshot written to {args.metrics}")
    return 0


def cmd_metrics(args) -> int:
    if len(args.files) > 2:
        print("metrics takes one file (show) or two (diff)")
        return 2
    try:
        flats = [load_metrics_file(path) for path in args.files]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot load metrics file: {exc}")
        return 2
    if len(flats) == 1:
        flat = flats[0]
        if not flat:
            print(f"no series in {args.files[0]}")
            return 0
        rows = [[key, value] for key, value in sorted(flat.items())]
        print_table(
            f"metrics snapshot: {args.files[0]} ({len(rows)} series)",
            ["series", "value"],
            rows,
            precision=3,
            col_width=44,
        )
        return 0
    diff = diff_snapshots(flats[0], flats[1])
    changed = [row for row in diff if row["delta"] != 0.0]
    rows = [[row["series"], row["a"], row["b"], row["delta"]]
            for row in (diff if args.all else changed)]
    if not rows:
        print(f"no differing series across {len(diff)} "
              "(pass --all to list unchanged series)")
        return 0
    print_table(
        f"metrics diff: {args.files[0]} -> {args.files[1]} "
        f"({len(changed)} of {len(diff)} series changed)",
        ["series", "a", "b", "delta"],
        rows,
        precision=3,
        col_width=44,
    )
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import profile_benchmark, render_markdown

    profile = profile_benchmark(
        args.bench, total_accesses=args.accesses, seed=args.seed
    )
    text = render_markdown(profile)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def cmd_verify(args) -> int:
    from repro.verify import ORACLES, run_all

    names = [n.strip() for n in args.oracles.split(",") if n.strip()]
    unknown = [n for n in names if n not in ORACLES]
    if unknown:
        print(f"unknown oracles: {', '.join(unknown)} "
              f"(known: {', '.join(ORACLES)})")
        return 2
    overrides = {
        "migration": {
            "bench": args.bench,
            "policy": args.policy,
            "seed": args.seed,
            "accesses": args.accesses,
            "chunk": args.chunk,
        },
        "sketch": {"seed": args.seed},
        "pac": {"seed": args.seed},
        "engine": {
            "bench": args.bench,
            "policy": args.policy,
            "seed": args.seed,
        },
        "kernels": {"seed": args.seed},
        "fleet": {
            "bench": args.bench,
            "policy": args.policy,
            "seed": args.seed,
        },
        "resume": {
            "bench": args.bench,
            "policy": args.policy,
            "seed": args.seed,
        },
    }
    reports = run_all(names, **{n: overrides.get(n, {}) for n in names})
    failed = 0
    for report in reports:
        print(report.format())
        if not report.ok:
            failed += 1
            for row in report.failures():
                print(f"  -> drift in {row.field}: "
                      f"{row.a:g} vs {row.b:g} "
                      f"(drift {row.drift:.2%} > tol {row.tolerance:.2%})")
        print()
    if failed:
        print(f"VERIFY FAILED: {failed} of {len(reports)} oracle pairs drifted")
        return 1
    print(f"verify ok: {len(reports)} oracle pairs agree")
    return 0


def cmd_lint(args) -> int:
    from repro.lintkit import run_from_args

    return run_from_args(args)


def cmd_hwcost(args) -> int:
    rows = []
    for row in hwcost.table4():
        rows.append(
            [row["entries"], row["space_saving_area_um2"],
             row["cm_sketch_area_um2"], row["space_saving_power_mw"],
             row["cm_sketch_power_mw"]]
        )
    print_table(
        "Tracker cost model (Table 4): area um^2 / power mW",
        ["entries", "SS_area", "CMS_area", "SS_power", "CMS_power"],
        rows,
        precision=1,
    )
    rel = hwcost.relative_cost(2048)
    print(f"at N=2K: Space-Saving costs {rel['area_ratio']:.1f}x area and "
          f"{rel['power_ratio']:.1f}x power of CM-Sketch")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="M5 (ASPLOS 2025) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered benchmarks")

    def add_run_args(p, with_policy=True, bench_required=True):
        p.add_argument("--bench", required=bench_required,
                       help="benchmark name (see `list`)")
        if with_policy:
            p.add_argument("--policy", default="m5-hpt", choices=ALL_POLICIES)
        p.add_argument("--accesses", type=int, default=1_000_000)
        p.add_argument("--chunk", type=int, default=16_384)
        p.add_argument("--subsample", type=float, default=64.0)
        p.add_argument("--seed", type=int, default=1)

    def add_migration_args(p):
        p.add_argument("--migration-mode", default="instant",
                       choices=("instant", "async"),
                       help="instant: atomic flat-cost migration; async: "
                            "transactional queue with budgets and aborts")
        p.add_argument("--mig-budget", type=int, default=128,
                       help="async: max page copies in flight per epoch")
        p.add_argument("--mig-queue-cap", type=int, default=4096,
                       help="async: bounded migration-queue capacity")
        p.add_argument("--mig-abort-rate", type=float, default=0.0,
                       help="async: injected mid-copy abort probability")
        p.add_argument("--mig-max-retries", type=int, default=3,
                       help="async: retries before a request is dropped")
        p.add_argument("--mig-copy-gbps", type=float, default=0.0,
                       help="async: copy-engine bandwidth throttle (GB/s, "
                            "0 = budget-only)")
        p.add_argument("--mig-enomem", default="demote-first",
                       choices=("demote-first", "abort"),
                       help="async: full fast tier demotes a victim first "
                            "or aborts the promotion")

    def add_serve_args(p, what="the run"):
        p.add_argument("--serve", action="store_true",
                       help=f"serve /metrics, /healthz and /snapshot.json "
                            f"over HTTP while {what} is in flight")
        p.add_argument("--serve-port", type=_port, default=0, metavar="PORT",
                       help="live-endpoint port (0 = ephemeral; the bound "
                            "URL is printed at startup)")
        p.add_argument("--serve-linger", type=float, default=0.0,
                       metavar="SECONDS",
                       help="keep serving the final snapshot this long "
                            "after the work finishes")

    def add_slo_args(p):
        p.add_argument("--slo-rules", default=None, metavar="SPEC",
                       help="SLO watchdog over the per-epoch record: "
                            "'default' or a JSON rule file; breaches "
                            "raise alert.* telemetry (and the "
                            "slo_breaches_total counter with metrics on)")

    run = sub.add_parser("run", help="run one benchmark under one policy")
    add_run_args(run, bench_required=False)
    add_migration_args(run)
    add_serve_args(run)
    add_slo_args(run)
    run.add_argument("--no-migrate", action="store_true",
                     help="identification-only mode (§4.1 S1)")
    run.add_argument("--check-invariants", action="store_true",
                     help="run the per-epoch invariant catalogue (counter/"
                          "tier conservation, tracker/queue bounds); a "
                          "violation aborts the run")
    run.add_argument("--checkpoints", type=int, default=10)
    run.add_argument("--timeline", default=None, metavar="FILE",
                     help="write the per-epoch telemetry timeline as JSONL")
    run.add_argument("--metrics", default=None, metavar="FILE",
                     help="write a metrics snapshot (JSON if FILE ends "
                          ".json, else Prometheus text exposition)")
    run.add_argument("--trace", default=None, metavar="FILE",
                     help="write pipeline-stage spans as chrome://tracing "
                          "JSON and print the flame table")
    run.add_argument("--checkpoint", default=None, metavar="FILE",
                     help="persist the full run state to FILE (atomically "
                          "replaced) every --checkpoint-every epochs")
    run.add_argument("--checkpoint-every", type=int, default=0, metavar="K",
                     help="checkpoint cadence in epochs (0 disables; "
                          "requires --checkpoint)")
    run.add_argument("--resume", default=None, metavar="CKPT",
                     help="resume a checkpointed run to completion; the "
                          "result is bit-identical to the uninterrupted "
                          "run.  Other flags are refused, except --metrics "
                          "and --serve when the checkpoint carries a "
                          "metrics registry")

    serve = sub.add_parser(
        "serve",
        help="streaming service daemon: multiplex N trace streams onto "
             "the epoch engine with per-stream budgets, live metrics, "
             "and checkpoint/resume",
    )
    serve.add_argument("--stream", action="append", default=[],
                       metavar="NAME=TRACE[,policy=P][,budget=N]",
                       help="add one stream fed from TRACE (a chunked "
                            "trace stream, possibly still being written); "
                            "repeatable")
    serve.add_argument("--chunk", type=int, default=16_384,
                       help="engine epoch size in accesses")
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--buffer-cap", type=int, default=1 << 20,
                       metavar="N",
                       help="per-stream ingest buffer bound in addresses "
                            "(a full buffer back-pressures ingestion)")
    serve.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="directory for periodic service checkpoints")
    serve.add_argument("--checkpoint-every", type=int, default=0,
                       metavar="R",
                       help="checkpoint cadence in scheduler rounds "
                            "(0 disables; requires --checkpoint-dir)")
    serve.add_argument("--resume", default=None, metavar="DIR",
                       help="resume a checkpointed service; with sealed "
                            "sources the results are bit-identical to an "
                            "uninterrupted run")
    serve.add_argument("--max-rounds", type=int, default=None, metavar="N",
                       help="stop after N scheduler rounds (default: run "
                            "until every stream finishes)")
    serve.add_argument("--poll-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="idle sleep when every in-flight source has "
                            "nothing new on disk")
    serve.add_argument("--port", type=_port, default=0, metavar="PORT",
                       help="HTTP port for /metrics, /healthz, "
                            "/snapshot.json (0 = ephemeral)")
    serve.add_argument("--no-http", action="store_true",
                       help="run without the live metrics endpoint")
    serve.add_argument("--out", default=None, metavar="FILE",
                       help="write the per-stream summary as JSON")

    compare = sub.add_parser("compare", help="compare policies")
    add_run_args(compare, with_policy=False)
    add_migration_args(compare)
    compare.add_argument("--policies", default="anb,damon,m5-hpt")

    sweep = sub.add_parser(
        "sweep", help="benchmark x policy matrix (parallel with --jobs)"
    )
    sweep.add_argument("--benches", default="mcf,roms",
                       help="comma-separated benchmark names")
    sweep.add_argument("--policies", default="anb,damon,m5-hpt")
    sweep.add_argument("--accesses", type=int, default=1_000_000)
    sweep.add_argument("--chunk", type=int, default=16_384)
    sweep.add_argument("--subsample", type=float, default=64.0)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the matrix cells")
    sweep.add_argument("--no-migrate", action="store_true",
                       help="identification-only mode (§4.1 S1)")
    sweep.add_argument("--metrics", default=None, metavar="FILE",
                       help="collect every cell's metrics snapshot into "
                            "one JSON file keyed bench -> policy")
    add_migration_args(sweep)
    add_serve_args(sweep, what="the sweep")

    fleet = sub.add_parser(
        "fleet",
        help="multi-tenant fleet on a shared 2- or 3-tier hierarchy "
             "(QoS bandwidth arbitration + DRAM->CXL->pooled demotion "
             "chains)",
    )
    fleet.add_argument("--tenants", type=int, default=3,
                       help="co-located workloads sharing the hierarchy")
    fleet.add_argument("--tiers", type=int, default=3, choices=(2, 3),
                       help="tier depth: 2 (DDR+CXL) or 3 (+pooled CXL)")
    fleet.add_argument("--bench", default="mcf",
                       help="comma-separated benchmarks, assigned "
                            "round-robin over tenants")
    fleet.add_argument("--policy", default="m5-hpt", choices=ALL_POLICIES,
                       help="page-migration policy every tenant runs")
    fleet.add_argument("--weights", default="",
                       help="comma-separated per-tenant QoS weights "
                            "(empty = equal; cycled like --bench)")
    fleet.add_argument("--no-qos", action="store_true",
                       help="proportional bandwidth sharing instead of "
                            "weighted max-min fairness")
    fleet.add_argument("--pooled-gb", type=float, default=16.0,
                       help="pooled-tier capacity in GB (3-tier fleets)")
    fleet.add_argument("--chain-headroom", type=float, default=0.02,
                       help="fraction of each tenant's CXL share the "
                            "demotion chain keeps free")
    fleet.add_argument("--chain-pull-budget", type=int, default=64,
                       help="max pooled pages pulled back to CXL per "
                            "tenant-epoch (0 disables pull-ups)")
    fleet.add_argument("--accesses", type=int, default=1_000_000)
    fleet.add_argument("--chunk", type=int, default=16_384)
    fleet.add_argument("--subsample", type=float, default=64.0)
    fleet.add_argument("--seed", type=int, default=1)
    fleet.add_argument("--check-invariants", action="store_true",
                       help="run the per-epoch invariant catalogue in "
                            "every tenant's pipeline")
    fleet.add_argument("--out", default=None, metavar="FILE",
                       help="write the fleet summary + per-tenant metric "
                            "rows as JSON (the CI snapshot artifact)")
    fleet.add_argument("--metrics", default=None, metavar="FILE",
                       help="write the fleet metrics-registry snapshot "
                            "as JSON")
    fleet.add_argument("--trace", default=None, metavar="FILE",
                       help="write per-tenant pipeline spans as one "
                            "chrome://tracing JSON (one process row per "
                            "tenant)")
    add_serve_args(fleet, what="the fleet")
    add_slo_args(fleet)

    metrics = sub.add_parser(
        "metrics", help="pretty-print one metrics snapshot, or diff two"
    )
    metrics.add_argument("files", nargs="+", metavar="FILE",
                         help="snapshot files (.json or .prom); one file "
                              "shows it, two files diff them")
    metrics.add_argument("--all", action="store_true",
                         help="diff: also list unchanged series")

    report = sub.add_parser("report", help="full Markdown profile report")
    report.add_argument("--bench", required=True,
                        help="benchmark name (see `list`)")
    report.add_argument("--accesses", type=int, default=1_000_000)
    report.add_argument("--seed", type=int, default=1)
    report.add_argument("--output", default=None,
                        help="write the report to a file instead of stdout")

    verify = sub.add_parser(
        "verify",
        help="run the differential oracle pairs (per-access vs chunked "
             "sketch, PAC cache vs direct, instant vs async-unlimited "
             "migration, reference model vs production pipeline, ...)",
    )
    verify.add_argument("--oracles",
                        default="sketch,pac,migration,engine,kernels,fleet,"
                                "resume",
                        help="comma-separated oracle names to run")
    verify.add_argument("--bench", default="mcf",
                        help="benchmark for the migration, engine, fleet "
                             "and resume oracles")
    verify.add_argument("--policy", default="m5-hpt", choices=ALL_POLICIES,
                        help="policy for the migration, engine, fleet "
                             "and resume oracles")
    verify.add_argument("--accesses", type=int, default=400_000)
    verify.add_argument("--chunk", type=int, default=16_384)
    verify.add_argument("--seed", type=int, default=1)

    sub.add_parser("hwcost", help="Table 4 tracker cost model")

    lint = sub.add_parser(
        "lint",
        help="project-aware static analysis (determinism, units, hot-path "
             "loops, registry drift, crash safety, pickle safety)",
    )
    from repro.lintkit import add_arguments as _add_lint_arguments

    _add_lint_arguments(lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "list": cmd_list,
        "run": cmd_run,
        "serve": cmd_serve,
        "compare": cmd_compare,
        "sweep": cmd_sweep,
        "fleet": cmd_fleet,
        "metrics": cmd_metrics,
        "report": cmd_report,
        "verify": cmd_verify,
        "hwcost": cmd_hwcost,
        "lint": cmd_lint,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
