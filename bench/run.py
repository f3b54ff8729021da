"""The repository benchmark: four workloads, calibrated host time, and
an outside-in per-layer self-time ledger.

Run every workload and print every metric (about two minutes on a
2-vCPU host)::

    python3 bench/run.py --seed 1

Run one workload for a fixed time and print one JSON result line, the
interface ``BENCHMARK.json`` declares::

    python3 bench/run.py --workload m5-identify --seed 3 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` adds one
traced run and reports the per-layer metrics instead.  ``--smoke``
scales every workload down (same metric names, about 10 s in all), and
``--compare A.json B.json`` sets two results files side by side
against the bounds in ``BENCHMARK.json``.

Each run is a fresh child process (``child.py``), started one at a
time; this process only schedules them and does the arithmetic, with
the standard library alone.  See ``README.md`` for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from probe import PROBE_REF_S
from stats import (
    bracket_means,
    calibrate_steps,
    highest_percentile,
    percentile,
    quartiles,
    spread,
    step_profile,
)
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_run"

#: Timed runs per workload in the all-workload mode.
SUITE_RUNS = 5
#: Timed runs per workload with ``--smoke``.
SMOKE_RUNS = 2
#: Fewest timed runs in a ``--workload`` invocation, however short ``--seconds``.
MIN_RUNS = 3
#: Fewest steps across a workload's timed runs, so that p90 has ten
#: samples beyond it (not enforced under ``--smoke``).
MIN_STEPS = 100
#: Every invocation ends within this many seconds.
DEADLINE_S = 170.0
#: A step whose bracketing probes ran this many times slower than
#: ``PROBE_REF_S`` was measured on a heavily loaded host, where the
#: probe stops predicting a step's slowdown (damon-pr's slowest steps
#: slowed 1.7x while their probes slowed 1.2-1.6x).
LOADED = 1.4


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_checkout() -> Optional[str]:
    """Why this directory cannot be benchmarked, or None if it can."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no simulator sources at {ROOT / 'src' / 'repro'}"
    if not SPEC_PATH.is_file():
        return f"missing {SPEC_PATH}"
    return None


# ----------------------------------------------------------------------
# running children


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # The checkout's own sources, and nothing else named repro.
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(job: Dict[str, Any], deadline: float) -> Tuple[Optional[Dict[str, Any]], str]:
    """Run one child; returns (result, "") or (None, why it failed)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, "no time left before the deadline"
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "child.py"), json.dumps(job)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"{job['mode']} run exceeded {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return None, f"{job['mode']} run exited {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, f"{job['mode']} run printed no result"


def measure(name: str, seed: int, smoke: bool, seconds: float, min_runs: int,
            traced: bool) -> Dict[str, Any]:
    """Timed runs (the first one verified), then optionally one traced run."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORK_ROOT / f"{name}-s{seed}-{os.getpid()}"
    job = {"workload": name, "seed": seed, "smoke": smoke, "verify": False,
           "workdir": str(workdir)}
    runs: List[Dict[str, Any]] = []
    failures: List[str] = []
    attempted = 0
    traced_run = None
    try:
        if WORKLOADS[name].serve:
            _, why = run_child({**job, "mode": "prep"}, deadline)
            if why:
                return {"runs": [], "traced": None, "attempted": 1, "failures": [why]}
        start = time.monotonic()
        while True:
            result, why = run_child({**job, "mode": "timed", "verify": not attempted},
                                    deadline)
            attempted += 1
            if result is None:
                failures.append(why)
            else:
                runs.append(result)
            steps = sum(len(r["steps"]) for r in runs)
            done = (attempted >= min_runs
                    and time.monotonic() - start >= seconds
                    and (smoke or steps >= MIN_STEPS))
            if done or result is None or time.monotonic() > deadline - 30:
                break
        if traced:
            attempted += 1
            traced_run, why = run_child({**job, "mode": "traced"}, deadline)
            if traced_run is None:
                failures.append(why)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"runs": runs, "traced": traced_run, "attempted": attempted,
            "failures": failures}


# ----------------------------------------------------------------------
# correctness


def judge(raw: Dict[str, Any]) -> Tuple[int, List[str], Optional[Dict[str, Any]], bool]:
    """Count operations and failures; returns (attempted, failures,
    the reference run whose digest the majority shares, whether the
    traced run agrees with it)."""
    failures = list(raw["failures"])
    attempted = raw["attempted"]
    runs = raw["runs"]
    ref = None
    if runs:
        majority, _ = Counter(r["digest"] for r in runs).most_common(1)[0]
        ref = next(r for r in runs if r["digest"] == majority)
        for i, r in enumerate(runs):
            if r["digest"] != majority:
                failures.append(f"timed run {i} simulated a different result")
    for r in runs:
        for check in r["checks"]:
            attempted += 1
            if not check["ok"]:
                failures.append(f"{check['name']} check failed: {check['detail']}")
    traced = raw["traced"]
    traced_ok = (traced is not None and ref is not None
                 and traced["digest"] == ref["digest"] and traced["counts"] == ref["counts"])
    if traced is not None and not traced_ok:
        failures.append("traced run simulated a different result")
    return attempted, failures, ref, traced_ok


# ----------------------------------------------------------------------
# metrics


def _calibrated(run: Dict[str, Any]) -> List[float]:
    return calibrate_steps(run["steps"], run["probes"], PROBE_REF_S)


def _clean(run: Dict[str, Any]) -> List[bool]:
    return [p <= LOADED * PROBE_REF_S for p in bracket_means(run["probes"])]


def end_to_end(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Each end-to-end metric's value plus its per-run samples.

    Every run of one seed executes the same steps.  A step measured on
    a heavily loaded host (see ``LOADED``) takes the median of the same
    step's clean measurements in the other runs.
    """
    cal = [_calibrated(r) for r in runs]
    clean = [_clean(r) for r in runs]
    profile = step_profile(cal, clean)
    steps = [[s if ok else profile[i] for i, (s, ok) in enumerate(zip(c, oks))]
             for c, oks in zip(cal, clean)]
    per_run: Dict[str, List[float]] = {
        "accesses_per_s": [r["accesses"] / sum(s) for r, s in zip(runs, steps)],
        "step_ms_p50": [percentile(s, 50) * 1e3 for s in steps],
        "step_ms_p90": [percentile(s, 90) * 1e3 for s in steps],
        # Set-up ends right before the first probe, which calibrates it.
        "setup_s": [r["setup_s"] * PROBE_REF_S / r["probes"][0] for r in runs],
        "peak_rss_mb": [r["rss_mb"] for r in runs],
    }
    value = {name: quartiles(v)[1] for name, v in per_run.items()}
    # Step percentiles pool every step of every run.
    pooled = [x for s in steps for x in s]
    value["step_ms_p50"] = percentile(pooled, 50) * 1e3
    value["step_ms_p90"] = percentile(pooled, 90) * 1e3
    return {name: {"value": value[name], "runs": per_run[name]} for name in per_run}


def per_layer(runs: List[Dict[str, Any]], traced: Dict[str, Any],
              ref: Dict[str, Any], names: List[str]) -> Dict[str, float]:
    """The per-layer metrics ``names`` from one traced run.

    ``<span>.self_s`` is the span's self time in reference-host
    seconds, ``<span>.share`` its share of the traced run's step time
    and ``<span>.calls`` its call count; a layer the workload never
    enters reads 0.
    """
    raw_s = sum(traced["steps"])
    cal_s = sum(_calibrated(traced))
    factor = cal_s / raw_s
    spans, calls = traced["spans"], traced["calls"]
    untraced_cal = quartiles([sum(_calibrated(r)) for r in runs])[1]
    checkpoint_mb = traced["io"].get("checkpoint_mb", 0.0)
    checkpoint_s = spans.get("service.checkpoint", 0.0) * factor
    read_s = spans.get("workloads.traceio.read_next", 0.0) * factor
    special = {
        "trace.coverage": traced["coverage"],
        "trace.overhead_ratio": cal_s / untraced_cal,
        "steps.samples": sum(len(r["steps"]) for r in runs),
        "host.probe_s": quartiles([p for r in runs for p in r["probes"]])[1],
        "host.raw_accesses_per_s": quartiles(
            [r["accesses"] / sum(r["steps"]) for r in runs])[1],
        "workloads.traceio.decode_mb_per_s":
            traced["io"].get("decoded_mb", 0.0) / read_s if read_s else 0.0,
        "service.checkpoint_mb":
            checkpoint_mb / traced["counts"]["service.checkpoints"]
            if checkpoint_mb else 0.0,
        "service.checkpoint_s_per_mb": checkpoint_s / checkpoint_mb if checkpoint_mb else 0.0,
        # Simulated statistics (``child.exact_counts``), identical in every run.
        **ref["counts"],
    }
    out = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if kind == "self_s":
            out[name] = spans.get(span, 0.0) * factor
        elif kind == "share":
            out[name] = spans.get(span, 0.0) / raw_s
        elif kind == "calls":
            out[name] = calls.get(span, 0)
        else:
            out[name] = special[name]
    return out


def summarize(name: str, raw: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    attempted, failures, ref, traced_ok = judge(raw)
    summary: Dict[str, Any] = {"workload": name, "attempted": attempted,
                               "failed": len(failures), "failures": failures,
                               "step_samples": 0, "end_to_end": {}, "per_layer": {},
                               "runs": raw["runs"], "traced": raw["traced"]}
    if ref is None:
        return summary
    agreeing = [r for r in raw["runs"] if r["digest"] == ref["digest"]]
    summary["step_samples"] = sum(len(r["steps"]) for r in agreeing)
    e2e = end_to_end(agreeing)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    summary["end_to_end"] = {
        m: {**e2e[m], "unit": units[m]} for m in units
    }
    if traced_ok:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(agreeing, raw["traced"], ref, names)
        summary["per_layer"] = {m: {"value": values[m], "unit": units[m]} for m in names}
    return summary


# ----------------------------------------------------------------------
# output


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_table(summaries: List[Dict[str, Any]], spec: Dict[str, Any]) -> None:
    """Every metric by name and unit, one column per workload."""
    names = [s["workload"] for s in summaries]
    width = max(14, *(len(n) for n in names))
    head = "".join(f"{n:>{width + 2}s}" for n in names)

    def row(label: str, unit: str, cells: List[str]) -> None:
        print(f"  {label:36s} {unit:6s}" + "".join(f"{c:>{width + 2}s}" for c in cells))

    print(f"== correctness{' ' * 32}{head}")
    row("operations", "count", [str(s["attempted"]) for s in summaries])
    row("failed", "count", [str(s["failed"]) for s in summaries])
    row("error_rate", "ratio",
        [_fmt(s["failed"] / s["attempted"]) if s["attempted"] else "-" for s in summaries])
    row("step samples", "count", [str(s["step_samples"]) for s in summaries])
    tails = [highest_percentile(s["step_samples"]) for s in summaries]
    row("highest percentile, 10 beyond", "", [f"p{q:g}" if q else "none" for q in tails])
    for s in summaries:
        for why in s["failures"]:
            print(f"  FAILED {s['workload']}: {why}")
    for kind, title in (("end_to_end", "end-to-end (calibrated host time)"),
                        ("per_layer", "per-layer (one traced run)")):
        if not any(s[kind] for s in summaries):
            continue
        print(f"== {title}")
        for metric in spec[kind]:
            cells = [_fmt(s[kind][metric["name"]]["value"]) if s[kind] else "-"
                     for s in summaries]
            row(metric["name"], metric["unit"], cells)


def result_line(s: Dict[str, Any], kind: str) -> str:
    metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in s[kind].items()}
    return json.dumps({"correct": s["failed"] == 0, "attempted": s["attempted"],
                       "failed": s["failed"], "metrics": metrics})


def write_results(path: Path, seed: int, smoke: bool,
                  summaries: List[Dict[str, Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"seed": seed, "smoke": smoke, "probe_ref_s": PROBE_REF_S,
           "workloads": {s["workload"]: s for s in summaries}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"results written to {path}")


# ----------------------------------------------------------------------
# --compare


def compare(path_a: str, path_b: str, spec: Dict[str, Any]) -> int:
    """Print each end-to-end metric of B against A and the bound."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    worse = 0
    same_inputs = (a["seed"], a["smoke"]) == (b["seed"], b["smoke"])
    if not same_inputs:
        print("different seeds or scales: exact counts are not compared")
    print("value [Q1, Q3 of the per-run values]; change: how much worse B is than A")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        print(f"== {name}")
        for metric in spec["end_to_end"]:
            m = metric["name"]
            if m not in wa["end_to_end"] or m not in wb["end_to_end"]:
                continue
            ra, rb = wa["end_to_end"][m]["runs"], wb["end_to_end"][m]["runs"]
            va, vb = wa["end_to_end"][m]["value"], wb["end_to_end"][m]["value"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = sign * (vb - va) / va
            bound = metric["bound"]
            if max(spread(ra), spread(rb)) > bound:
                better_all = (max(rb) < min(ra)) if sign > 0 else (min(rb) > max(ra))
                verdict = "better (every run)" if better_all else "unresolved"
            elif change > bound:
                verdict = "WORSE"
                worse += 1
            else:
                verdict = "within bound"
            qa, qb = quartiles(ra), quartiles(rb)
            print(f"   {m:16s} A {_fmt(va)} [{_fmt(qa[0])}, {_fmt(qa[2])}]"
                  f"  B {_fmt(vb)} [{_fmt(qb[0])}, {_fmt(qb[2])}]"
                  f"  change {change:+.1%} (bound {bound:.0%})  {verdict}")
        if not (same_inputs and wa["runs"] and wb["runs"]):
            continue
        ca, cb = wa["runs"][0]["counts"], wb["runs"][0]["counts"]
        for m in sorted(set(ca) | set(cb)):
            if ca.get(m) != cb.get(m):
                print(f"   COUNT CHANGED {m}: {ca.get(m)} -> {cb.get(m)}")
                worse += 1
    return 1 if worse else 0


# ----------------------------------------------------------------------


def parse_args(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="run one workload and print one JSON result line")
    p.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    p.add_argument("--seconds", type=float, default=0.0,
                   help="keep starting timed runs until this much time passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="1 adds a traced run and reports the per-layer metrics")
    p.add_argument("--smoke", action="store_true", help="scaled-down workloads")
    p.add_argument("--out", help="results JSON path")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                   help="compare two results files against the bounds")
    return p.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    problem = check_checkout()
    if problem:
        print(f"cannot benchmark: {problem}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    min_runs = SMOKE_RUNS if args.smoke else (MIN_RUNS if args.workload else SUITE_RUNS)
    if args.workload:
        traced = args.trace == 1
        raw = measure(args.workload, args.seed, args.smoke, args.seconds, min_runs, traced)
        summary = summarize(args.workload, raw, spec)
        print_table([summary], spec)
        if args.out:
            write_results(Path(args.out), args.seed, args.smoke, [summary])
        print(result_line(summary, "per_layer" if traced else "end_to_end"))
        return 0 if summary["failed"] == 0 else 1
    summaries = []
    for name in WORKLOADS:
        print(f"running {name} ...", flush=True)
        raw = measure(name, args.seed, args.smoke, args.seconds, min_runs,
                      args.trace != 0)
        summaries.append(summarize(name, raw, spec))
    print_table(summaries, spec)
    out = Path(args.out) if args.out else WORK_ROOT / f"results-seed{args.seed}.json"
    write_results(out, args.seed, args.smoke, summaries)
    return 0 if all(s["failed"] == 0 for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
