#!/usr/bin/env python
"""CI smoke test for the live observability service.

Drives the real CLI the way an operator would and checks the
acceptance properties end to end:

1. ``repro run --serve`` — scrape ``/metrics`` **mid-run**: the
   response must parse, and every counter/histogram series must be ≤
   its final-snapshot value (monotone reads are the contract that
   makes torn scrapes safe).
2. After the run (during ``--serve-linger``) the final scrape of
   ``/snapshot.json`` must equal the ``--metrics`` artifact exactly,
   and ``repro metrics diff`` over the two must report no differing
   series.
3. ``--timeline`` exports the per-epoch table: one ``epoch`` record
   per epoch, and no event kind but ``epoch`` and ``alert.*``.
4. The same final-scrape == snapshot equality on a 2-tenant
   ``repro fleet --serve`` with per-tenant labelled series.
5. The SLO watchdog demonstrably fires: a starved async copy engine
   (tiny ``--mig-copy-gbps``) must produce ``alert.queue_saturation``
   timeline events, each judging its own epoch's ``migration_pending``;
   every ``epoch`` record carries the queue's seven ``mig_*`` outcome
   fields, and no other event kind is published.

Usage::

    PYTHONPATH=src python tools/live_smoke.py [--accesses N] [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs import flatten_snapshot, parse_prometheus  # noqa: E402

PYTHON = sys.executable


def repro(*argv: str, **kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (
            os.path.join(os.path.dirname(__file__), "..", "src"),
            env.get("PYTHONPATH", ""),
        ) if p
    )
    return subprocess.Popen(
        [PYTHON, "-m", "repro", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        **kw,
    )


def wait_for_line(proc, prefix: str, seen: list) -> str:
    """Read stdout until a line starts with ``prefix``; returns it."""
    assert proc.stdout is not None
    for line in proc.stdout:
        seen.append(line)
        if line.startswith(prefix):
            return line.rstrip("\n")
    raise AssertionError(
        f"process exited before printing {prefix!r}; output:\n"
        + "".join(seen)
    )


def get(url: str) -> bytes:
    return urllib.request.urlopen(url, timeout=10).read()


def counter_families(text: str) -> dict:
    """``{family: type}`` from the exposition's ``# TYPE`` lines."""
    kinds = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(None, 3)
            kinds[name] = kind
    return kinds


def monotone_keys(flat: dict, kinds: dict):
    """Series keys whose values may only grow during a run."""
    for key in flat:
        base = key.split("{", 1)[0]
        if kinds.get(base) == "counter":
            yield key
        else:
            for suffix in ("_bucket", "_count"):
                if base.endswith(suffix) and (
                    kinds.get(base[: -len(suffix)]) == "histogram"
                ):
                    yield key
                    break


def check_single_run(out: str, accesses: int) -> None:
    final_path = os.path.join(out, "final_run.json")
    timeline = os.path.join(out, "timeline.jsonl")
    live_path = os.path.join(out, "live_run.json")
    proc = repro(
        "run", "--bench", "mcf", "--accesses", str(accesses),
        "--serve", "--serve-linger", "8",
        "--slo-rules", "default",
        "--timeline", timeline, "--metrics", final_path,
    )
    seen: list = []
    try:
        line = wait_for_line(proc, "live metrics", seen)
        url = line.split()[3]
        # -- mid-run scrape: must parse; monotone series must be <= final
        mid_text = get(url).decode()
        mid_flat = parse_prometheus(mid_text)
        assert mid_flat, "mid-run /metrics scrape parsed to no series"
        kinds = counter_families(mid_text)
        health = json.loads(get(url.replace("/metrics", "/healthz")))
        assert health["status"] == "ok", health
        wait_for_line(proc, "finished; serving", seen)
        # -- final scrape during linger == the --metrics artifact
        snap = json.loads(get(url.replace("/metrics", "/snapshot.json")))
    finally:
        proc.wait(timeout=120)
    with open(final_path) as fh:
        final = json.load(fh)
    assert snap == final, "final /snapshot.json scrape != --metrics artifact"
    final_flat = flatten_snapshot(final, buckets=True)
    checked = 0
    for key in monotone_keys(mid_flat, kinds):
        assert key in final_flat, f"mid-run series {key} missing at the end"
        assert mid_flat[key] <= final_flat[key] + 1e-9, (
            f"counter went backwards: {key} mid={mid_flat[key]} "
            f"final={final_flat[key]}"
        )
        checked += 1
    assert checked > 0, "no monotone series found in the mid-run scrape"
    # -- the scraped snapshot diffs clean against the artifact
    with open(live_path, "w") as fh:
        json.dump(snap, fh)
    diff = repro("metrics", live_path, final_path)
    out_text, _ = diff.communicate(timeout=120)
    assert diff.returncode == 0 and "no differing series" in out_text, out_text
    # -- the timeline holds one epoch record per epoch
    with open(timeline) as fh:
        events = [json.loads(ln) for ln in fh if ln.strip()]
    assert_record_kinds(events)
    epochs = [e["epoch"] for e in events if e["stage"] == "epoch"]
    assert epochs == list(range(1, len(epochs) + 1)), "epoch rows out of step"
    assert final_flat.get("sim_epochs_total") == len(epochs), (
        f"{len(epochs)} epoch rows for {final_flat.get('sim_epochs_total')} "
        "epochs")
    print(f"single run OK: {checked} monotone series mid<=final, "
          f"final scrape == snapshot, {len(epochs)} epoch records")


def check_fleet(out: str, accesses: int) -> None:
    final_path = os.path.join(out, "final_fleet.json")
    proc = repro(
        "fleet", "--tenants", "2", "--tiers", "2", "--bench", "mcf,roms",
        "--accesses", str(accesses), "--serve", "--serve-linger", "8",
        "--metrics", final_path,
    )
    seen: list = []
    try:
        line = wait_for_line(proc, "live metrics", seen)
        url = line.split()[3]
        mid_text = get(url).decode()
        assert parse_prometheus(mid_text), "fleet mid-run scrape empty"
        wait_for_line(proc, "finished; serving", seen)
        snap = json.loads(get(url.replace("/metrics", "/snapshot.json")))
    finally:
        proc.wait(timeout=120)
    with open(final_path) as fh:
        final = json.load(fh)
    assert snap == final, "fleet final scrape != --metrics artifact"
    flat = flatten_snapshot(final)
    tenants = {
        key.split('tenant="', 1)[1].split('"', 1)[0]
        for key in flat if 'tenant="' in key
    }
    assert {"0", "1"} <= tenants, f"missing per-tenant series: {tenants}"
    print(f"fleet OK: final scrape == snapshot, per-tenant labels {sorted(tenants)}")


def assert_record_kinds(events: list) -> None:
    """The ``epoch`` record is the pipeline's only event; SLO alerts
    are the only other rows."""
    kinds = {e["stage"] for e in events
             if e["stage"] != "epoch" and not e["stage"].startswith("alert.")}
    assert not kinds, f"event kinds beside the epoch record: {sorted(kinds)}"


#: The transactional queue's outcome fields on each async epoch record.
ASYNC_OUTCOME_FIELDS = (
    "mig_enqueued", "mig_dropped_queue_full", "mig_aborted_dirty",
    "mig_aborted_injected", "mig_aborted_enomem", "mig_retries",
    "mig_dropped_retries",
)


def check_watchdog(out: str, accesses: int) -> None:
    timeline = os.path.join(out, "watchdog_timeline.jsonl")
    proc = repro(
        "run", "--bench", "mcf", "--accesses", str(accesses),
        "--migration-mode", "async", "--mig-copy-gbps", "0.0001",
        "--mig-queue-cap", "128",
        "--slo-rules", "default", "--timeline", timeline,
    )
    out_text, _ = proc.communicate(timeout=300)
    assert proc.returncode == 0, out_text
    assert "slo           :" in out_text and "breaches" in out_text, out_text
    assert "queue_saturation" in out_text, out_text
    with open(timeline) as fh:
        events = [json.loads(ln) for ln in fh if ln.strip()]
    alerts = [e for e in events if e["stage"].startswith("alert.")]
    saturated = [e for e in alerts if e["stage"] == "alert.queue_saturation"]
    assert saturated, "no alert.queue_saturation events in the timeline"
    # One fact, one place: the alert judged its epoch's record.
    pending = {e["epoch"]: e["migration_pending"]
               for e in events if e["stage"] == "epoch"}
    for e in saturated:
        assert e["value"] == pending[e["epoch"]], (e, pending[e["epoch"]])
    # The queue's outcomes ride the epoch record, not events of their own.
    assert_record_kinds(events)
    for e in events:
        if e["stage"] == "epoch":
            missing = set(ASYNC_OUTCOME_FIELDS) - set(e)
            assert not missing, (e["epoch"], sorted(missing))
    print(f"watchdog OK: {len(alerts)} alert events on a starved copy engine")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--accesses", type=int, default=2_000_000,
                        help="per-run trace length (big enough that the "
                             "mid-run scrape lands mid-run)")
    parser.add_argument("--out", default=".",
                        help="artifact directory")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    check_single_run(args.out, args.accesses)
    check_fleet(args.out, max(args.accesses // 2, 100_000))
    check_watchdog(args.out, max(args.accesses // 4, 100_000))
    print("live observability smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
