#!/usr/bin/env python
"""CI smoke test for the streaming service daemon (``repro serve``).

Drives the real CLI the way an operator would and checks the
kill/resume acceptance properties end to end:

1. Record two v2 streaming traces with ``repro.workloads.record``.
2. Baseline: ``repro serve`` both streams uninterrupted, ``--out``
   the per-stream results.
3. Daemon: the same service with checkpointing on and the live HTTP
   endpoint up.  Scrape ``/metrics`` mid-run and require per-stream
   (``stream=``-labelled) series; wait for the first checkpoint;
   then **SIGKILL** the daemon — no graceful shutdown, exactly the
   crash the checkpoint format must survive.
4. Resume: ``repro serve --resume`` from the checkpoint directory,
   run to completion.
5. The resumed per-stream results must equal the uninterrupted
   baseline field for field — bit-identity across a hard kill.

Usage::

    PYTHONPATH=src python tools/service_smoke.py [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

PYTHON = sys.executable
CHUNK = 16_384


def repro_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (
            os.path.join(os.path.dirname(__file__), "..", "src"),
            env.get("PYTHONPATH", ""),
        ) if p
    )
    return env


def repro(*argv: str, **kw):
    return subprocess.run(
        [PYTHON, "-m", "repro", *argv],
        env=repro_env(), text=True, capture_output=True, **kw
    )


def fail(msg: str) -> "NoReturn":  # noqa: F821 - py<3.11 typing
    print(f"FAIL: {msg}")
    raise SystemExit(1)


def record_traces(out_dir: str):
    from repro.workloads import record, registry

    paths = {}
    for name, bench, chunks in (("alpha", "mcf", 48), ("beta", "roms", 32)):
        path = os.path.join(out_dir, f"{name}.rtrace")
        record(registry.build(bench, seed=7), chunks * CHUNK, path,
               chunk_size=CHUNK)
        paths[name] = path
    return paths


def serve_args(paths, *extra):
    return (
        "serve",
        "--stream", f"alpha={paths['alpha']},policy=m5-hpt,budget={CHUNK}",
        "--stream", f"beta={paths['beta']},policy=anb,budget={CHUNK}",
        "--chunk", str(CHUNK),
        *extra,
    )


def scrape(url: str) -> str:
    return urllib.request.urlopen(url, timeout=5).read().decode()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="service-smoke",
                        help="artifact directory")
    parser.add_argument("--kill-timeout", type=float, default=60.0,
                        help="max seconds to wait for a checkpoint "
                             "before giving up")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    print("== recording v2 traces")
    paths = record_traces(args.out)

    print("== baseline: uninterrupted service")
    base_out = os.path.join(args.out, "baseline.json")
    proc = repro(*serve_args(paths, "--no-http", "--out", base_out))
    if proc.returncode != 0:
        fail(f"baseline serve failed:\n{proc.stdout}\n{proc.stderr}")
    with open(base_out) as fh:
        baseline = json.load(fh)
    if baseline["unfinished"]:
        fail(f"baseline left streams unfinished: {baseline['unfinished']}")

    print("== daemon: checkpointing service, then SIGKILL")
    ckpt_dir = os.path.join(args.out, "ckpt")
    daemon = subprocess.Popen(
        [PYTHON, "-m", "repro", *serve_args(
            paths,
            "--checkpoint-dir", ckpt_dir, "--checkpoint-every", "2",
            "--port", "0",
        )],
        env=repro_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    try:
        # The ephemeral port is printed on the first line of output.
        line = daemon.stdout.readline()
        deadline = time.monotonic() + args.kill_timeout
        url = None
        while line:
            m = re.search(r"http://[\d.]+:\d+", line)
            if m:
                url = m.group(0)
                break
            if time.monotonic() > deadline:
                break
            line = daemon.stdout.readline()
        if url is None:
            fail("daemon never printed its metrics URL")
        print(f"   metrics endpoint: {url}")

        # Mid-run scrape: per-stream labelled series must be there.
        checkpoint = os.path.join(ckpt_dir, "service.ckpt")
        body = ""
        while time.monotonic() < deadline:
            if daemon.poll() is not None:
                fail("daemon finished before it could be killed; "
                     "enlarge the traces")
            try:
                body = scrape(url + "/metrics")
            except OSError:
                time.sleep(0.05)
                continue
            if (os.path.exists(checkpoint)
                    and 'stream="alpha"' in body
                    and 'stream="beta"' in body
                    and "service_rounds_total" in body):
                break
            time.sleep(0.05)
        else:
            fail("no checkpoint + labelled scrape before the timeout")
        with open(os.path.join(args.out, "midrun.prom"), "w") as fh:
            fh.write(body)

        daemon.send_signal(signal.SIGKILL)
        daemon.wait(timeout=30)
        print(f"   killed daemon (pid {daemon.pid}) after checkpoint")
    finally:
        if daemon.poll() is None:
            daemon.kill()
        daemon.stdout.close()

    print("== resume: run the killed service to completion")
    resume_out = os.path.join(args.out, "resumed.json")
    proc = repro("serve", "--no-http", "--resume", ckpt_dir,
                 "--max-rounds", "0", "--out", resume_out)
    if proc.returncode != 0:
        fail(f"resume failed:\n{proc.stdout}\n{proc.stderr}")
    banner = re.search(r"resumed service from .* \(round (\d+),", proc.stdout)
    if banner is None:
        fail(f"resume banner missing:\n{proc.stdout}")
    print(f"   resumed from the checkpoint of round {banner.group(1)}")
    with open(resume_out) as fh:
        resumed = json.load(fh)
    if resumed["unfinished"]:
        fail(f"resumed service left streams unfinished: "
             f"{resumed['unfinished']}")

    print("== compare: resumed results vs uninterrupted baseline")
    if set(resumed["streams"]) != {"alpha", "beta"}:
        fail(f"stream set mismatch: {sorted(resumed['streams'])}")
    for name in sorted(baseline["streams"]):
        want = baseline["streams"][name]
        got = resumed["streams"][name]
        if want != got:
            diffs = {k: (want[k], got.get(k))
                     for k in want if want[k] != got.get(k)}
            fail(f"stream {name!r} diverged after kill/resume: {diffs}")
        print(f"   {name}: bit-identical "
              f"(exec {want['execution_time_s']:.2f}s, "
              f"promoted {want['promoted']})")

    print("OK: kill/resume bit-identity + per-stream scrape held")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
