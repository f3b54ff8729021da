"""The trace pipeline: record → cache-filter → store → read back.

The paper's §7.1 tracker study feeds the simulator with
"cache-filtered and time-stamped addresses to DRAM" collected via
Intel Pin + Ramulator.  This example is that pipeline end to end:

1. generate a raw access stream;
2. filter it through the LLC model (only misses reach DRAM — this is
   what the CXL controller's trackers actually see) while recording
   it to a trace file;
3. read the stored trace back;
4. feed it through two tracker designs and compare their picks.

Usage::

    python examples/trace_pipeline.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.analysis import tracker_ratio
from repro.cache import SetAssociativeCache
from repro.core.trackers import CmSketchTopK, SpaceSavingTopK
from repro.workloads import TraceReader, build, record

#: Addresses per tracker feed.
SLICE = 65_536


def main() -> None:
    bench = "roms"
    wl = build(bench, seed=1)
    # CAT: 4 of 15 ways (Table 3).
    llc = SetAssociativeCache(
        capacity_bytes=6 * 1024 * 1024, ways=15, allocated_ways=4
    )
    raw_accesses = 200_000
    with tempfile.TemporaryDirectory() as tmp:
        # 1-2. record with LLC filtering.
        path = record(wl, raw_accesses, Path(tmp) / f"{bench}.rtrace",
                      llc=llc, metadata={"llc_ways": 4})
        # 3. read back.
        with TraceReader(path) as reader:
            trace = reader.read_all()
        size_kib = path.stat().st_size / 1024
    print(f"raw accesses     : {raw_accesses}")
    print(f"LLC hit rate     : {llc.hit_rate:.2%}")
    print(f"DRAM trace length: {trace.size} "
          f"({trace.size / raw_accesses:.0%} of raw)")
    print(f"stored + read    : {size_kib:.0f} KiB")

    # 4. feed both tracker designs.
    pages = (trace >> np.uint64(12)).astype(np.int64)
    truth = {int(k): int(v)
             for k, v in zip(*np.unique(pages, return_counts=True))}
    for label, tracker in (
        ("CM-Sketch 32K", CmSketchTopK(5, num_counters=32 * 1024)),
        ("Space-Saving 50", SpaceSavingTopK(5, capacity=50)),
    ):
        identified, seen = [], set()
        for start in range(0, trace.size, SLICE):
            tracker.observe(trace[start:start + SLICE])
            for key, _ in tracker.query():
                if key not in seen:
                    seen.add(key)
                    identified.append(key)
        score = tracker_ratio(truth, identified, k=len(identified))
        print(f"{label:16s}: access-count ratio {score:.3f} "
              f"({len(identified)} pages identified)")


if __name__ == "__main__":
    main()
