"""Extension: the evaluated streaming-algorithm families side by side.

§5.1 categorises streaming top-K algorithms as counter-based
(Space-Saving — plus the Misra-Gries/Mithril variant), sketch-based
(CM-Sketch) and sampling-based, then evaluates the first two.  This
bench puts those two at each family's plausible hardware operating
point:

* CM-Sketch at 32K SRAM counters (M5's choice);
* Space-Saving and Misra-Gries at the 2K-entry ASIC CAM limit.

Asserted shape: the sketch's feasibility advantage holds against
every counter-based alternative, echoing the paper's §7.1 conclusion.
"""

import numpy as np
import pytest

from repro.analysis import tracker_ratio
from repro.core.trackers import (
    CmSketchTopK,
    MisraGriesTopK,
    SpaceSavingTopK,
)
from repro.workloads import build

from common import emit_table, once

PAGES_PER_GB = 4096
TRACE_ACCESSES = 800_000
CHUNK = 65_536
K = 5
BENCHES = ("mcf", "roms", "liblinear")


def _score(tracker, trace, truth):
    identified, seen = [], set()
    for start in range(0, len(trace), CHUNK):
        tracker.observe(trace[start : start + CHUNK])
        for key, _ in tracker.query():
            if key not in seen:
                seen.add(key)
                identified.append(key)
    return tracker_ratio(truth, identified, k=len(identified))


def run_experiment():
    rows = []
    for bench in BENCHES:
        wl = build(bench, seed=2, pages_per_gb=PAGES_PER_GB)
        trace = wl.trace(TRACE_ACCESSES)
        pages = (trace >> np.uint64(12)).astype(np.int64)
        truth = {
            int(k): int(v) for k, v in zip(*np.unique(pages, return_counts=True))
        }
        rows.append({
            "bench": bench,
            "cm_sketch_32k": _score(CmSketchTopK(K, num_counters=32 * 1024),
                                    trace, truth),
            "space_saving_2k": _score(SpaceSavingTopK(K, capacity=2048),
                                      trace, truth),
            "misra_gries_2k": _score(MisraGriesTopK(K, capacity=2048),
                                     trace, truth),
        })
    return rows


@pytest.fixture(scope="module")
def family_rows():
    return run_experiment()


def check_sketch_operating_point_wins(rows):
    cms = np.mean([r["cm_sketch_32k"] for r in rows])
    for alt in ("space_saving_2k", "misra_gries_2k"):
        assert cms >= np.mean([r[alt] for r in rows]) - 0.03, alt


def check_counter_family_consistent(rows):
    """Space-Saving and its Misra-Gries variant behave comparably at
    equal capacity."""
    ss = np.mean([r["space_saving_2k"] for r in rows])
    mg = np.mean([r["misra_gries_2k"] for r in rows])
    assert abs(ss - mg) < 0.35


def test_tracker_families_regenerate(benchmark, family_rows):
    rows = once(benchmark, lambda: family_rows)
    emit_table(
        "ext_tracker_families",
        "Extension — streaming families at feasible operating points "
        "(access-count ratio)",
        ["bench", "cms_32k", "ss_2k", "mg_2k"],
        [
            [r["bench"], r["cm_sketch_32k"], r["space_saving_2k"],
             r["misra_gries_2k"]]
            for r in rows
        ],
    )
    check_sketch_operating_point_wins(rows)
    check_counter_family_consistent(rows)


def test_sketch_operating_point_wins(family_rows):
    check_sketch_operating_point_wins(family_rows)


def test_counter_family_consistent(family_rows):
    check_counter_family_consistent(family_rows)
