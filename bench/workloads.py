"""The benchmark's four workloads, as data.

Each workload stresses a different layer of the simulator, so a change
to one layer should move one workload and leave another alone (see
``README.md`` for the layer-to-workload map).  This module holds only
the definitions; ``child.py`` turns them into a ``Simulation`` or a
``Service``.  It imports nothing outside the standard library, so the
parent process stays free of numpy and ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: Smoke scale: accesses divided by this, footprints shrunk to this
#: many model pages per paper-GB (the registry default is 1024).
SMOKE_DIVISOR = 8
SMOKE_PAGES_PER_GB = 256

#: ``benchmarks/common.ratio_config``: the Fig. 3/8 identification-only
#: method.
_RATIO = {"chunk_size": 65_536, "migrate": False, "checkpoints": 10}
#: ``benchmarks/common.end_to_end_config``: the Fig. 9 migrating runs.
_END_TO_END = {
    "chunk_size": 16_384,
    "trace_subsample": 64.0,
    "checkpoints": 1,
    "migration_batch": 512,
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the name ``--workload`` takes.
        why: the one-line reason it is in the benchmark.
        benches: registry benchmarks it runs (two streams for the
            service workload).
        policy: page-migration policy.
        accesses: simulated accesses per run (per stream for the
            service workload).
        config: ``SimConfig`` fields beyond the seed.
        m5: ``M5Options`` fields (M5 policies only).
        enable_wac: attach a WAC to the CXL controller.
        serve: drive a ``repro serve`` ``Service`` over recorded v2
            traces instead of one ``Simulation``.
    """

    name: str
    why: str
    benches: Tuple[str, ...]
    policy: str
    accesses: int
    config: Dict[str, object] = field(default_factory=dict)
    m5: Dict[str, object] = field(default_factory=dict)
    enable_wac: bool = False
    serve: bool = False


#: Service workload knobs: per-round stream budget and checkpoint cadence.
SERVE_BUDGET = 65_536
SERVE_CHECKPOINT_EVERY = 4

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="m5-identify",
            why="mcf identification-only under HPT+HWT with WAC: the "
                "snoop path (digest, CM-Sketch trackers, PAC, WAC) "
                "dominates and nothing migrates",
            benches=("mcf",),
            policy="m5-hpt+hwt",
            accesses=4_000_000,
            config=_RATIO,
            enable_wac=True,
        ),
        Workload(
            name="damon-pr",
            why="pr under the CPU-driven DAMON baseline: policy time "
                "dominates, no trackers run, and the graph build makes "
                "set-up heavy",
            benches=("pr",),
            policy="damon",
            accesses=4_000_000,
            config=_END_TO_END,
        ),
        Workload(
            name="m5-async-redis",
            why="redis under M5 with transactional async migration: "
                "dirty-recheck aborts, and once DDR is full every "
                "promotion searches MGLRU for a victim",
            benches=("redis",),
            policy="m5-hpt",
            accesses=2_000_000,
            config={**_END_TO_END, "migration_mode": "async"},
            # The Elector's default dead band migrates in bursts whose
            # count depends on the seed (3.1k-5.2k promotions over 3M
            # accesses), and so would the host time; migrating every
            # period makes the churn, and the cost, the same for every
            # seed (about 7.8k promotions).
            m5={"improvement_epsilon": -1.0},
        ),
        Workload(
            name="serve-replay",
            why="two recorded v2 streams through the serve daemon: "
                "trace decode and checkpoint writes, no trace generation",
            benches=("mcf", "roms"),
            policy="m5-hpt",
            accesses=3_000_000,
            config={"chunk_size": SERVE_BUDGET},
            serve=True,
        ),
    )
}
