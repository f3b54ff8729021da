"""Design-choice ablations called out in DESIGN.md.

1. **Nominator mode** (§5.2 Guidelines 3/4): HPT-driven nomination
   should help dense/sparse-mixed apps (roms, liblinear); HWT-driven
   should be competitive on sparse-page apps (redis).
2. **fscale exponent** (Algorithm 1): the paper tries n in 3..6; the
   choice is secondary.
3. **CM-Sketch depth H** (§7.1: sweeping H in [2, 16] has "only a
   secondary effect").
4. **Query period** (§7.1: preciseness increases as the interval
   decreases).
"""

import numpy as np
import pytest

from repro.analysis import tracker_ratio
from repro.core.trackers import CmSketchTopK
from repro.sim import M5Options, Simulation, normalized
from repro.workloads import build

from common import emit_series, end_to_end_config, once


# ----------------------------------------------------------------------
# 1. Nominator modes

def run_nominator_ablation():
    out = {}
    for bench in ("roms", "redis", "liblinear"):
        base = Simulation(
            build(bench, seed=1), end_to_end_config(), policy="none"
        ).run()
        scores = {}
        for policy in ("m5-hpt", "m5-hwt", "m5-hpt+hwt"):
            result = Simulation(
                build(bench, seed=1), end_to_end_config(), policy=policy
            ).run()
            scores[policy] = normalized(base, result)
        out[bench] = scores
    return out


@pytest.fixture(scope="module")
def nominator_scores():
    return run_nominator_ablation()


def check_nominator_guidelines(scores):
    # Guideline 3: HPT-driven (dense-aware) competitive on roms/liblinear.
    for bench in ("roms", "liblinear"):
        assert scores[bench]["m5-hpt+hwt"] >= scores[bench]["m5-hwt"] - 0.05
    # Guideline 4: word-driven nomination competitive on sparse redis.
    assert scores["redis"]["m5-hwt"] >= scores["redis"]["m5-hpt"] * 0.80


def test_nominator_modes(benchmark, nominator_scores):
    scores = once(benchmark, lambda: nominator_scores)
    pairs = []
    for bench, s in scores.items():
        for policy, v in s.items():
            pairs.append((f"{bench}/{policy}", v))
    emit_series("ablation_nominator_modes",
                "Ablation — Nominator mode (normalised performance)", pairs)
    check_nominator_guidelines(scores)


# ----------------------------------------------------------------------
# 2. fscale exponent

def run_fscale_ablation():
    base = Simulation(
        build("roms", seed=1), end_to_end_config(), policy="none"
    ).run()
    scores = {}
    for n in (2.0, 4.0, 6.0):
        result = Simulation(
            build("roms", seed=1), end_to_end_config(), policy="m5-hpt",
            m5_options=M5Options(fscale_n=n),
        ).run()
        scores[n] = normalized(base, result)
    return scores


@pytest.fixture(scope="module")
def fscale_scores():
    return run_fscale_ablation()


def check_fscale_secondary(scores):
    values = list(scores.values())
    assert max(values) - min(values) < 0.35
    assert min(values) > 0.9


def test_fscale_exponent(benchmark, fscale_scores):
    scores = once(benchmark, lambda: fscale_scores)
    emit_series("ablation_fscale",
                "Ablation — Elector fscale exponent n (roms)",
                [(f"n={n}", v) for n, v in scores.items()])
    check_fscale_secondary(scores)


# ----------------------------------------------------------------------
# 3. CM-Sketch depth H

def run_depth_ablation():
    wl = build("roms", seed=2, pages_per_gb=4096)
    trace = wl.trace(600_000)
    pages = (trace >> np.uint64(12)).astype(np.int64)
    truth = {int(k): int(v) for k, v in zip(*np.unique(pages, return_counts=True))}
    scores = {}
    for depth in (2, 4, 8, 16):
        tracker = CmSketchTopK(5, num_counters=8192, depth=depth)
        identified, seen = [], set()
        for start in range(0, len(trace), 65_536):
            tracker.observe(trace[start : start + 65_536])
            for key, _ in tracker.query():
                if key not in seen:
                    seen.add(key)
                    identified.append(key)
        scores[depth] = tracker_ratio(truth, identified, k=len(identified))
    return scores


@pytest.fixture(scope="module")
def depth_scores():
    return run_depth_ablation()


def check_depth_secondary(scores):
    """§7.1: H in [2, 16] has only a secondary effect at fixed N."""
    values = list(scores.values())
    assert max(values) - min(values) < 0.2


def test_sketch_depth(benchmark, depth_scores):
    scores = once(benchmark, lambda: depth_scores)
    emit_series("ablation_sketch_depth",
                "Ablation — CM-Sketch depth H at N=8K (roms ratio)",
                [(f"H={d}", v) for d, v in scores.items()])
    check_depth_secondary(scores)


# ----------------------------------------------------------------------
# 4. query period

def run_query_period_ablation():
    """Per-window top-K recall at different query periods.

    Comparing accumulated ratios across periods confounds K (longer
    windows accumulate fewer identifications), so the clean measure is
    windowed: how much of each query window's true top-K access mass
    did the tracker capture?
    """
    wl = build("roms", seed=2, pages_per_gb=4096)
    trace = wl.trace(600_000)
    scores = {}
    for chunk in (16_384, 65_536, 262_144):
        tracker = CmSketchTopK(5, num_counters=32 * 1024)
        window_scores = []
        for start in range(0, len(trace), chunk):
            window = trace[start : start + chunk]
            pages = (window >> np.uint64(12)).astype(np.int64)
            truth = {
                int(k): int(v)
                for k, v in zip(*np.unique(pages, return_counts=True))
            }
            tracker.observe(window)
            picks = [key for key, _ in tracker.query()]
            window_scores.append(tracker_ratio(truth, picks, k=len(picks)))
        scores[chunk] = float(np.mean(window_scores))
    return scores


@pytest.fixture(scope="module")
def period_scores():
    return run_query_period_ablation()


def check_shorter_period_more_precise(scores):
    """§7.1: 'it increases the preciseness as the interval decreases'
    — shorter windows keep the sketch cleaner (fewer accumulated
    collisions per query)."""
    assert scores[16_384] >= scores[262_144] - 0.02


def test_query_period(benchmark, period_scores):
    scores = once(benchmark, lambda: period_scores)
    emit_series("ablation_query_period",
                "Ablation — tracker query period (accesses per query)",
                [(f"{c} acc", v) for c, v in scores.items()])
    check_shorter_period_more_precise(scores)
