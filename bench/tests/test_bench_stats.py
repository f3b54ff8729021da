"""The percentile rule, calibration arithmetic and spreads."""

from __future__ import annotations

import statistics

import pytest

from conftest import load

stats = load("stats")


def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(1, 11)]
    assert stats.percentile(values, 50) == pytest.approx(5.5)
    assert stats.percentile(values, 90) == pytest.approx(9.1)
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 10.0
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.percentile(list(reversed(values)), 90) == pytest.approx(9.1)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (10_000, 99.9),
])
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.highest_percentile(n) == expected


def test_calibration_scales_each_step_by_its_bracketing_probes():
    ref = 0.003
    # The host runs at reference speed around step 0 and at half speed
    # (probes take twice as long) around step 1.
    steps = [1.0, 4.0]
    probes = [0.003, 0.003, 0.009]
    assert stats.calibrate_steps(steps, probes, ref) == pytest.approx([1.0, 2.0])


def test_calibration_of_a_uniformly_slow_host_is_exact():
    steps = [0.02, 0.05, 0.01]
    slow = [0.006] * 4
    assert sum(stats.calibrate_steps(steps, slow, 0.003)) == pytest.approx(0.04)


def test_calibration_needs_one_probe_around_each_step():
    with pytest.raises(ValueError):
        stats.calibrate_steps([1.0, 2.0], [0.003, 0.003], 0.003)
    with pytest.raises(ValueError):
        stats.calibrate_steps([1.0], [0.003, 0.0], 0.003)


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 30.0, 10.5, 11.5, 12.5, 9.5]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, med, q3)
    assert med == statistics.median(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / med)
    assert stats.quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_step_profile_takes_each_steps_median_over_clean_runs():
    runs = [[1.0, 2.0, 9.0], [1.2, 2.2, 3.0], [1.1, 5.0, 3.2]]
    clean = [[True, True, False], [True, True, True], [True, False, True]]
    # Step 2 ignores the loaded run's 9.0; step 1 the loaded run's 5.0.
    assert stats.step_profile(runs, clean) == pytest.approx([1.1, 2.1, 3.1])
    # A step no run measured cleanly falls back to every run.
    none = [[True, True, False]] * 3
    assert stats.step_profile(runs, none)[2] == pytest.approx(3.2)


def test_bracket_means_pair_the_probes_around_each_step():
    assert stats.bracket_means([1.0, 3.0, 5.0]) == [2.0, 4.0]
