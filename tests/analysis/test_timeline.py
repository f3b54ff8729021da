"""Tests for the timeline pivot helpers, including migration.* events."""

import pytest

from repro.analysis.timeline import migration_outcomes, pivot


def epoch_event(epoch, **fields):
    e = {"stage": "epoch", "epoch": epoch, "t_s": float(epoch)}
    e.update(fields)
    return e


def mig_event(stage, epoch, **fields):
    e = {"stage": stage, "epoch": epoch, "t_s": float(epoch)}
    e.update(fields)
    return e


def async_timeline():
    """Two epochs of migration.* events as the async engine publishes them."""
    return [
        epoch_event(1, promoted=2, demoted=0),
        mig_event("migration.enqueue", 1, enqueued=10, dropped_full=1, pending=8),
        mig_event("migration.commit", 1, committed=5, promoted=4, demoted=1),
        mig_event("migration.abort", 1, aborted=3, dirty=1, injected=2, enomem=0),
        mig_event("migration.retry", 1, retried=3, dropped=0),
        epoch_event(2, promoted=0, demoted=1),
        mig_event("migration.enqueue", 2, enqueued=4, dropped_full=0, pending=3),
        mig_event("migration.commit", 2, committed=6, promoted=6, demoted=0),
        mig_event("migration.retry", 2, retried=0, dropped=2),
    ]


class TestPivot:
    def test_sum_accumulates_within_epoch(self):
        tl = [mig_event("s", 1, n=2), mig_event("s", 1, n=3),
              mig_event("s", 2, n=5)]
        frame = pivot(tl, (("n", "s", "n"),))
        assert frame == {"epoch": [1.0, 2.0], "n": [5.0, 5.0]}

    def test_last_keeps_final_value(self):
        tl = [mig_event("s", 1, depth=8), mig_event("s", 1, depth=3)]
        frame = pivot(tl, (("depth", "s", "depth", "last"),))
        assert frame["depth"] == [3.0]

    def test_absent_field_reads_zero(self):
        tl = [mig_event("a", 1, x=1), mig_event("b", 2, y=2)]
        frame = pivot(tl, (("x", "a", "x"), ("y", "b", "y")))
        assert frame["x"] == [1.0, 0.0]
        assert frame["y"] == [0.0, 2.0]

    def test_no_matching_stage_returns_empty(self):
        assert pivot([epoch_event(1, n=1)], (("n", "other", "n"),)) == {}

    def test_empty_timeline_returns_empty(self):
        assert pivot([], (("n", "s", "n"),)) == {}

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValueError):
            pivot([], (("n", "s", "n", "mean"),))

    def test_epochs_sorted_regardless_of_event_order(self):
        tl = [mig_event("s", 3, n=1), mig_event("s", 1, n=2)]
        frame = pivot(tl, (("n", "s", "n"),))
        assert frame["epoch"] == [1.0, 3.0]


class TestMigrationOutcomes:
    def test_instant_mode_empty(self):
        """No migration.* events (instant mode) -> empty dict."""
        assert migration_outcomes([epoch_event(1, promoted=2)]) == {}

    def test_columns_align_per_epoch(self):
        frame = migration_outcomes(async_timeline())
        assert frame["epoch"] == [1.0, 2.0]
        assert frame["committed"] == [5.0, 6.0]
        assert frame["aborted"] == [3.0, 0.0]
        assert frame["aborted_dirty"] == [1.0, 0.0]
        assert frame["aborted_injected"] == [2.0, 0.0]
        assert frame["retried"] == [3.0, 0.0]
        assert frame["dropped_retries"] == [0.0, 2.0]
        assert frame["pending"] == [8.0, 3.0]

    def test_missing_event_kind_fills_zero(self):
        """Epoch 2 published no abort event; its row must still align."""
        frame = migration_outcomes(async_timeline())
        n = len(frame["epoch"])
        assert all(len(col) == n for col in frame.values())

    def test_epochs_come_out_sorted(self):
        tl = list(reversed(async_timeline()))
        frame = migration_outcomes(tl)
        assert frame["epoch"] == [1.0, 2.0]
