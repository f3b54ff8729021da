"""Tests for the timeline column helpers over async ``epoch`` records."""

from repro.analysis.timeline import migration_outcomes


def epoch_event(epoch, **fields):
    e = {"stage": "epoch", "epoch": epoch, "t_s": float(epoch)}
    e.update(fields)
    return e


def async_record(epoch, **fields):
    """An async ``epoch`` record: the queue fields default to 0."""
    record = dict(
        promoted=0, demoted=0, mig_enqueued=0, mig_dropped_queue_full=0,
        mig_aborted_dirty=0, mig_aborted_injected=0, mig_aborted_enomem=0,
        mig_retries=0, mig_dropped_retries=0, migration_pending=0,
    )
    record.update(fields)
    return epoch_event(epoch, **record)


def async_timeline():
    """Two async epochs and an SLO alert, as the engine publishes."""
    return [
        async_record(1, promoted=4, demoted=1, mig_enqueued=10,
                     mig_dropped_queue_full=1, mig_aborted_dirty=1,
                     mig_aborted_injected=2, mig_retries=3,
                     migration_pending=8),
        {"stage": "alert.queue_saturation", "epoch": 1, "t_s": 1.0,
         "value": 8.0, "threshold": 6.0, "streak": 2},
        async_record(2, promoted=6, mig_enqueued=4, mig_dropped_retries=2,
                     migration_pending=3),
    ]


class TestMigrationOutcomes:
    def test_instant_mode_empty(self):
        """Instant records carry no queue fields -> empty dict."""
        assert migration_outcomes([epoch_event(1, promoted=2)]) == {}

    def test_columns_align_per_epoch(self):
        frame = migration_outcomes(async_timeline())
        assert frame["epoch"] == [1.0, 2.0]
        assert frame["promoted"] == [4.0, 6.0]
        assert frame["demoted"] == [1.0, 0.0]
        assert frame["mig_enqueued"] == [10.0, 4.0]
        assert frame["mig_dropped_queue_full"] == [1.0, 0.0]
        assert frame["mig_aborted_dirty"] == [1.0, 0.0]
        assert frame["mig_aborted_injected"] == [2.0, 0.0]
        assert frame["mig_aborted_enomem"] == [0.0, 0.0]
        assert frame["mig_retries"] == [3.0, 0.0]
        assert frame["mig_dropped_retries"] == [0.0, 2.0]
        assert frame["migration_pending"] == [8.0, 3.0]

    def test_quiet_epoch_keeps_its_row(self):
        """An epoch with no queue activity is a row of zeros, not a gap."""
        tl = async_timeline() + [async_record(3)]
        frame = migration_outcomes(tl)
        assert frame["epoch"] == [1.0, 2.0, 3.0]
        assert all(len(col) == 3 for col in frame.values())
        assert [frame[c][2] for c in frame if c != "epoch"] == [0.0] * 10

    def test_only_epoch_records_are_read(self):
        frame = migration_outcomes(async_timeline())
        assert "value" not in frame
        assert len(frame["epoch"]) == 2
