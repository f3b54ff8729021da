"""Checkpoint/resume: kill a run at an arbitrary epoch, resume from
the last periodic snapshot, and demand bit-identity with a run that
was never interrupted — and never checkpointed at all.

The comparison excludes exactly one thing: the wall-clock stage-time
recorders (``WALL_CLOCK_FAMILIES``), which measure the host process,
not the simulation.
"""

import dataclasses
import os
import pickle
import random

import pytest

from repro.obs import Observability
from repro.sim import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    SimConfig,
    Simulation,
)
from repro.verify.differential import WALL_CLOCK_FAMILIES, _metric_mismatches
from repro.workloads import uniform_workload

MIGRATION_MODES = ("instant", "async")


def make_config(**kw):
    defaults = dict(
        total_accesses=200_000,
        chunk_size=20_000,
        ddr_pages=512,
        cxl_pages=4096,
        checkpoints=3,
        pages_per_gb=1024,
        seed=11,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def make_sim(cfg, seed=11, policy="m5-hpt"):
    return Simulation(
        uniform_workload(footprint_pages=2048, seed=seed),
        cfg,
        policy=policy,
        obs=Observability(metrics=True, tracing=False),
    )


def assert_bit_identical(a, b):
    """Every RunResult field equal; metrics equal modulo wall-clock."""
    da = dataclasses.asdict(a)
    db = dataclasses.asdict(b)
    ma, mb = da.pop("metrics"), db.pop("metrics")
    assert da == db
    assert _metric_mismatches(ma, mb) == 0


class TestKillAndResume:
    """The crash/resume suite: abort at a random epoch, resume from
    the last checkpoint, compare against the uninterrupted run."""

    EVERY = 3

    @pytest.mark.parametrize("mode", MIGRATION_MODES)
    def test_resume_after_kill_is_bit_identical(self, tmp_path, mode):
        baseline = make_sim(make_config(migration_mode=mode)).run()

        ckpt = str(tmp_path / f"{mode}.ckpt")
        cfg = make_config(
            migration_mode=mode,
            checkpoint_every=self.EVERY,
            checkpoint_path=ckpt,
        )
        sim = make_sim(cfg)
        st = sim._initial_state()
        # Abort somewhere past the first checkpoint but before the
        # end — seeded, so the "random" epoch is reproducible.
        kill_epoch = random.Random(mode).randrange(
            self.EVERY, cfg.num_epochs
        )
        for _ in range(kill_epoch):
            sim.step_epoch(st, sim.epoch_policy)
        del sim, st  # the kill: state vanishes, only the file survives

        resumed_sim = Simulation.load_state(ckpt)
        resumed_at = resumed_sim.resumed_epoch
        assert resumed_at is not None
        assert resumed_at == (kill_epoch // self.EVERY) * self.EVERY
        result = resumed_sim.run()
        assert_bit_identical(baseline, result)
        # The resume re-ran a real tail, or this test proves nothing.
        assert resumed_at < cfg.num_epochs

    def test_checkpointing_itself_is_invisible(self, tmp_path):
        """With no kill at all, a checkpointed run's results equal a
        checkpoint-free run's — persisting must not perturb the
        timeline, the metrics, or any result field."""
        plain = make_sim(make_config()).run()
        sim = make_sim(make_config(
            checkpoint_every=4,
            checkpoint_path=str(tmp_path / "c.ckpt"),
        ))
        checkpointed = sim.run()
        assert sim.checkpoints_written == sim.config.num_epochs // 4
        assert_bit_identical(plain, checkpointed)


class TestCheckpointMechanics:
    def test_save_rejects_tracing(self, tmp_path):
        sim = Simulation(
            uniform_workload(footprint_pages=256, seed=0),
            make_config(total_accesses=40_000),
            policy="none",
            obs=Observability(metrics=True),  # tracing defaults on
        )
        st = sim._initial_state()
        with pytest.raises(CheckpointError, match="tracing"):
            sim.save_state(tmp_path / "t.ckpt", st)

    def test_load_rejects_unknown_format(self, tmp_path):
        # Format 1 pickled an async engine that tallied outcomes per
        # transaction; this build folds them per tick.  Format 2 pickled
        # DAMON's regions as a list of Region records; this build holds
        # them in arrays.  Format 3 had no envelope ``kind``.
        for version in (CHECKPOINT_FORMAT_VERSION + 1, 1, 2, 3):
            path = tmp_path / f"v{version}.ckpt"
            with open(path, "wb") as fh:
                pickle.dump({"format": version, "sim": object()}, fh)
            with pytest.raises(CheckpointError, match=f"format {version} "):
                Simulation.load_state(path)

    def test_load_rejects_non_checkpoint_pickle(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        with open(path, "wb") as fh:
            pickle.dump(["not", "a", "checkpoint"], fh)
        with pytest.raises(CheckpointError):
            Simulation.load_state(path)

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        ckpt = tmp_path / "atomic.ckpt"
        sim = make_sim(make_config(total_accesses=40_000))
        st = sim._initial_state()
        sim.step_epoch(st, sim.epoch_policy)
        sim.save_state(ckpt, st)
        assert ckpt.exists()
        assert not (tmp_path / "atomic.ckpt.tmp").exists()
        # Overwriting is also atomic: the new snapshot replaces the
        # old in one rename.
        sim.step_epoch(st, sim.epoch_policy)
        sim.save_state(ckpt, st)
        assert Simulation.load_state(ckpt).resumed_epoch == 2

    def test_save_is_durable_fsyncs_before_publish(
        self, tmp_path, monkeypatch
    ):
        """The snapshot must hit the platter before ``os.replace``
        publishes it — a rename alone survives a process crash but
        not a power cut."""
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        sim = make_sim(make_config(total_accesses=40_000))
        st = sim._initial_state()
        sim.step_epoch(st, sim.epoch_policy)
        sim.save_state(tmp_path / "durable.ckpt", st)
        assert synced, "save_state published the snapshot without fsync"

    def test_instrumented_run_keeps_sim_clock_picklable(self):
        """The tracer's simulated-clock binding rides inside
        checkpoint pickles; a lambda closure there breaks every
        checkpoint taken after an instrumented run."""
        from repro.obs.tracing import SimClock

        sim = Simulation(
            uniform_workload(footprint_pages=256, seed=0),
            make_config(total_accesses=40_000),
            policy="none",
            obs=Observability(metrics=True),  # tracing defaults on
        )
        sim.run()
        clock = sim.obs.tracer.sim_clock
        assert isinstance(clock, SimClock)
        revived = pickle.loads(pickle.dumps(clock))
        assert revived() == clock()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(checkpoint_every=-1)
        with pytest.raises(ValueError):
            SimConfig(checkpoint_every=5)  # no checkpoint_path
        cfg = SimConfig(checkpoint_every=5, checkpoint_path="/tmp/x.ckpt")
        assert cfg.checkpoint_every == 5

    def test_wall_clock_exclusion_is_narrow(self):
        # The only families the bit-identity comparison may ignore
        # are the wall-clock recorders; this pins the list so a new
        # nondeterministic family cannot hide behind the exclusion.
        assert WALL_CLOCK_FAMILIES == frozenset({"pipeline_stage_seconds"})
