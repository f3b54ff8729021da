"""Checkpoint/resume: kill a run at an arbitrary epoch, resume from
the last periodic snapshot, and demand bit-identity with a run that
was never interrupted — and never checkpointed at all.

The comparison excludes exactly one thing: the wall-clock stage-time
recorders (``WALL_CLOCK_FAMILIES``), which measure the host process,
not the simulation.
"""

import dataclasses
import json
import os
import pickle

import numpy as np
import pytest

from repro.obs import Observability
from repro.service import Service, ServiceConfig, StreamSpec
from repro.sim import (
    ALL_POLICIES,
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    JsonlSink,
    SimConfig,
    Simulation,
    TelemetryBus,
)
from repro.verify.differential import WALL_CLOCK_FAMILIES, _metric_mismatches
from repro.workloads import record, uniform_workload

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
    """The crash/resume suite: kill every policy in both migration
    modes mid-run, with observability off and with every checkpointable
    instrument on, resume from the last checkpoint, and compare against
    the uninterrupted run.

    Any object on the checkpointed graph that does not pickle (a lock,
    an open file, a lambda) fails here at the first ``save_state``, and
    any state a policy forgets to carry makes the resumed tail diverge.
    """

    EVERY = 3
    KILL_EPOCH = 7  # past the checkpoint at epoch 6, before the end (10)
    #: Rules that fire on every run, with values that depend on the
    #: watchdog's window of earlier epochs, so a resumed watchdog that
    #: lost its history or streaks would report different alerts.
    RULES = {"rules": [
        {"name": "epoch_tail", "series": "epoch_s",
         "reduce": "p99_over_p50", "op": ">", "threshold": 0.0,
         "window": 8, "for_epochs": 2},
        {"name": "cxl_mean", "series": "n_cxl", "reduce": "mean",
         "op": ">=", "threshold": 0.0, "window": 4},
    ]}

    @classmethod
    def build(cls, policy, mode, full_obs, timeline, **kw):
        obs_kw = {}
        if full_obs:
            rules = os.path.join(os.path.dirname(timeline), "rules.json")
            with open(rules, "w") as fh:
                json.dump(cls.RULES, fh)
            obs_kw = dict(check_invariants=True, slo_rules=rules)
        cfg = make_config(
            total_accesses=40_000, chunk_size=4_000, migration_mode=mode,
            **obs_kw, **kw,
        )
        return Simulation(
            uniform_workload(footprint_pages=2048, seed=11),
            cfg,
            policy=policy,
            obs=Observability(metrics=True, tracing=False) if full_obs else None,
            telemetry=TelemetryBus([JsonlSink(str(timeline))]) if full_obs else None,
        )

    @pytest.mark.parametrize("full_obs", (False, True), ids=("obs-off", "obs-full"))
    @pytest.mark.parametrize("mode", MIGRATION_MODES)
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_resume_after_kill_is_bit_identical(
        self, tmp_path, policy, mode, full_obs
    ):
        baseline_sim = self.build(policy, mode, full_obs, tmp_path / "base.jsonl")
        baseline = baseline_sim.run()
        baseline_sim.telemetry.close()

        ckpt = tmp_path / "run.ckpt"
        sim = self.build(policy, mode, full_obs, tmp_path / "run.jsonl",
                         checkpoint_every=self.EVERY, checkpoint_path=str(ckpt))
        st = sim._initial_state()
        for _ in range(self.KILL_EPOCH):
            sim.step_epoch(st, sim.epoch_policy)
        sim.telemetry.close()
        del sim, st  # the kill: state vanishes, only the file survives

        resumed_sim = Simulation.load_state(ckpt)
        assert resumed_sim.resumed_epoch == self.KILL_EPOCH // self.EVERY * self.EVERY
        assert (resumed_sim.watchdog is not None) is full_obs
        result = resumed_sim.run()
        resumed_sim.telemetry.close()
        assert_bit_identical(baseline, result)
        if full_obs:
            assert baseline_sim.watchdog.alerts
            assert resumed_sim.watchdog.alerts == baseline_sim.watchdog.alerts

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
        # them in arrays.  Format 3 had no envelope ``kind``.  Format 6
        # pickled the series recorder and its ``record`` stage.  Format
        # 7 pickled the ``checkpoint`` stage and the Promoter-drop
        # watermark.
        for version in (CHECKPOINT_FORMAT_VERSION + 1, 1, 2, 3, 6, 7):
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

    @pytest.mark.parametrize("kind", ("simulation", "service"))
    def test_publish_is_atomic_and_durable(self, tmp_path, monkeypatch, kind):
        """Every checkpoint is fsynced while the final path still holds
        the previous envelope (or nothing), then published by one
        ``os.replace`` from a sibling path: a crash at any instant
        leaves a whole envelope, and a power cut cannot publish an
        unsynced one."""
        ckpt_dir = tmp_path / "ckpt"
        final = ckpt_dir / ("service.ckpt" if kind == "service" else "run.ckpt")
        #: The final path's bytes after each publish (None: absent).
        published = [None]
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def checked_fsync(fd):
            calls.append("fsync")
            on_disk = final.read_bytes() if final.exists() else None
            assert on_disk == published[-1], "final path changed before the replace"
            return real_fsync(fd)

        def checked_replace(src, dst):
            calls.append("replace")
            src, dst = os.fspath(src), os.fspath(dst)
            assert dst == str(final)
            assert src != dst, "published the checkpoint onto itself"
            assert os.path.dirname(src) == os.path.dirname(dst)
            real_replace(src, dst)
            published.append(final.read_bytes())

        monkeypatch.setattr(os, "fsync", checked_fsync)
        monkeypatch.setattr(os, "replace", checked_replace)
        if kind == "simulation":
            ckpt_dir.mkdir()
            make_sim(make_config(
                total_accesses=40_000, checkpoint_every=1,
                checkpoint_path=str(final),
            )).run()
        else:
            trace = record(uniform_workload(footprint_pages=256, seed=6),
                           2 * 4096, tmp_path / "s.rtrace", chunk_size=4096)
            cfg = ServiceConfig(checkpoint_every=1, checkpoint_dir=str(ckpt_dir),
                                max_rounds=2)
            with Service([StreamSpec("s", str(trace))],
                         make_config(chunk_size=4096), cfg) as svc:
                svc.run()
        assert calls == ["fsync", "replace"] * 2
        assert sorted(p.name for p in ckpt_dir.iterdir()) == [final.name]

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


class TestDamonCheckpointFromBeforeTheProbabilityTable:
    """``tests/data/damon_format8.ckpt`` is a DAMON checkpoint written
    by this recipe::

        sim = Simulation(uniform_workload(footprint_pages=512, seed=11),
                         SimConfig(**CONFIG), policy="damon")
        st = sim._initial_state()
        for _ in range(3):
            sim.step_epoch(st, sim.epoch_policy)
        sim.save_state(path, st)

    Its format-6 predecessor came from the build before DAMON read its
    bit probabilities from a per-page table and the TLB deduplicated
    without ``np.unique`` (commit 2149dd0); both changes kept the
    pickled state.  Formats 7 and 8 were regenerated from the recipe.
    A later change to DAMON's state must still load this file and
    resume to the uninterrupted run.  A format bump retires the file;
    regenerate it from the recipe.
    """

    FIXTURE = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                           "damon_format8.ckpt")
    CONFIG = dict(total_accesses=24_000, chunk_size=3_000, ddr_pages=128,
                  cxl_pages=1024, checkpoints=3, pages_per_gb=1024, seed=11)

    def build(self):
        return Simulation(uniform_workload(footprint_pages=512, seed=11),
                          SimConfig(**self.CONFIG), policy="damon")

    def test_resumes_to_the_uninterrupted_summary(self):
        resumed = Simulation.load_state(self.FIXTURE)
        assert resumed.resumed_epoch == 3
        assert_bit_identical(self.build().run(), resumed.run())

    def test_pickled_state_is_unchanged(self):
        loaded = Simulation.load_state(self.FIXTURE).epoch_policy
        sim = self.build()
        st = sim._initial_state()
        for _ in range(3):
            sim.step_epoch(st, sim.epoch_policy)
        fresh = sim.epoch_policy
        for old, new in ((loaded, fresh), (loaded.page_table, fresh.page_table),
                         (loaded.page_table.tlb, fresh.page_table.tlb)):
            assert vars(old).keys() == vars(new).keys()
            for name, value in vars(old).items():
                other = getattr(new, name)
                if isinstance(value, np.ndarray):
                    assert value.dtype == other.dtype, name
                    assert np.array_equal(value, other), name
                elif isinstance(value, np.random.Generator):
                    assert (value.bit_generator.state
                            == other.bit_generator.state), name
                elif isinstance(value, (int, float, str, list)):
                    assert value == other, name
