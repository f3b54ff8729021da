"""Engine integration: observability must measure, never perturb."""

import pickle
import types

from repro.obs import Observability
from repro.obs.tracing import TimedStage
from repro.obs.exporters import parse_prometheus, to_prometheus
from repro.sim import SimConfig, Simulation
from repro.sim.sweep import run_one
from repro.workloads import uniform_workload


def small_config(**kw):
    defaults = dict(
        total_accesses=120_000,
        chunk_size=30_000,
        ddr_pages=512,
        cxl_pages=4096,
        checkpoints=3,
        pages_per_gb=1024,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def run(policy="m5-hpt", obs=None, **cfg):
    sim = Simulation(
        uniform_workload(footprint_pages=1024, seed=0),
        small_config(**cfg),
        policy=policy,
        obs=obs,
    )
    return sim.run()


class TestEquivalence:
    def test_instrumented_run_is_bit_identical(self):
        plain = run()
        instrumented = run(obs=Observability(metrics=True, tracing=True))
        assert instrumented.execution_time_s == plain.execution_time_s
        assert instrumented.app_time_s == plain.app_time_s
        assert instrumented.promoted == plain.promoted
        assert instrumented.demoted == plain.demoted
        assert instrumented.nr_pages_ddr == plain.nr_pages_ddr
        assert instrumented.ratio_checkpoints == plain.ratio_checkpoints

    def test_async_mode_also_identical(self):
        plain = run(migration_mode="async")
        instrumented = run(
            migration_mode="async",
            obs=Observability(metrics=True, tracing=True),
        )
        assert instrumented.execution_time_s == plain.execution_time_s
        assert instrumented.extra == plain.extra


class TestStageTable:
    @staticmethod
    def sim(obs=None, **cfg):
        return Simulation(
            uniform_workload(footprint_pages=1024, seed=0),
            small_config(**cfg),
            policy="m5-hpt",
            obs=obs,
        )

    def test_observability_off_runs_the_bare_bound_methods(self):
        sim = self.sim(check_invariants=True)
        assert [name for name, _ in sim.stage_table] == [
            "trace", "translate", "snoop", "policy", "migrate", "perf",
            "verify",
        ]
        assert len(sim.stages) == len(sim.stage_table)
        for (name, fn), stage in zip(sim.stage_table, sim.stages):
            assert stage is fn, name
            assert isinstance(stage, types.MethodType) and stage.__self__ is sim
            assert stage.__func__ is getattr(Simulation, f"_stage_{name}")

    def test_observability_on_wraps_every_stage_once(self):
        sim = self.sim(obs=Observability(metrics=True, tracing=False))
        for (name, fn), stage in zip(sim.stage_table, sim.stages):
            assert isinstance(stage, TimedStage)
            assert stage.fn == fn and stage.span_name == f"stage.{name}"
        # The wrappers ride inside checkpoint pickles.
        revived = pickle.loads(pickle.dumps(sim))
        assert [s.span_name for s in revived.stages] == [
            s.span_name for s in sim.stages
        ]

    def test_inserted_stage_is_timed_like_the_others(self):
        calls = []
        sim = self.sim(obs=Observability(metrics=True, tracing=False))
        sim.insert_stage("extra", lambda policy, st: calls.append(st.epoch),
                         after="migrate")
        names = [name for name, _ in sim.stage_table]
        assert names[names.index("migrate") + 1] == "extra"
        sim.run()
        epochs = small_config().num_epochs
        assert calls == list(range(1, epochs + 1))
        hist = sim.obs.registry.get("pipeline_stage_seconds")
        assert hist.labels(stage="extra").count == epochs


class TestEngineMetrics:
    def test_snapshot_attached_and_consistent(self):
        obs = Observability(metrics=True, tracing=False)
        result = run(obs=obs)
        assert result.metrics
        flat = parse_prometheus(to_prometheus(result.metrics))
        assert flat["sim_epochs_total"] == small_config().num_epochs
        assert flat["sim_migrated_pages_total{direction=\"promote\"}"] == (
            float(result.promoted)
        )
        assert flat["tier_resident_pages{tier=\"ddr\"}"] == (
            float(result.nr_pages_ddr)
        )
        assert flat["tier_resident_pages{tier=\"cxl\"}"] == (
            float(result.nr_pages_cxl)
        )
        # accesses split by tier covers the whole run
        total = (flat["sim_accesses_total{tier=\"ddr\"}"]
                 + flat["sim_accesses_total{tier=\"cxl\"}"])
        assert total == float(small_config().total_accesses)

    def test_stage_histogram_counts_every_epoch(self):
        obs = Observability(metrics=True, tracing=False)
        run(obs=obs)
        fam = obs.registry.get("pipeline_stage_seconds")
        epochs = small_config().num_epochs
        for labels, hist in fam.series():
            assert hist.count == epochs, labels

    def test_async_outcome_counters_match_extra(self):
        obs = Observability(metrics=True, tracing=False)
        result = run(migration_mode="async", obs=obs)
        flat = parse_prometheus(to_prometheus(result.metrics))
        assert flat.get("migration_outcomes_total{outcome=\"committed\"}",
                        0.0) == result.extra.get("mig_committed", 0.0)

    def test_disabled_obs_attaches_nothing(self):
        result = run()
        assert result.metrics == {}


class TestEngineTracing:
    def test_stage_spans_cover_the_run(self):
        obs = Observability(metrics=False, tracing=True)
        run(obs=obs)
        names = {r.name for r in obs.tracer.spans}
        assert names >= {
            "run", "stage.trace", "stage.translate", "stage.snoop",
            "stage.policy", "stage.migrate", "stage.perf",
        }
        assert obs.tracer.coverage() >= 0.95

    def test_async_tick_nests_under_migrate(self):
        obs = Observability(metrics=False, tracing=True)
        run(migration_mode="async", obs=obs)
        ticks = [r for r in obs.tracer.spans if r.name == "migrate.tick"]
        assert ticks and all(r.depth == 2 for r in ticks)
        migrate = next(
            r for r in obs.tracer.spans
            if r.name == "stage.migrate" and r.epoch == ticks[0].epoch
        )
        assert migrate.child_wall_s > 0.0

    def test_tracing_leaves_the_timeline_alone(self):
        # 640 epochs of 7+ spans each would overflow the 4,096-event
        # ring if spans shared it with the epoch records.
        cfg = dict(total_accesses=640 * 256, chunk_size=256)
        plain = run(**cfg)
        traced = run(obs=Observability(metrics=False, tracing=True), **cfg)
        assert plain.timeline_dropped == 0
        assert traced.timeline_dropped == plain.timeline_dropped
        assert traced.timeline == plain.timeline

    def test_stage_histogram_equals_the_spans(self):
        obs = Observability(metrics=True, tracing=True)
        run(migration_mode="async", obs=obs)
        hist = obs.registry.get("pipeline_stage_seconds")
        for labels, series in hist.series():
            durs = [r.dur_wall_s for r in obs.tracer.spans
                    if r.name == f"stage.{labels['stage']}"]
            assert series.count == len(durs) > 0, labels
            assert series.sum == sum(durs), labels


class TestSweepMetrics:
    def test_run_one_with_metrics_flag(self):
        result = run_one(
            "mcf", "m5-hpt", small_config(),
            seed=1, pages_per_gb=1024, with_metrics=True,
        )
        assert result.metrics
        names = {m["name"] for m in result.metrics["metrics"]}
        assert "sim_epochs_total" in names

    def test_run_one_default_is_uninstrumented(self):
        result = run_one(
            "mcf", "m5-hpt", small_config(), seed=1, pages_per_gb=1024
        )
        assert result.metrics == {}
