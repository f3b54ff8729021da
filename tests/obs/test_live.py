"""Tests for the in-process HTTP metrics exporter."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import Observability
from repro.obs.exporters import parse_prometheus, to_prometheus
from repro.obs.live import ObsServer
from repro.obs.metrics import MetricsRegistry
from repro.sim import JsonlSink, SimConfig, Simulation, TelemetryBus
from repro.workloads import uniform_workload


def make_registry():
    reg = MetricsRegistry()
    reg.counter("reqs_total", "Requests", labels=("code",)).labels(
        code="200"
    ).inc(7)
    reg.gauge("depth", "Queue depth").set(3.5)
    hist = reg.histogram("lat_seconds", "Latency", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(5.0)
    return reg


def get(url):
    return urllib.request.urlopen(url, timeout=5).read()


class TestEndpoints:
    def test_metrics_endpoint_matches_exporter(self):
        reg = make_registry()
        with ObsServer(reg) as server:
            body = get(server.url + "/metrics").decode()
        assert body == to_prometheus(reg.snapshot())
        flat = parse_prometheus(body)
        assert flat['reqs_total{code="200"}'] == 7.0
        assert flat["depth"] == 3.5

    def test_snapshot_endpoint_equals_registry_snapshot(self):
        reg = make_registry()
        with ObsServer(reg) as server:
            snap = json.loads(get(server.url + "/snapshot.json"))
        assert snap == reg.snapshot()

    def test_healthz_counts_scrapes_out_of_band(self):
        reg = make_registry()
        with ObsServer(reg) as server:
            get(server.url + "/metrics")
            get(server.url + "/metrics")
            health = json.loads(get(server.url + "/healthz"))
            # a scraped server must not perturb the run's registry
            assert reg.snapshot() == make_registry().snapshot()
        assert health["status"] == "ok"
        assert health["scrapes"]["/metrics"] == 2

    def test_unknown_path_is_404(self):
        with ObsServer(make_registry()) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                get(server.url + "/nope")
        assert err.value.code == 404

    def test_callable_source(self):
        calls = []

        def source():
            calls.append(1)
            return {"metrics": [], "fresh": len(calls)}

        with ObsServer(source) as server:
            first = json.loads(get(server.url + "/snapshot.json"))
            second = json.loads(get(server.url + "/snapshot.json"))
        assert first["fresh"] == 1 and second["fresh"] == 2

    def test_snapshot_retries_registration_races(self):
        attempts = []

        def racy():
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("dictionary changed size during iteration")
            return {"metrics": []}

        server = ObsServer(racy, snapshot_tries=8)
        assert server.snapshot() == {"metrics": []}
        assert len(attempts) == 3

    def test_failing_source_returns_500(self):
        def broken():
            raise ValueError("boom")

        with ObsServer(broken) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                get(server.url + "/metrics")
        assert err.value.code == 500


class TestScraperDisconnect:
    """Regression: a scraper hanging up mid-response killed the
    handler thread with an unhandled ``BrokenPipeError``/
    ``ConnectionResetError`` traceback.  A client disconnect is normal
    churn for a long-running service — the server must swallow it,
    count it, and keep serving."""

    @staticmethod
    def big_source():
        # A multi-megabyte exposition guarantees the response cannot
        # fit in the kernel socket buffers, so the handler is still
        # mid-write when the scraper's reset lands.
        reg = MetricsRegistry()
        fam = reg.counter("wide_total", "Many series", labels=("k",))
        for i in range(4000):
            fam.labels(k=f"series-{i:04d}-" + "x" * 500).inc(i)
        return reg

    @staticmethod
    def abort_scrape(host, port, path="/metrics"):
        """Start a scrape, then slam the connection shut (RST)."""
        import socket
        import struct

        sock = socket.create_connection((host, port), timeout=5)
        try:
            # Tiny receive window + linger-0 close: the server blocks
            # writing the body, then gets a hard reset.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.sendall(
                f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
        finally:
            sock.close()

    def wait_for(self, predicate, timeout_s=10.0):
        import time

        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.02)
        return predicate()

    def test_server_survives_early_disconnect(self):
        with ObsServer(self.big_source()) as server:
            self.abort_scrape(server.host, server.port)
            assert self.wait_for(lambda: server.disconnects >= 1), \
                "handler never registered the scraper disconnect"
            # The server must still answer the next scraper.
            health = json.loads(get(server.url + "/healthz"))
            assert server.running
        assert health["status"] == "ok"
        assert health["disconnects"] >= 1

    def test_disconnects_survive_repeated_abuse(self):
        with ObsServer(self.big_source()) as server:
            for _ in range(3):
                self.abort_scrape(server.host, server.port)
            assert self.wait_for(lambda: server.disconnects >= 3)
            body = get(server.url + "/metrics")
            assert b"wide_total" in body
            assert server.running


class TestLifecycle:
    def test_ephemeral_port_is_published(self):
        server = ObsServer(make_registry())
        try:
            server.start()
            assert server.port > 0
            assert str(server.port) in server.url
            assert server.running
        finally:
            server.close()
        assert not server.running

    def test_close_is_idempotent_and_safe_unstarted(self):
        server = ObsServer(make_registry())
        server.close()  # never started
        server.start()
        server.close()
        server.close()  # double close
        assert not server.running

    def test_port_is_released_on_close(self):
        first = ObsServer(make_registry())
        first.start()
        port = first.port
        first.close()
        second = ObsServer(make_registry(), port=port)
        with second:
            assert second.port == port

    @pytest.mark.parametrize("port", [-1, 65536, 70000])
    def test_rejects_out_of_range_port(self, port):
        with pytest.raises(ValueError, match="0-65535"):
            ObsServer(make_registry(), port=port)

    def test_context_manager_closes_on_exception(self):
        server = ObsServer(make_registry())
        with pytest.raises(RuntimeError):
            with server:
                assert server.running
                raise RuntimeError("mid-run failure")
        assert not server.running


class TestLiveRun:
    """The server scraped concurrently with a real simulation."""

    def run_config(self):
        return SimConfig(
            total_accesses=120_000,
            chunk_size=30_000,
            ddr_pages=512,
            cxl_pages=4096,
            pages_per_gb=1024,
        )

    def test_final_scrape_equals_end_of_run_snapshot(self):
        obs = Observability(metrics=True, tracing=False)
        sim = Simulation(
            uniform_workload(footprint_pages=1024, seed=0),
            self.run_config(),
            policy="m5-hpt",
            obs=obs,
        )
        with ObsServer(obs.registry) as server:
            sim.run()
            scraped = json.loads(get(server.url + "/snapshot.json"))
            text = get(server.url + "/metrics").decode()
        assert scraped == obs.snapshot()
        assert parse_prometheus(text) == parse_prometheus(
            to_prometheus(obs.snapshot())
        )

    def test_serving_does_not_perturb_the_run(self):
        def run(with_server):
            obs = Observability(metrics=True, tracing=False)
            sim = Simulation(
                uniform_workload(footprint_pages=1024, seed=0),
                self.run_config(),
                policy="m5-hpt",
                obs=obs,
            )
            if with_server:
                with ObsServer(obs.registry):
                    return sim.run()
            return sim.run()

        plain, served = run(False), run(True)
        assert served.execution_time_s == plain.execution_time_s
        assert served.promoted == plain.promoted
        assert served.demoted == plain.demoted

    def test_shutdown_ordering_on_mid_run_exception(self, tmp_path):
        """Server must close and the bus must flush even when the
        surrounded run raises — the regression the ExitStack LIFO
        ordering in the CLI exists to prevent."""
        timeline = str(tmp_path / "timeline.jsonl")
        sink = JsonlSink(timeline)
        bus = TelemetryBus([sink])
        server = ObsServer(make_registry())
        with pytest.raises(RuntimeError):
            with bus:
                with server:
                    bus.publish("epoch.end", 1, 0.5, depth=2.0)
                    assert server.running
                    raise RuntimeError("simulated engine crash")
        assert not server.running
        assert sink._fh is None  # sink closed → events flushed to disk
        events = [json.loads(ln) for ln in open(timeline) if ln.strip()]
        assert events and events[0]["stage"] == "epoch.end"
