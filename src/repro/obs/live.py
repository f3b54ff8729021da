"""The live observability service: an in-process HTTP exporter.

:class:`ObsServer` serves a running simulation's metrics over HTTP —
a stdlib ``http.server`` on a daemon thread, no dependencies — so a
long-running ``repro run``/``fleet`` can be scraped, dashboarded, and
health-checked *while it executes* instead of only dumping a snapshot
at exit.  Endpoints:

* ``/metrics`` — the Prometheus text exposition of a fresh registry
  snapshot (:func:`~repro.obs.exporters.to_prometheus`);
* ``/snapshot.json`` — the same snapshot as JSON (byte-identical in
  content to ``repro run --metrics out.json``);
* ``/healthz`` — liveness JSON: status, uptime-free scrape counts per
  endpoint (the server keeps its *own* request counters out of the
  run's registry on purpose, so the final live scrape stays exactly
  equal to the end-of-run snapshot).

Thread-safety: the simulation mutates its registry on the engine
thread while the server snapshots it on the handler thread.  All
engine mutations are single ``float`` writes (torn reads are stale,
never corrupt) except *registering a new series*, which can make the
snapshot's dict iteration raise ``RuntimeError`` — the server retries
the snapshot a few times rather than taxing the engine's hot path
with a lock; counters are monotonic, so a scrape is always ≤ any
later scrape series-for-series.

Shutdown: :meth:`close` stops the listener, joins the thread, and
closes the socket; the context-manager protocol guarantees this even
when the surrounded run raises (the CLI enters the server *after*
the telemetry bus, so teardown order is server first, then sinks).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Callable, Dict, Optional, Union

from repro.obs.exporters import to_prometheus
from repro.obs.metrics import MetricsRegistry

SnapshotFn = Callable[[], Dict[str, object]]

#: Errors meaning "the scraper's socket died under us" — a client
#: disconnect is normal churn for a long-running service, never a
#: server failure.  The handler must not try to answer on such a
#: socket (the reply itself would raise out of the handler thread).
_DISCONNECT_ERRORS = (BrokenPipeError, ConnectionResetError,
                      ConnectionAbortedError)


class _ObsHandler(BaseHTTPRequestHandler):
    """Routes one request; all state lives on ``server.obs_server``."""

    server_version = "ReproObs/1"

    def log_message(self, format: str, *args: object) -> None:
        """Silence the default stderr request log."""

    def _respond(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        obs_server: "ObsServer" = self.server.obs_server  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                body = to_prometheus(obs_server.snapshot()).encode()
                obs_server.count_scrape(path)
                self._respond(200, "text/plain; version=0.0.4", body)
            elif path == "/snapshot.json":
                body = json.dumps(obs_server.snapshot()).encode()
                obs_server.count_scrape(path)
                self._respond(200, "application/json", body)
            elif path == "/healthz":
                payload = {
                    "status": "ok",
                    "scrapes": obs_server.scrapes,
                    "disconnects": obs_server.disconnects,
                }
                obs_server.count_scrape(path)
                self._respond(200, "application/json",
                              json.dumps(payload).encode())
            else:
                self._respond(404, "text/plain",
                              f"unknown path {path!r}\n".encode())
        except _DISCONNECT_ERRORS:
            # The scraper hung up mid-response.  The socket is dead:
            # attempting the 500 reply below would just raise again
            # and leak a traceback out of the handler thread.  Count
            # it and move on; the server keeps serving.
            obs_server.count_disconnect()
            self.close_connection = True
        except Exception as exc:  # noqa: BLE001 - surface to the scraper
            try:
                self._respond(500, "text/plain",
                              f"snapshot failed: {exc}\n".encode())
            except _DISCONNECT_ERRORS:
                obs_server.count_disconnect()
                self.close_connection = True


class ObsServer:
    """Serve a metrics source over HTTP from a daemon thread.

    Args:
        source: a :class:`MetricsRegistry` (snapshotted per request)
            or a zero-argument callable returning a snapshot dict (the
            fleet passes its merged-registry builder here).
        host: bind address; loopback by default — the service is an
            inspection port, not a public listener.
        port: TCP port, 0-65535 (``ValueError`` otherwise); 0 (the
            default) binds an ephemeral port, published as
            :attr:`port` / :attr:`url` after :meth:`start`.
        snapshot_tries: retries when a snapshot races a series
            registration on the engine thread.
    """

    def __init__(
        self,
        source: Union[MetricsRegistry, SnapshotFn],
        host: str = "127.0.0.1",
        port: int = 0,
        snapshot_tries: int = 8,
    ) -> None:
        if isinstance(source, MetricsRegistry):
            self._snapshot_fn: SnapshotFn = source.snapshot
        else:
            self._snapshot_fn = source
        if not 0 <= int(port) <= 65535:
            raise ValueError(f"port must be a TCP port (0-65535), got {port}")
        self.host = host
        self._requested_port = int(port)
        self.snapshot_tries = int(snapshot_tries)
        #: Served requests per endpoint path.
        self.scrapes: Dict[str, int] = {}
        #: Scrapers that hung up mid-response (normal churn for a
        #: long-running service; counted, never raised).
        self.disconnects = 0
        self._httpd: Optional[HTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A registry snapshot, retried across registration races."""
        last: Optional[RuntimeError] = None
        for _ in range(max(1, self.snapshot_tries)):
            try:
                return self._snapshot_fn()
            except RuntimeError as exc:
                # "dictionary changed size during iteration": the
                # engine registered a series mid-snapshot; retry.
                last = exc
        raise last  # pragma: no cover - needs snapshot_tries races

    def count_scrape(self, path: str) -> None:
        self.scrapes[path] = self.scrapes.get(path, 0) + 1

    def count_disconnect(self) -> None:
        self.disconnects += 1

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ephemeral requests)."""
        if self._httpd is None:
            return self._requested_port
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------

    def start(self) -> "ObsServer":
        """Bind and serve from a daemon thread; returns self."""
        if self._httpd is not None:
            return self
        self._httpd = HTTPServer((self.host, self._requested_port),
                                 _ObsHandler)
        self._httpd.obs_server = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-obs-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self, timeout_s: float = 5.0) -> None:
        """Stop serving, join the thread, release the socket.

        Idempotent; safe to call on a server that never started.
        """
        if self._httpd is None:
            return
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
        self._httpd.server_close()
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()
