"""Streaming service mode: ``repro serve`` (see ``docs/service.md``).

Multiplexes N concurrent trace streams onto the epoch engine with
per-stream budgets and policies, bounded-buffer ingest backpressure,
live per-stream metrics, and periodic whole-service checkpoints that
resume bit-identically after a kill.
"""

from repro.service.daemon import (
    Service,
    ServiceConfig,
    ServiceStream,
    StreamSpec,
)
from repro.service.streams import StreamEmpty, StreamWorkload

__all__ = [
    "Service",
    "ServiceConfig",
    "ServiceStream",
    "StreamSpec",
    "StreamEmpty",
    "StreamWorkload",
]
