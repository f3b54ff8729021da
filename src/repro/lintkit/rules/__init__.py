"""Rule modules — importing this package registers every rule."""

from repro.lintkit.rules import (  # noqa: F401
    determinism,
    drift,
    perf,
    units,
)
