"""Rule modules — importing this package registers every rule."""

from repro.lintkit.rules import (  # noqa: F401
    crashsafe,
    determinism,
    drift,
    perf,
    pickle_safety,
    units,
)
