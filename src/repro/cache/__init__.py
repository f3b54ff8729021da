"""LLC model used to cache-filter address traces before they reach
the (simulated) DRAM and the CXL controller's trackers."""

from repro.cache.cache import SetAssociativeCache

__all__ = ["SetAssociativeCache"]
