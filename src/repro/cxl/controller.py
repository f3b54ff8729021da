"""CXL device controller model.

Models the request path of the FPGA CXL controller of Figure 1: host
requests enter through the CXL IP (PHY → link → transaction layer) and
flow to the memory controllers.  Between those two stages sits the
user-defined AFU region where PAC, WAC, HPT, and HWT snoop every
address.  The model also carries the device's latency contribution so
the performance model can charge CXL accesses correctly.

Any object exposing ``observe(addresses)`` can be attached as a snoop
(the shared interface of PAC/WAC and the M5 trackers).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Protocol

import numpy as np

from repro.cxl.batch import AccessBatch
from repro.memory.address import AddressRegion
from repro.memory.tiers import CXL_LATENCY_NS

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry

#: Extra load-to-use latency of CXL DRAM vs DDR DRAM reported for the
#: paper's testbed class of devices (140–170ns, §1); combined with a
#: ~100ns DDR baseline this yields the 270ns figure used in the
#: paper's §7.2 break-even arithmetic.
CXL_EXTRA_LATENCY_NS = 170.0


class AddressSnoop(Protocol):
    """Anything that can watch the host→MC address stream."""

    def observe(self, addresses: np.ndarray) -> None: ...


class CxlController:
    """A CXL Type-2/3 device: memory expander plus AFU snoop hooks.

    Args:
        region: the device (HDM) physical-address region this
            controller serves.
        access_latency_ns: full load-to-use latency of device DRAM as
            seen by the host CPU.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when given, the controller registers request/drop counters
            and an attached-AFU gauge (no-op when the registry is
            disabled).
    """

    def __init__(
        self,
        region: AddressRegion,
        access_latency_ns: float = CXL_LATENCY_NS,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.region = region
        self.access_latency_ns = float(access_latency_ns)
        self._snoops: List[AddressSnoop] = []
        self.requests_served = 0
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry(enabled=False)
        self._m_requests = metrics.counter(
            "cxl_requests_total", "Host requests served by the CXL device"
        )
        self._m_out_of_region = metrics.counter(
            "cxl_out_of_region_total",
            "Requests dropped because they target another node",
        )
        self._m_snoops = metrics.gauge(
            "cxl_attached_snoops", "AFU snoop functions on the request path"
        )

    def attach(self, snoop: AddressSnoop) -> None:
        """Attach an AFU function (PAC, WAC, HPT, HWT, ...)."""
        if not hasattr(snoop, "observe"):
            raise TypeError("snoop must expose observe(addresses)")
        self._snoops.append(snoop)
        self._m_snoops.set(len(self._snoops))

    def detach(self, snoop: AddressSnoop) -> None:
        self._snoops.remove(snoop)
        self._m_snoops.set(len(self._snoops))

    @property
    def snoops(self) -> tuple:
        return tuple(self._snoops)

    def serve(self, addresses: np.ndarray) -> int:
        """Serve a batch of host memory requests.

        Requests outside the device region are dropped (they belong to
        another node); attached AFUs see exactly the in-region stream,
        which is how the real hardware taps the CXL-IP→MC path.  Snoops
        exposing ``observe_batch`` share one
        :class:`~repro.cxl.batch.AccessBatch`, so its unique-key digests
        are computed once per chunk instead of once per AFU.

        Returns:
            Number of requests actually served by this device.
        """
        pa = np.asarray(addresses, dtype=np.uint64)
        in_region = pa[self.region.contains(pa)]
        self._m_out_of_region.inc(int(pa.size - in_region.size))
        pa = in_region
        if pa.size == 0:
            return 0
        batch = AccessBatch(pa, region=self.region)
        for snoop in self._snoops:
            if hasattr(snoop, "observe_batch"):
                snoop.observe_batch(batch)
            else:
                snoop.observe(pa)
        self.requests_served += int(pa.size)
        self._m_requests.inc(int(pa.size))
        return int(pa.size)

    def service_time_ns(self, num_requests: int, parallelism: float = 1.0) -> float:
        """Aggregate service time for ``num_requests`` device accesses.

        ``parallelism`` models memory-level parallelism: the effective
        per-access stall is the full latency divided by the number of
        overlapping outstanding requests.
        """
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        return num_requests * self.access_latency_ns / parallelism
