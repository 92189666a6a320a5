"""PCIe link between a CPU socket and its RNIC (Section II-B3).

Each RDMA operation issues PCIe transaction-layer packets: the CPU rings a
doorbell with MMIO, the RNIC DMA-reads WQEs and payloads, and inbound data
is DMA-written to host memory.  PCIe supports scatter/gather DMA — one
logical transfer over multiple discontiguous buffers — which is exactly the
mechanism the SGL batching strategy rides on.

The link is a shared, contended resource: concurrent DMAs serialize.  MMIO
doorbells are posted writes and do not occupy the link in this model (their
cost is charged to the issuing CPU thread instead).
"""

from __future__ import annotations

from repro.hw.numa import NumaTopology
from repro.hw.params import HardwareParams
from repro.sim import Event, Resource, Simulator

__all__ = ["PcieLink"]


class PcieLink:
    """The PCIe connection of one RNIC, attached to ``socket``."""

    def __init__(self, sim: Simulator, params: HardwareParams,
                 topology: NumaTopology, socket: int, name: str = ""):
        self.sim = sim
        self.params = params
        self.topology = topology
        self.socket = socket          # socket whose PCIe root complex owns us
        self.name = name or f"pcie@s{socket}"
        self._bus = Resource(sim, capacity=1, name=self.name)
        self.dma_bytes = 0
        self.dma_count = 0
        self._on_dma_end = self._dma_end
        # Per-link memoized transfer times keyed (mem_socket, nbytes,
        # segments) — one dict probe on the per-WR hot path instead of two
        # method calls into the topology.  Params/topology are immutable,
        # so entries never go stale; bounded like the topology's own cache.
        self._time_cache: dict = {}

    def dma_time(self, nbytes: int, mem_socket: int, segments: int = 1) -> float:
        """Pure transfer time of one DMA, without queueing."""
        return self.topology.dma_time(self.socket, mem_socket, nbytes, segments)

    def dma_ns(self, nbytes: int, mem_socket: int, segments: int = 1) -> float:
        """Memoized transfer duration — the closed-form twin of :meth:`dma`.

        Shares ``_time_cache`` with the stepped path so both lanes read
        the very same float for a given transfer; bus occupancy is the
        caller's problem (the express lane books it arithmetically).
        """
        key = (mem_socket, nbytes, segments)
        duration = self._time_cache.get(key)
        if duration is None:
            duration = self.topology.dma_time(
                self.socket, mem_socket, nbytes, segments)
            if len(self._time_cache) < 8192:
                self._time_cache[key] = duration
        return duration

    def dma(self, nbytes: int, mem_socket: int, segments: int = 1) -> Event:
        """Perform one DMA to/from ``mem_socket`` memory.

        Returns the bus hold (:meth:`Resource.hold`): an event firing once
        the transfer has occupied the bus for its duration, with the
        counters already bumped.
        """
        if nbytes < 0:
            raise ValueError(f"negative DMA size: {nbytes}")
        key = (mem_socket, nbytes, segments)
        duration = self._time_cache.get(key)
        if duration is None:
            duration = self.topology.dma_time(
                self.socket, mem_socket, nbytes, segments)
            if len(self._time_cache) < 8192:
                self._time_cache[key] = duration
        return self._bus.hold(duration, nbytes, self._on_dma_end)

    def _dma_end(self, ev: Event) -> None:
        self.dma_bytes += ev._value
        self.dma_count += 1

    def mmio_time(self, core_socket: int) -> float:
        """CPU-side cost of ringing this device's doorbell from a core."""
        return self.topology.mmio_time(core_socket, self.socket)

    def utilization(self) -> float:
        return self._bus.utilization()
