"""Network model: per-NIC bandwidth queues plus propagation latency.

The testbed in the paper connects each machine through 1 Gb/s switched
Ethernet (four NICs per machine).  We model a node's connectivity as one
:class:`NetworkInterface` with an aggregate egress and ingress bandwidth
and FIFO serialization: a message occupies the sender's egress for
``size / bandwidth`` seconds, travels for a constant propagation latency,
then occupies the receiver's ingress for the same transmission time.
The ingress queue is what makes all-to-all protocol phases (and reply
incast at clients) contend realistically.

Fault injection is layered on top: an optional :class:`MessageFilter`
(see :mod:`repro.chaos`) may drop, delay, or replace individual messages.
The decision types live in :mod:`repro.chaos.base` so the live TCP
transport applies the *same* filter objects; they are re-exported here
for backwards compatibility.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.chaos.base import DELIVER, FilterDecision, MessageFilter
from repro.errors import ConfigurationError, SimulationError
from repro.sim.kernel import Simulator

__all__ = [
    "DELIVER",
    "FilterDecision",
    "MessageFilter",
    "Network",
    "NetworkInterface",
    "GIGABIT_PER_SECOND",
    "DEFAULT_LAN_LATENCY_NS",
]

GIGABIT_PER_SECOND = 125_000_000  # bytes/s
DEFAULT_LAN_LATENCY_NS = 35_000  # one-way propagation + switching, 35 us


class NetworkInterface:
    """FIFO bandwidth queues for one node (aggregate over its NICs)."""

    def __init__(self, name: str, egress_bandwidth: int, ingress_bandwidth: int):
        if egress_bandwidth <= 0 or ingress_bandwidth <= 0:
            raise ConfigurationError("NIC bandwidth must be positive")
        self.name = name
        self.egress_bandwidth = egress_bandwidth
        self.ingress_bandwidth = ingress_bandwidth
        self.egress_available_at = 0
        self.ingress_available_at = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def egress_tx_ns(self, size: int) -> int:
        return (size * 1_000_000_000) // self.egress_bandwidth

    def ingress_tx_ns(self, size: int) -> int:
        return (size * 1_000_000_000) // self.ingress_bandwidth


class Network:
    """Connects named nodes; delivers messages with latency and bandwidth.

    This is the simulated implementation of the
    :class:`~repro.net.base.Transport` interface; the asyncio TCP
    transport (:class:`~repro.net.transport.TcpTransport`) is the live
    one.  Stages and endpoints work with either.
    """

    def __init__(
        self,
        sim: Simulator,
        latency_ns: int = DEFAULT_LAN_LATENCY_NS,
        default_bandwidth: int = 4 * GIGABIT_PER_SECOND,
    ):
        self.sim = sim
        self.latency_ns = latency_ns
        self.default_bandwidth = default_bandwidth
        self._interfaces: dict[str, NetworkInterface] = {}
        self._receivers: dict[str, Callable[[str, Any], None]] = {}
        self._filters: list[MessageFilter] = []
        self.messages_sent = 0
        self.chaos_dropped = 0
        self.chaos_delayed = 0
        self.chaos_injected = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        receiver: Callable[[str, Any], None],
        egress_bandwidth: int | None = None,
        ingress_bandwidth: int | None = None,
    ) -> NetworkInterface:
        """Attach a node.  ``receiver(src, message)`` is called on delivery."""
        if name in self._interfaces:
            raise ConfigurationError(f"node {name!r} already registered")
        nic = NetworkInterface(
            name,
            egress_bandwidth or self.default_bandwidth,
            ingress_bandwidth or self.default_bandwidth,
        )
        self._interfaces[name] = nic
        self._receivers[name] = receiver
        return nic

    def interface(self, name: str) -> NetworkInterface:
        return self._interfaces[name]

    def add_filter(self, message_filter: MessageFilter) -> None:
        """Install a fault-injection filter (applied in installation order)."""
        self._filters.append(message_filter)

    def remove_filter(self, message_filter: MessageFilter) -> None:
        self._filters.remove(message_filter)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, message: Any, size: int) -> None:
        """Transmit ``message`` of ``size`` bytes from ``src`` to ``dst``."""
        if src not in self._interfaces:
            raise SimulationError(f"unknown sender {src!r}")
        if dst not in self._interfaces:
            raise SimulationError(f"unknown destination {dst!r}")
        self.messages_sent += 1
        extra_delay = 0
        for message_filter in self._filters:
            decision = message_filter.decide(src, dst, message, size, self.sim.now)
            if decision.drop:
                self.chaos_dropped += 1
                return
            extra_delay += decision.extra_delay_ns
            if decision.replace is not None:
                message = decision.replace
                self.chaos_injected += 1
        if extra_delay:
            self.chaos_delayed += 1

        src_nic = self._interfaces[src]
        now = self.sim.now
        egress_start = max(now, src_nic.egress_available_at)
        tx_ns = src_nic.egress_tx_ns(size)
        src_nic.egress_available_at = egress_start + tx_ns
        src_nic.bytes_sent += size
        arrival = egress_start + tx_ns + self.latency_ns + extra_delay
        self.sim.schedule_at(arrival, self._arrive, src, dst, message, size)

    def multicast(self, src: str, dsts: list[str], message: Any, size: int) -> None:
        """Send separate copies to each destination (consumes egress per copy)."""
        for dst in dsts:
            self.send(src, dst, message, size)

    def _arrive(self, src: str, dst: str, message: Any, size: int) -> None:
        dst_nic = self._interfaces[dst]
        now = self.sim.now
        ingress_start = max(now, dst_nic.ingress_available_at)
        rx_ns = dst_nic.ingress_tx_ns(size)
        dst_nic.ingress_available_at = ingress_start + rx_ns
        dst_nic.bytes_received += size
        self.sim.schedule_at(ingress_start + rx_ns, self._deliver, src, dst, message)

    def _deliver(self, src: str, dst: str, message: Any) -> None:
        receiver = self._receivers.get(dst)
        if receiver is not None:
            receiver(src, message)
