"""Actor-style stages: the unit of concurrency protocol code runs in.

A :class:`Stage` is a message handler bound to one simulated thread
(:class:`~repro.sim.resources.SimThread`).  Replica pillars, execution
stages, and clients are all stages.  Stages on the same machine share an
:class:`Endpoint`, which owns the machine's network identity and routes
incoming messages to the addressed stage.

Addressing: a stage is reached at ``(node, stage_name)``.  Sends between
stages of the same node bypass the network entirely — this is the
asynchronous in-memory message passing of the consensus-oriented
parallelization scheme — while remote sends go through whatever
:class:`~repro.net.base.Transport` the endpoint was built with: the
bandwidth/latency model of :mod:`repro.sim.network` in simulation, or
real TCP sockets (:mod:`repro.net.transport`) in live mode.  Stage code
is identical in both.

All outgoing communication initiated inside a handler is deferred until
the handler's CPU busy period ends, so no stage can emit a message before
it has "paid" for computing it.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import ConfigurationError, SimulationError
from repro.net.base import Transport
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.resources import SimThread
from repro.sim.tracing import NULL_TRACER, Tracer

Address = tuple[str, str]


class Envelope:
    """Internal wrapper carrying the source/destination stage names."""

    __slots__ = ("src", "dst_stage", "message")

    def __init__(self, src: Address, dst_stage: str, message: Any):
        self.src = src
        self.dst_stage = dst_stage
        self.message = message


class Endpoint:
    """A machine's network identity; dispatches envelopes to its stages.

    ``egress_bandwidth``/``ingress_bandwidth`` size the node's simulated
    NIC (gateway nodes front whole client populations and get fatter
    pipes than a single client machine); the live transport accepts and
    ignores them.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Transport,
        node: str,
        tracer: Tracer = NULL_TRACER,
        egress_bandwidth: int | None = None,
        ingress_bandwidth: int | None = None,
    ):
        self.sim = sim
        self.network = network
        self.node = node
        self.tracer = tracer
        self.stages: dict[str, "Stage"] = {}
        network.register(
            node,
            self._receive,
            egress_bandwidth=egress_bandwidth,
            ingress_bandwidth=ingress_bandwidth,
        )

    def add_stage(self, stage: "Stage") -> None:
        if stage.name in self.stages:
            raise ConfigurationError(f"stage {stage.name!r} already exists on node {self.node!r}")
        self.stages[stage.name] = stage

    def _receive(self, src_node: str, envelope: Envelope) -> None:
        stage = self.stages.get(envelope.dst_stage)
        if stage is None and "/" in envelope.dst_stage:
            # Session-suffix routing: a gateway's logical sessions are
            # addressed as "<stage>/<session>" (their client_id embeds the
            # suffix); the owning stage demultiplexes by client id.
            stage = self.stages.get(envelope.dst_stage.split("/", 1)[0])
        if stage is None:
            return  # late message for a stage that was never created; drop
        stage._enqueue(envelope.src, envelope.message)


class Stage:
    """Base class for protocol participants.

    Subclasses implement :meth:`on_message` and may use :meth:`send`,
    :meth:`set_timer`, and :meth:`trace`.  Construction wires the stage
    into its endpoint; the owner supplies the simulated thread the stage
    is pinned to (several stages may share one thread, e.g. a pillar and
    its timers).
    """

    def __init__(self, endpoint: Endpoint, thread: SimThread, name: str):
        self.endpoint = endpoint
        self.thread = thread
        self.name = name
        self.sim = endpoint.sim
        self.network = endpoint.network
        endpoint.add_stage(self)
        self._in_handler = False
        # CPU cost of emitting one message (serialization + socket write for
        # remote sends, queue hand-off for local ones); set by the runtime.
        # Small control messages (fixed-size acknowledgments) are cheaper:
        # real implementations coalesce their socket writes.
        self.send_cost_ns = 0
        self.control_send_cost_ns = 0
        self.control_size_threshold = 256
        self.local_send_cost_ns = 0

    # ------------------------------------------------------------------
    @property
    def address(self) -> Address:
        return (self.endpoint.node, self.name)

    @property
    def now(self) -> int:
        return self.sim.now

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _enqueue(self, src: Address, message: Any) -> None:
        self.thread.submit(self._handle, (src, message))

    def _handle(self, item: tuple[Address, Any]) -> None:
        src, message = item
        self._in_handler = True
        try:
            self.on_message(src, message)
        finally:
            self._in_handler = False

    def on_message(self, src: Address, message: Any) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, dst: Address, message: Any, size: int | None = None) -> None:
        """Send ``message`` to a stage address, local or remote.

        Inside a handler the transmission is deferred to the end of the
        current CPU busy period; outside (bootstrap code) it happens now.
        """
        if self._in_handler:
            if dst[0] == self.endpoint.node:
                self.sim.charge(self.local_send_cost_ns)
            else:
                if size is None:  # messages are immutable: _transmit reuses it
                    size = _wire_size(message)
                if size < self.control_size_threshold:
                    self.sim.charge(self.control_send_cost_ns)
                else:
                    self.sim.charge(self.send_cost_ns)
            self.thread.after_busy(lambda: self._transmit(dst, message, size))
        else:
            self._transmit(dst, message, size)

    def _transmit(self, dst: Address, message: Any, size: int | None) -> None:
        dst_node, dst_stage = dst
        if dst_node == self.endpoint.node:
            stage = self.endpoint.stages.get(dst_stage)
            if stage is None:
                raise SimulationError(f"unknown local stage {dst_stage!r} on {dst_node!r}")
            stage._enqueue(self.address, message)
            return
        wire_size = size if size is not None else _wire_size(message)
        self.network.send(self.endpoint.node, dst_node, Envelope(self.address, dst_stage, message), wire_size)

    def broadcast(self, dsts: list[Address], message: Any, size: int | None = None) -> None:
        """Send separate copies of ``message`` to each address."""
        for dst in dsts:
            self.send(dst, message, size)

    # ------------------------------------------------------------------
    # Timers and tracing
    # ------------------------------------------------------------------
    def set_timer(self, delay_ns: int, callback: Callable[..., None], *args: Any) -> Event:
        """Run ``callback(*args)`` on this stage's thread after ``delay_ns``."""
        return self.sim.schedule(delay_ns, self._fire_timer, callback, args)

    def _fire_timer(self, callback: Callable[..., None], args: tuple[Any, ...]) -> None:
        self.thread.submit(self._run_timer, (callback, args))

    def _run_timer(self, item: tuple[Callable[..., None], tuple[Any, ...]]) -> None:
        callback, args = item
        self._in_handler = True
        try:
            callback(*args)
        finally:
            self._in_handler = False

    def cancel_timer(self, event: Event) -> None:
        self.sim.cancel(event)

    def trace(self, category: str, detail: Any = None) -> None:
        self.endpoint.tracer.emit(self.sim.now, f"{self.endpoint.node}/{self.name}", category, detail)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Stage {self.endpoint.node}/{self.name}>"


def _wire_size(message: Any) -> int:
    """Best-effort wire size: messages expose wire_size(); default 64 B."""
    wire_size = getattr(message, "wire_size", None)
    if callable(wire_size):
        return int(wire_size())
    return 64
