"""Asyncio TCP transport: real sockets behind the Transport interface.

One :class:`TcpTransport` serves every node hosted by the current process
(all of them in single-process live mode, exactly one in
process-per-replica mode).  Each local node gets its own listen socket;
each ``(local node, remote node)`` pair gets its own outbound
:class:`~repro.net.peer.PeerConnection`.  Messages always cross a real
socket — even between two nodes of the same process — so single-process
live runs exercise the same code paths as distributed ones.

The transport speaks :class:`~repro.sim.process.Envelope` on the inside
(the same object the simulated network moves by reference) and codec
frames on the outside.  ``Stage`` code is byte-for-byte identical in sim
and live mode; only the object handed to ``Endpoint`` differs.

A broadcast is encoded once.  ``Stage.broadcast`` sends each peer its
own ``Envelope`` around the same payload, one after the other, so the
transport keeps the last frame, keyed by payload identity, source
address and destination stage, and reuses it for the next send with the
same key.  That relies on messages being frozen dataclasses whose
contents are not mutated between the sends of one broadcast.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Any, Callable

from repro.chaos.base import MessageFilter
from repro.errors import TransportError, WireError
from repro.net.base import TransportStats
from repro.net.peer import PeerConfig, PeerConnection
from repro.wire.codec import WireCodec, default_codec
from repro.wire.framing import KIND_ENVELOPE, KIND_HELLO, KIND_PING, FrameReader

log = logging.getLogger("repro.net")


class TcpTransport:
    """A live, frame-encoded implementation of :class:`repro.net.base.Transport`.

    ``directory`` maps node names to ``(host, port)`` listen addresses.  A
    port of 0 lets the OS choose; the directory is updated with the real
    port once the server binds, and outbound connections resolve addresses
    lazily (with reconnect backoff), so start-up order between processes
    does not matter.
    """

    def __init__(
        self,
        directory: dict[str, tuple[str, int]],
        codec: WireCodec | None = None,
        peer_config: PeerConfig = PeerConfig(),
        clock: Callable[[], int] | None = None,
    ):
        self.directory = dict(directory)
        self.codec = codec or default_codec()
        self.peer_config = peer_config
        self._receivers: dict[str, Callable[[str, Any], None]] = {}
        self._servers: dict[str, asyncio.base_events.Server] = {}
        self._inbound: dict[asyncio.StreamWriter, str] = {}
        # One pool of `peer_config.pool_size` connections per (src, dst)
        # pair; frames round-robin across the pool members.
        self._peers: dict[tuple[str, str], list[PeerConnection]] = {}
        self._pool_rr: dict[tuple[str, str], int] = {}
        self._stats: dict[str, TransportStats] = {}
        self._started = False
        # (payload, source address, destination stage, frame) of the last send
        self._last_frame: tuple[Any, Any, str, bytes] = (None, None, "", b"")
        self.messages_sent = 0
        self.messages_dropped = 0
        # Chaos injection (see repro.chaos): filters applied on the send
        # path, under `clock` (nanoseconds; defaults to monotonic time
        # since transport construction, matching LiveKernel.now).
        self._filters: list[MessageFilter] = []
        self._t0 = time.monotonic()
        self._clock = clock or (lambda: int((time.monotonic() - self._t0) * 1e9))
        self.chaos_dropped = 0
        self.chaos_delayed = 0
        self.chaos_injected = 0

    # ------------------------------------------------------------------
    # Transport interface (what Endpoint/Stage call)
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        receiver: Callable[[str, Any], None],
        egress_bandwidth: int | None = None,
        ingress_bandwidth: int | None = None,
    ) -> TransportStats:
        """Attach a local node.  Bandwidth arguments are accepted for
        interface parity with the simulated network and ignored — live
        throughput is whatever the kernel delivers."""
        if name in self._receivers:
            raise TransportError(f"node {name!r} already registered")
        if name not in self.directory:
            raise TransportError(f"node {name!r} has no directory entry")
        self._receivers[name] = receiver
        self._stats[name] = TransportStats(name)
        return self._stats[name]

    def send(self, src: str, dst: str, message: Any, size: int) -> None:
        """Encode and ship one stage envelope from ``src`` to ``dst``."""
        if src not in self._receivers:
            raise TransportError(f"unknown sender {src!r}")
        if dst not in self.directory:
            raise TransportError(f"unknown destination {dst!r}")
        stats = self._stats[src]
        self.messages_sent += 1

        extra_delay_ns = 0
        if self._filters:
            now = self._clock()
            for message_filter in self._filters:
                decision = message_filter.decide(src, dst, message, size, now)
                if decision.drop:
                    self.messages_dropped += 1
                    self.chaos_dropped += 1
                    stats.chaos_dropped += 1
                    return
                extra_delay_ns += decision.extra_delay_ns
                if decision.replace is not None:
                    message = decision.replace
                    self.chaos_injected += 1
                    stats.chaos_injected += 1

        # `message` is a repro.sim.process.Envelope; unwrap its addressing.
        src_addr = getattr(message, "src", (src, "?"))
        dst_stage = getattr(message, "dst_stage", "?")
        payload = getattr(message, "message", message)
        # The frame depends only on the payload, the source address and the
        # destination stage: reuse the last one (see the module docstring).
        # The memo holds the payload, so its id cannot be recycled while
        # cached; a chaos replacement is another object, encoded fresh.
        memo = self._last_frame
        if memo[0] is payload and memo[1] == src_addr and memo[2] == dst_stage:
            frame = memo[3]
        else:
            frame = self.codec.encode_envelope(src_addr[0], src_addr[1], dst_stage, payload)
            self._last_frame = (payload, src_addr, dst_stage, frame)

        if extra_delay_ns > 0:
            self.chaos_delayed += 1
            stats.chaos_delayed += 1
            asyncio.get_running_loop().call_later(
                extra_delay_ns / 1e9, self._enqueue_frame, src, dst, frame
            )
            return
        self._enqueue_frame(src, dst, frame)

    def _enqueue_frame(self, src: str, dst: str, frame: bytes) -> None:
        stats = self._stats[src]
        if not self._started:
            # a chaos-delayed frame outlived the transport: count and drop
            self.messages_dropped += 1
            stats.send_queue_drops += 1
            return
        peer = self._peer_for(src, dst)
        if peer.enqueue(frame):
            stats.messages_sent += 1
            stats.bytes_sent += len(frame)
        else:
            self.messages_dropped += 1
            stats.send_queue_drops += 1

    def multicast(self, src: str, dsts: list[str], message: Any, size: int) -> None:
        """Send ``message`` to each of ``dsts``; the frame is encoded once."""
        for dst in dsts:
            self.send(src, dst, message, size)

    def interface(self, name: str) -> TransportStats:
        """Traffic counters for a node (parity with ``Network.interface``)."""
        return self._stats[name]

    # ------------------------------------------------------------------
    # Chaos injection (parity with ``Network.add_filter``)
    # ------------------------------------------------------------------
    def add_filter(self, message_filter: MessageFilter) -> None:
        """Install a fault-injection filter on the send path.

        Filters run in installation order before a message is framed, so
        a replacement decision changes what gets encoded onto the wire.
        """
        self._filters.append(message_filter)

    def remove_filter(self, message_filter: MessageFilter) -> None:
        self._filters.remove(message_filter)

    def drop_connections(self, node: str) -> int:
        """Forcibly close every connection touching ``node``; returns count.

        Models a connection-level failure (middlebox reset, process
        crash): outbound peers enter reconnect backoff, inbound streams
        see EOF.  Queued frames survive and are flushed after reconnect.
        """
        killed = 0
        for (src, dst), pool in self._peers.items():
            if node in (src, dst):
                killed += sum(peer.kill() for peer in pool)
        for writer, owner in list(self._inbound.items()):
            if owner == node:
                writer.close()
                self._inbound.pop(writer, None)
                killed += 1
        return killed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind one listen socket per registered local node."""
        if self._started:
            return
        for name in self._receivers:
            host, port = self.directory[name]
            server = await asyncio.start_server(
                lambda reader, writer, node=name: self._serve_connection(node, reader, writer),
                host,
                port,
            )
            actual = server.sockets[0].getsockname()
            self.directory[name] = (host, actual[1])
            self._servers[name] = server
        self._started = True

    async def stop(self) -> None:
        for pool in self._peers.values():
            for peer in pool:
                await peer.close()
        self._peers.clear()
        for server in self._servers.values():
            server.close()
            await server.wait_closed()
        self._servers.clear()
        # Server.close() only stops accepting; drop accepted connections too
        # so a stopped node really goes silent (senders see the reset and
        # enter reconnect backoff).
        for writer in list(self._inbound):
            writer.close()
        self._inbound.clear()
        self._started = False

    async def __aenter__(self) -> "TcpTransport":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _peer_for(self, src: str, dst: str) -> PeerConnection:
        key = (src, dst)
        pool = self._peers.get(key)
        if pool is None:
            pool = [
                PeerConnection(
                    src, dst, resolve=lambda d=dst: self.directory[d], config=self.peer_config
                )
                for _ in range(self.peer_config.pool_size)
            ]
            self._peers[key] = pool
        if len(pool) == 1:
            return pool[0]
        slot = self._pool_rr.get(key, 0)
        self._pool_rr[key] = (slot + 1) % len(pool)
        return pool[slot]

    async def _serve_connection(
        self, node: str, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Read frames from one inbound connection and dispatch envelopes."""
        from repro.sim.process import Envelope  # local import: avoid cycle at module load

        stats = self._stats.get(node)
        frame_reader = FrameReader()
        peer_name = "?"
        self._inbound[writer] = node
        try:
            while True:
                data = await reader.read(64 * 1024)
                if not data:
                    return
                try:
                    frames = frame_reader.feed(data)
                except WireError as exc:
                    if stats is not None:
                        stats.decode_errors += 1
                    log.warning("%s: dropping connection from %s: %s", node, peer_name, exc)
                    return
                for frame in frames:
                    if frame.kind == KIND_HELLO:
                        peer_name = frame.body.decode("utf-8", "replace")
                        continue
                    if frame.kind == KIND_PING:
                        continue
                    if frame.kind != KIND_ENVELOPE:
                        continue
                    try:
                        src_node, src_stage, dst_stage, payload = self.codec.decode_envelope(frame)
                    except WireError as exc:
                        if stats is not None:
                            stats.decode_errors += 1
                        log.warning("%s: undecodable envelope from %s: %s", node, peer_name, exc)
                        continue
                    if stats is not None:
                        stats.messages_received += 1
                        stats.bytes_received += frame.size
                    receiver = self._receivers.get(node)
                    if receiver is not None:
                        receiver(src_node, Envelope((src_node, src_stage), dst_stage, payload))
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass
        finally:
            self._inbound.pop(writer, None)
            writer.close()
