"""Tests for the asyncio TCP transport and the frame layer.

Async scenarios run under ``asyncio.run`` so the suite has no dependency
on pytest-asyncio.  All sockets bind to 127.0.0.1 with OS-assigned ports.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import TransportError, WireFormatError, WireIntegrityError
from repro.messages.client import Request
from repro.messages.ordering import Prepare
from repro.net.peer import PeerConfig, PeerConnection
from repro.net.transport import TcpTransport
from repro.sim.process import Envelope
from repro.wire.codec import WireCodec
from repro.wire.framing import (
    FRAME_HEADER_SIZE,
    KIND_ENVELOPE,
    KIND_HELLO,
    KIND_MESSAGE,
    KIND_PING,
    FrameReader,
    decode_frame,
    encode_frame,
)

REQUEST = Request("clients0:c0", 7, ("add", 1), 0, b"\x11" * 32)


# ----------------------------------------------------------------------
# FrameReader: incremental parsing
# ----------------------------------------------------------------------
def test_frame_reader_reassembles_byte_by_byte():
    frame_bytes = encode_frame(KIND_MESSAGE, 4, b"hello wire")
    reader = FrameReader()
    frames = []
    for i in range(len(frame_bytes)):
        frames.extend(reader.feed(frame_bytes[i : i + 1]))
    assert len(frames) == 1
    assert frames[0].body == b"hello wire"
    assert reader.pending_bytes == 0


def test_frame_reader_parses_coalesced_frames():
    blob = b"".join(encode_frame(KIND_MESSAGE, 1, bytes([i]) * i) for i in range(1, 6))
    reader = FrameReader()
    frames = reader.feed(blob)
    assert [f.body for f in frames] == [bytes([i]) * i for i in range(1, 6)]


def test_frame_reader_surfaces_corruption():
    frame_bytes = bytearray(encode_frame(KIND_MESSAGE, 1, b"payload"))
    frame_bytes[FRAME_HEADER_SIZE] ^= 0xFF
    with pytest.raises(WireIntegrityError):
        FrameReader().feed(bytes(frame_bytes))


def test_frame_reader_rejects_garbage_stream():
    with pytest.raises(WireFormatError):
        FrameReader().feed(b"\x00" * (FRAME_HEADER_SIZE + 4))


def test_decode_frame_round_trip():
    frame = decode_frame(encode_frame(KIND_PING, 0, b""))
    assert frame.kind == KIND_PING
    assert frame.body == b""


# ----------------------------------------------------------------------
# TcpTransport: registration and framing over real sockets
# ----------------------------------------------------------------------
def _transport(nodes, **kwargs):
    directory = {name: ("127.0.0.1", 0) for name in nodes}
    return TcpTransport(directory, **kwargs)


def test_register_requires_directory_entry():
    transport = _transport(["a"])
    transport.register("a", lambda src, env: None)
    with pytest.raises(TransportError):
        transport.register("a", lambda src, env: None)  # duplicate
    with pytest.raises(TransportError):
        transport.register("ghost", lambda src, env: None)  # not in directory


def test_envelopes_cross_real_sockets():
    async def scenario():
        received = asyncio.Event()
        inbox = []
        transport = _transport(["a", "b"])
        transport.register("a", lambda src, env: None)

        def receive(src, envelope):
            inbox.append((src, envelope))
            received.set()

        transport.register("b", receive)
        async with transport:
            envelope = Envelope(("a", "c0"), "handler", REQUEST)
            transport.send("a", "b", envelope, REQUEST.wire_size())
            await asyncio.wait_for(received.wait(), timeout=5)
        src, delivered = inbox[0]
        assert src == "a"
        assert delivered.src == ("a", "c0")
        assert delivered.dst_stage == "handler"
        assert delivered.message == REQUEST
        assert transport.interface("b").messages_received == 1
        assert transport.interface("a").messages_sent == 1

    asyncio.run(scenario())


def test_multicast_reaches_every_destination():
    async def scenario():
        hits = {"b": 0, "c": 0}
        done = asyncio.Event()
        transport = _transport(["a", "b", "c"])
        transport.register("a", lambda src, env: None)
        for node in ("b", "c"):

            def receive(src, env, node=node):
                hits[node] += 1
                if all(hits.values()):
                    done.set()

            transport.register(node, receive)
        async with transport:
            envelope = Envelope(("a", "c0"), "handler", REQUEST)
            transport.multicast("a", ["b", "c"], envelope, REQUEST.wire_size())
            await asyncio.wait_for(done.wait(), timeout=5)
        assert hits == {"b": 1, "c": 1}

    asyncio.run(scenario())


def test_send_to_unknown_destination_is_an_error():
    transport = _transport(["a"])
    transport.register("a", lambda src, env: None)
    envelope = Envelope(("a", "c0"), "handler", REQUEST)
    with pytest.raises(TransportError):
        transport.send("a", "nowhere", envelope, 64)


def test_peer_reconnects_after_receiver_restart():
    async def scenario():
        inbox = []
        got_one = asyncio.Event()
        directory = {"a": ("127.0.0.1", 0), "b": ("127.0.0.1", 0)}
        config = PeerConfig(backoff_base_s=0.01, backoff_max_s=0.05)
        sender = TcpTransport(directory, peer_config=config)
        sender.register("a", lambda src, env: None)
        async with sender:
            receiver = TcpTransport(dict(directory), peer_config=config)

            def receive(src, env):
                inbox.append(env.message)
                got_one.set()

            receiver.register("b", receive)
            await receiver.start()
            # sender learns b's real port the way separate processes would:
            # from the shared directory convention
            sender.directory["b"] = receiver.directory["b"]
            envelope = Envelope(("a", "c0"), "handler", REQUEST)
            sender.send("a", "b", envelope, REQUEST.wire_size())
            await asyncio.wait_for(got_one.wait(), timeout=5)

            # kill the receiver, then bring a new one up on the same port
            port = receiver.directory["b"][1]
            await receiver.stop()
            await asyncio.sleep(0.05)
            sender.send("a", "b", Envelope(("a", "c0"), "handler", REQUEST), REQUEST.wire_size())

            got_two = asyncio.Event()
            revived = TcpTransport({"b": ("127.0.0.1", port)}, peer_config=config)
            revived.register("b", lambda src, env: got_two.set())
            await revived.start()
            assert revived.directory["b"][1] == port
            # the queued message (or a subsequent one) arrives after reconnect
            for _ in range(50):
                if got_two.is_set():
                    break
                sender.send("a", "b", Envelope(("a", "c0"), "handler", REQUEST), REQUEST.wire_size())
                await asyncio.sleep(0.02)
            await asyncio.wait_for(got_two.wait(), timeout=5)
            await revived.stop()
        assert inbox[0] == REQUEST

    asyncio.run(scenario())


def test_bounded_queue_drops_when_peer_unreachable():
    async def scenario():
        # no listener on the other side and a tiny queue: floods must drop
        config = PeerConfig(queue_capacity=4, backoff_base_s=5.0, backoff_max_s=5.0)
        transport = TcpTransport(
            {"a": ("127.0.0.1", 0), "b": ("127.0.0.1", 1)}, peer_config=config
        )
        transport.register("a", lambda src, env: None)
        async with transport:
            envelope = Envelope(("a", "c0"), "handler", REQUEST)
            for _ in range(32):
                transport.send("a", "b", envelope, REQUEST.wire_size())
            assert transport.messages_dropped >= 32 - 4
            assert transport.interface("a").send_queue_drops >= 32 - 4
            assert transport.messages_sent == 32

    asyncio.run(scenario())


def test_corrupt_stream_counts_decode_error_and_drops_connection():
    async def scenario():
        transport = _transport(["b"])
        transport.register("b", lambda src, env: None)
        async with transport:
            host, port = transport.directory["b"]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"\xde\xad\xbe\xef" * 16)
            await writer.drain()
            # server drops the connection on garbage
            eof = await asyncio.wait_for(reader.read(1), timeout=5)
            assert eof == b""
            writer.close()
        assert transport.interface("b").decode_errors == 1

    asyncio.run(scenario())


def test_peer_connection_flushes_queue_in_order():
    async def scenario():
        received = []
        done = asyncio.Event()

        async def serve(reader, writer):
            frame_reader = FrameReader()
            while True:
                data = await reader.read(4096)
                if not data:
                    return
                for frame in frame_reader.feed(data):
                    if frame.kind == KIND_MESSAGE:
                        received.append(frame.body)
                        if len(received) == 10:
                            done.set()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        peer = PeerConnection(
            "a", "b", resolve=lambda: ("127.0.0.1", port), config=PeerConfig()
        )
        for i in range(10):
            assert peer.enqueue(encode_frame(KIND_MESSAGE, 1, bytes([i])))
        await asyncio.wait_for(done.wait(), timeout=5)
        await peer.close()
        server.close()
        await server.wait_closed()
        assert received == [bytes([i]) for i in range(10)]

    asyncio.run(scenario())

# ----------------------------------------------------------------------
# Chaos injection on the live transport
# ----------------------------------------------------------------------
def test_chaos_filter_drops_frames_and_counts():
    from repro.chaos import LossRate

    async def scenario():
        inbox = []
        transport = _transport(["a", "b"])
        transport.register("a", lambda src, env: None)
        transport.register("b", lambda src, env: inbox.append(env))
        transport.add_filter(LossRate(1.0))  # drop everything
        async with transport:
            envelope = Envelope(("a", "c0"), "handler", REQUEST)
            for _ in range(5):
                transport.send("a", "b", envelope, REQUEST.wire_size())
            await asyncio.sleep(0.1)
        assert inbox == []
        assert transport.chaos_dropped == 5
        assert transport.interface("a").chaos_dropped == 5

    asyncio.run(scenario())


def test_chaos_filter_delays_but_still_delivers():
    from repro.chaos import ExtraDelay

    async def scenario():
        got = asyncio.Event()
        transport = _transport(["a", "b"])
        transport.register("a", lambda src, env: None)
        transport.register("b", lambda src, env: got.set())
        transport.add_filter(ExtraDelay(30_000_000))  # 30 ms
        async with transport:
            transport.send("a", "b", Envelope(("a", "c0"), "handler", REQUEST), REQUEST.wire_size())
            assert not got.is_set()  # still parked on the loop's timer
            await asyncio.wait_for(got.wait(), timeout=5)
        assert transport.chaos_delayed == 1

    asyncio.run(scenario())


def test_chaos_filter_replaces_message_in_flight():
    async def scenario():
        inbox = []
        got = asyncio.Event()
        forged = Request("clients0:c0", 7, ("add", 666), 0, b"\x11" * 32)

        class Forge:
            def decide(self, src, dst, message, size, now):
                from repro.chaos import FilterDecision

                return FilterDecision(replace=Envelope(message.src, message.dst_stage, forged))

        transport = _transport(["a", "b"])
        transport.register("a", lambda src, env: None)

        def receive(src, env):
            inbox.append(env.message)
            got.set()

        transport.register("b", receive)
        transport.add_filter(Forge())
        async with transport:
            transport.send("a", "b", Envelope(("a", "c0"), "handler", REQUEST), REQUEST.wire_size())
            await asyncio.wait_for(got.wait(), timeout=5)
        assert inbox == [forged]
        assert transport.chaos_injected == 1

    asyncio.run(scenario())


def test_remove_filter_restores_clean_delivery():
    from repro.chaos import LossRate

    async def scenario():
        got = asyncio.Event()
        transport = _transport(["a", "b"])
        transport.register("a", lambda src, env: None)
        transport.register("b", lambda src, env: got.set())
        blackhole = LossRate(1.0)
        transport.add_filter(blackhole)
        async with transport:
            transport.send("a", "b", Envelope(("a", "c0"), "handler", REQUEST), REQUEST.wire_size())
            transport.remove_filter(blackhole)
            transport.send("a", "b", Envelope(("a", "c0"), "handler", REQUEST), REQUEST.wire_size())
            await asyncio.wait_for(got.wait(), timeout=5)
        assert transport.chaos_dropped == 1

    asyncio.run(scenario())


def test_transport_clock_drives_filter_windows():
    from repro.chaos import CrashWindows

    async def scenario():
        inbox = []
        fake_now = {"ns": 0}
        transport = TcpTransport(
            {"a": ("127.0.0.1", 0), "b": ("127.0.0.1", 0)},
            clock=lambda: fake_now["ns"],
        )
        transport.register("a", lambda src, env: None)
        transport.register("b", lambda src, env: inbox.append(env))
        transport.add_filter(CrashWindows("b", [(0, 1_000)]))
        async with transport:
            envelope = Envelope(("a", "c0"), "handler", REQUEST)
            transport.send("a", "b", envelope, REQUEST.wire_size())  # inside window
            fake_now["ns"] = 2_000  # the crash window closes
            transport.send("a", "b", envelope, REQUEST.wire_size())
            for _ in range(100):
                if inbox:
                    break
                await asyncio.sleep(0.01)
        assert len(inbox) == 1
        assert transport.chaos_dropped == 1

    asyncio.run(scenario())


def test_drop_connections_severs_and_peer_reconnects():
    async def scenario():
        inbox = []
        config = PeerConfig(backoff_base_s=0.01, backoff_max_s=0.05)
        transport = _transport(["a", "b"], peer_config=config)
        transport.register("a", lambda src, env: None)
        transport.register("b", lambda src, env: inbox.append(env))
        async with transport:
            envelope = Envelope(("a", "c0"), "handler", REQUEST)
            transport.send("a", "b", envelope, REQUEST.wire_size())
            for _ in range(200):
                if inbox:
                    break
                await asyncio.sleep(0.01)
            assert len(inbox) == 1

            killed = transport.drop_connections("b")
            assert killed >= 1

            # reconnect/backoff must bring the link back without outside help
            delivered = len(inbox)
            for _ in range(200):
                transport.send("a", "b", envelope, REQUEST.wire_size())
                await asyncio.sleep(0.01)
                if len(inbox) > delivered:
                    break
            assert len(inbox) > delivered

    asyncio.run(scenario())


def test_drop_connections_on_unknown_node_is_a_noop():
    async def scenario():
        transport = _transport(["a", "b"])
        transport.register("a", lambda src, env: None)
        async with transport:
            assert transport.drop_connections("ghost") == 0

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Broadcast memo and envelope header checks
# ----------------------------------------------------------------------
class CountingCodec(WireCodec):
    def __init__(self):
        super().__init__()
        self.encodes = 0

    def encode_envelope(self, src_node, src_stage, dst_stage, message):
        self.encodes += 1
        return super().encode_envelope(src_node, src_stage, dst_stage, message)


def test_a_broadcast_is_encoded_once():
    async def scenario():
        inbox = {"b": [], "c": [], "d": []}
        done = asyncio.Event()
        codec = CountingCodec()
        transport = _transport(["a", "b", "c", "d"], codec=codec)
        transport.register("a", lambda src, env: None)
        for node in inbox:

            def receive(src, env, node=node):
                inbox[node].append(env)
                if sum(map(len, inbox.values())) == 5:
                    done.set()

            transport.register(node, receive)
        async with transport:
            # Stage.broadcast: a fresh Envelope per peer around one payload
            for node in ("b", "c", "d"):
                transport.send("a", node, Envelope(("a", "pillar0"), "pillar0", REQUEST), 0)
            assert codec.encodes == 1
            # another destination stage or another payload is another frame
            transport.send("a", "b", Envelope(("a", "pillar0"), "handler", REQUEST), 0)
            other = Request("clients0:c0", 8, ("add", 1), 0, b"\x11" * 32)
            transport.multicast("a", ["c"], Envelope(("a", "pillar0"), "pillar0", other), 0)
            assert codec.encodes == 3
            await asyncio.wait_for(done.wait(), timeout=5)
        assert [env.message for env in inbox["d"]] == [REQUEST]
        assert [(env.dst_stage, env.message) for env in inbox["b"]] == [
            ("pillar0", REQUEST), ("handler", REQUEST)
        ]
        assert [env.message for env in inbox["c"]] == [REQUEST, other]

    asyncio.run(scenario())


def test_a_chaos_replacement_is_encoded_fresh():
    from repro.chaos import FilterDecision

    forged = Request("clients0:c0", 7, ("add", 666), 0, b"\x11" * 32)

    class ForgeForC:
        def decide(self, src, dst, message, size, now):
            if dst == "c":
                return FilterDecision(replace=Envelope(message.src, message.dst_stage, forged))
            return FilterDecision()

    async def scenario():
        inbox = {"b": [], "c": []}
        done = asyncio.Event()
        transport = _transport(["a", "b", "c"], codec=CountingCodec())
        transport.register("a", lambda src, env: None)
        for node in inbox:

            def receive(src, env, node=node):
                inbox[node].append(env.message)
                if all(inbox.values()):
                    done.set()

            transport.register(node, receive)
        transport.add_filter(ForgeForC())
        async with transport:
            transport.multicast("a", ["b", "c"], Envelope(("a", "p"), "p", REQUEST), 0)
            await asyncio.wait_for(done.wait(), timeout=5)
        assert inbox == {"b": [REQUEST], "c": [forged]}
        assert transport.codec.encodes == 2

    asyncio.run(scenario())


def test_forged_envelope_header_type_id_is_rejected():
    codec = WireCodec()
    frame = decode_frame(codec.encode_envelope("a", "c0", "handler", REQUEST))
    forged = encode_frame(KIND_ENVELOPE, codec.type_id_of(Prepare), frame.body, frame.sender)
    with pytest.raises(WireFormatError):
        codec.decode_envelope(forged)
    with pytest.raises(WireFormatError):
        codec.decode_envelope(decode_frame(forged))


def test_transport_counts_and_drops_a_forged_envelope():
    async def scenario():
        codec = WireCodec()
        inbox = []
        got = asyncio.Event()
        transport = _transport(["b"])

        def receive(src, env):
            inbox.append(env.message)
            got.set()

        transport.register("b", receive)
        async with transport:
            host, port = transport.directory["b"]
            reader, writer = await asyncio.open_connection(host, port)
            good = codec.encode_envelope("a", "c0", "handler", REQUEST)
            body = decode_frame(good).body
            forged = encode_frame(KIND_ENVELOPE, codec.type_id_of(Prepare), body)
            writer.write(encode_frame(KIND_HELLO, 0, b"a") + forged + good)
            await writer.drain()
            await asyncio.wait_for(got.wait(), timeout=5)
            writer.close()
        # the forged frame is counted and skipped; the stream stays usable
        assert inbox == [REQUEST]
        assert transport.interface("b").decode_errors == 1
        assert transport.interface("b").messages_received == 1

    asyncio.run(scenario())
