"""Group B of the per-layer ledger: microbenchmarks of single layers.

A fixed corpus of messages built from the public dataclasses is pushed
through the public functions of one layer at a time.  Each number is the
median of ``REPEATS`` batches, each batch sized to last about
``BATCH_S``, so the whole pass costs about two seconds whatever the
speed of the layer.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable

from bench.stats import median
from repro.crypto.provider import CryptoProvider
from repro.messages.client import Reply, Request
from repro.messages.ordering import Commit, Prepare
from repro.net.transport import TcpTransport
from repro.services.kvstore import KeyValueStore
from repro.sim.kernel import Simulator
from repro.sim.process import Envelope
from repro.trinx.enclave import EnclavePlatform
from repro.trinx.trinx import TrInX, batch_root
from repro.wire.codec import WireCodec
from repro.wire.framing import FrameReader

REPEATS = 5
BATCH_S = 0.012
SECRET = b"hybster-group-secret-0000000000!"
SESSION_KEY = b"client-session"


def ns_per_call(call: Callable[[], Any]) -> float:
    """Median over ``REPEATS`` batches of the time one ``call()`` takes."""
    clock = time.perf_counter_ns
    count = 1
    while True:  # size a batch
        start = clock()
        for _ in range(count):
            call()
        took = clock() - start
        if took >= BATCH_S * 1e9 / 4:
            break
        count *= 4
    count = max(1, int(count * BATCH_S * 1e9 / took))
    timings = []
    for _ in range(REPEATS):
        start = clock()
        for _ in range(count):
            call()
        timings.append((clock() - start) / count)
    return median(timings)


def _request(index: int, payload: int = 0) -> Request:
    client = f"clients0:c{index % 8}"
    return Request(client, 1000 + index, ("put", f"{client}/k{index % 16}", index), payload, b"\x5a" * 32)


def corpus() -> dict[str, Any]:
    """The five message shapes that make up nearly all live traffic."""
    trinx = TrInX(EnclavePlatform(), "r0/trinx0", SECRET)
    crypto = CryptoProvider()
    messages: dict[str, Any] = {"request": _request(3)}
    for name, batch in (
        ("prepare_b1", (_request(3),)),
        ("prepare_b16_1k", tuple(_request(i, payload=1024) for i in range(16))),
    ):
        bare = Prepare(0, 4711, batch, "r0")
        leaves = crypto.digest_batch([request.digestible() for request in batch])
        certificate = trinx.create_independent_batch(
            0, trinx.current_value(0) + 1, bare.certified_digestible(), leaves
        )
        messages[name] = Prepare(
            0, 4711, batch, "r0", certificate=certificate, batch_digest=batch_root(leaves)
        )
    digest = crypto.digest(messages["prepare_b1"].proposal_digestible())
    messages["commit"] = Commit(
        0, 4711, "r1", digest, trinx.create_independent(1, 1, ("commit", 0, 4711, digest))
    )
    messages["reply"] = Reply("r0", "clients0:c3", 1003, 0, ("ok", 17), 0)
    return messages


def wire(messages: dict[str, Any]) -> dict[str, float]:
    codec = WireCodec()
    metrics: dict[str, float] = {}
    frames = {}
    for name, message in messages.items():
        frames[name] = codec.encode_envelope("r0", "pillar0", "pillar0", message)
        if codec.decode_envelope(frames[name])[3] != message:
            raise AssertionError(f"{name} does not survive the codec")
        metrics[f"wire.encode_ns.{name}"] = ns_per_call(
            lambda m=message: codec.encode_envelope("r0", "pillar0", "pillar0", m)
        )
        metrics[f"wire.decode_ns.{name}"] = ns_per_call(
            lambda f=frames[name]: codec.decode_envelope(f)
        )
    # 64 frames in the mix of an unbatched request: mostly commits and replies
    mix = [frames[name] for name in ("request", "prepare_b1", "commit", "commit", "reply", "reply", "reply", "commit")] * 8
    stream = b"".join(mix)

    def feed() -> None:
        if len(FrameReader().feed(stream)) != len(mix):
            raise AssertionError("frame reader lost frames")

    metrics["wire.frame_reader_ns_per_frame"] = ns_per_call(feed) / len(mix)
    return metrics


def crypto(messages: dict[str, Any]) -> dict[str, float]:
    provider = CryptoProvider()
    digestible = messages["request"].digestible()
    sixteen = [request.digestible() for request in messages["prepare_b16_1k"].batch]
    block = b"\x17" * 32
    return {
        "crypto.digest_ns.request": ns_per_call(lambda: provider.digest(digestible)),
        "crypto.mac_ns_32b": ns_per_call(lambda: provider.compute_mac(SESSION_KEY, block)),
        "crypto.mac_many_ns_per_item_16": ns_per_call(
            lambda: provider.compute_mac_batch(SESSION_KEY, sixteen)
        ) / 16,
        "crypto.digest_many_ns_per_item_16": ns_per_call(
            lambda: provider.digest_batch(sixteen)
        ) / 16,
    }


def trinx(messages: dict[str, Any]) -> dict[str, float]:
    provider = CryptoProvider()
    metrics: dict[str, float] = {}
    for label, name in (("b1", "prepare_b1"), ("b16", "prepare_b16_1k")):
        prepare: Prepare = messages[name]
        header = prepare.certified_digestible()
        leaves = provider.digest_batch([request.digestible() for request in prepare.batch])
        issuer = TrInX(EnclavePlatform(), "r0/trinx0", SECRET)
        verifier = TrInX(EnclavePlatform(), "r1/trinx0", SECRET)

        def certify() -> None:
            issuer.create_independent_batch(0, issuer.current_value(0) + 1, header, leaves)

        def verify() -> None:
            if not verifier.verify_batch(prepare.certificate, header, leaves):
                raise AssertionError("corpus certificate does not verify")

        metrics[f"trinx.certify_ns_{label}"] = ns_per_call(certify)
        metrics[f"trinx.verify_ns_{label}"] = ns_per_call(verify)
    return metrics


def services() -> dict[str, float]:
    store = KeyValueStore()
    state = {"i": 0}

    def execute() -> None:
        i = state["i"] = state["i"] + 1
        key = f"clients0:c{i % 8}/k{i % 16}"
        store.execute(("put", key, i) if i % 2 else ("get", key), "clients0:c0")

    return {"services.kv_execute_ns": ns_per_call(execute)}


def sim_kernel() -> dict[str, float]:
    def noop() -> None:
        pass

    count = 20_000
    rates = []
    for _ in range(REPEATS):
        sim = Simulator()
        start = time.perf_counter_ns()
        for i in range(count):
            sim.schedule(i % 997, noop)
        sim.run()
        rates.append(count * 1e9 / (time.perf_counter_ns() - start))
    return {"sim.kernel_events_per_s": median(rates)}


async def _loopback(messages: dict[str, Any]) -> dict[str, float]:
    """Two nodes on one ``TcpTransport`` in this loop, over real sockets."""
    transport = TcpTransport({"a": ("127.0.0.1", 0), "b": ("127.0.0.1", 0)})
    request, reply = messages["request"], messages["reply"]
    ping = Envelope(("a", "x"), "x", request)
    pong = Envelope(("b", "x"), "x", reply)
    got = {"a": 0, "b": 0}
    wake = asyncio.Event()
    echo = True

    def at_b(_src: str, _envelope: Any) -> None:
        got["b"] += 1
        if echo:
            transport.send("b", "a", pong, reply.wire_size())
        else:
            wake.set()

    def at_a(_src: str, _envelope: Any) -> None:
        got["a"] += 1
        wake.set()

    transport.register("a", at_a)
    transport.register("b", at_b)
    await transport.start()
    try:
        async def round_trip() -> None:
            wake.clear()
            transport.send("a", "b", ping, request.wire_size())
            await wake.wait()

        for _ in range(20):  # connect both directions, warm the path
            await round_trip()
        trips = []
        for _ in range(REPEATS):
            start = time.perf_counter_ns()
            for _ in range(100):
                await round_trip()
            trips.append((time.perf_counter_ns() - start) / 100 / 1e3)

        echo = False
        rates = []
        burst = 2_000
        for _ in range(REPEATS):
            target = got["b"] + burst
            start = time.perf_counter_ns()
            for _ in range(burst):
                transport.send("a", "b", ping, request.wire_size())
            while got["b"] < target:
                wake.clear()
                await wake.wait()
            rates.append(burst * 1e9 / (time.perf_counter_ns() - start))
    finally:
        await transport.stop()
    if transport.messages_dropped:
        raise AssertionError(f"loopback transport dropped {transport.messages_dropped} messages")
    return {"net.loopback_rtt_us": median(trips), "net.loopback_msgs_per_s": median(rates)}


def net(messages: dict[str, Any]) -> dict[str, float]:
    return asyncio.run(_loopback(messages))


def run_all() -> dict[str, float]:
    messages = corpus()
    metrics: dict[str, float] = {}
    for part in (wire, crypto, trinx, net):
        metrics.update(part(messages))
    metrics.update(services())
    metrics.update(sim_kernel())
    return metrics
