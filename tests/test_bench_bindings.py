"""The names the benchmark (``bench/``) binds to in the program.

``bench/`` reaches into ``src/`` from outside: it wraps methods by name
to time them, runs the corpus through the codec and reads counters off a
built deployment.  A rename or a changed signature there breaks the
benchmark, not the program, so these checks run with the unit tests.
Nothing in ``bench/`` is modified.
"""

from __future__ import annotations

import sys

from bench import counters, spans
from bench.layers import corpus
from bench.live import closed_loop_spec
from repro.runtime.live import build_live_deployment
from repro.wire.codec import WireCodec
from repro.wire.framing import FrameReader


def _repro_namespaces() -> dict[str, dict]:
    """Every attribute of every loaded ``repro`` module and of the classes they define."""
    namespaces = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro.") or module is None:
            continue
        namespaces[name] = dict(vars(module))
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == name:
                namespaces[f"{name}.{attr}"] = dict(vars(value))
    return namespaces


def test_span_recorder_installs_and_restores_every_patch():
    recorder = spans.SpanRecorder()
    recorder.install()  # imports what it wraps; the second install is the one checked
    recorder.uninstall()
    before = _repro_namespaces()
    try:
        recorder.install()
        patched = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in recorder._patched}
    finally:
        recorder.uninstall()
    for expected in [
        ("TcpTransport", "send"),
        ("TcpTransport", "multicast"),
        ("WireCodec", "encode_envelope"),
        ("WireCodec", "decode_envelope"),
        ("FrameReader", "feed"),
        ("LiveThread", "submit"),
    ]:
        assert expected in patched
    after = _repro_namespaces()
    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[name].get(attr) is value, f"{name}.{attr} not restored"


def test_corpus_round_trips_through_decode_envelope_of_bytes():
    codec = WireCodec()
    for name, message in corpus().items():
        frame = codec.encode_envelope("r0", "pillar0", "pillar0", message)
        assert isinstance(frame, bytes)
        assert codec.decode_envelope(frame) == ("r0", "pillar0", "pillar0", message), name


def test_frame_reader_returns_the_whole_layers_mix():
    codec = WireCodec()
    frames = {
        name: codec.encode_envelope("r0", "pillar0", "pillar0", message)
        for name, message in corpus().items()
    }
    mix = [frames[name] for name in ("request", "prepare_b1", "commit", "commit", "reply", "reply", "reply", "commit")] * 8
    assert len(FrameReader().feed(b"".join(mix))) == len(mix)


def test_counters_snapshot_of_a_built_live_deployment():
    deployment = build_live_deployment(closed_loop_spec("live_unbatched", 1))
    snapshot = counters.snapshot(deployment)
    assert len(snapshot) == 19
    assert all(isinstance(value, (int, float)) for value in snapshot.values())
    assert snapshot["reconnects"] == 0 and snapshot["frames_sent"] == 0
