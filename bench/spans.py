"""Group C of the per-layer ledger: spans recorded from outside the program.

``SpanRecorder.install`` replaces, at run time and from this file only,
the public callables at each layer boundary with timing wrappers:

========  ============================================================
layer     callables wrapped
========  ============================================================
net       ``TcpTransport.send/multicast`` (live), ``Network.send/multicast`` (sim)
wire      ``WireCodec.encode_envelope/decode_envelope``, ``FrameReader.feed``
core      handlers submitted to a replica thread (``LiveThread.submit`` /
          ``SimThread.submit``): every pillar, handler, exec and replier
          ``on_message`` and timer callback
clients   handlers submitted to a client thread
gateway   handlers submitted to a gateway thread
crypto    ``CryptoProvider`` methods and the free digest/MAC functions
trinx     ``TrInX.create_*`` / ``verify*`` and ``batch_root``
services  ``execute`` of every registered service
sim       ``Simulator.run`` (self time = event queue and thread model)
scenarios ``check_safety`` (the trace-replay safety checker)
========  ============================================================

A span is (id, parent id, layer, name, start, end).  A layer's *self
time* is the duration of its spans minus the part their child spans
cover; whatever part of the window no span covers is the event loop
itself (socket reads and writes, task switches, timers) and is reported
as unattributed, so the ledger sums to the window.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

LAYERS = (
    "wire", "crypto", "trinx", "net", "core", "clients", "gateway", "services", "sim", "scenarios",
)

# Spans beyond this many are still timed and attributed, but not kept for
# the JSONL file: a saturated window produces a few hundred thousand.
MAX_KEPT_SPANS = 200_000


def _thread_layer(thread_name: str) -> str:
    node = thread_name.split("/", 1)[0]
    if node.startswith("clients"):
        return "clients"
    if node.startswith("gw"):
        return "gateway"
    return "core"


class SpanRecorder:
    """Times the wrapped callables while ``enabled``; restores them on uninstall."""

    def __init__(self) -> None:
        self.enabled = False
        self.self_ns: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, int, str, str, int, int]] = []
        self._stack: list[list[int]] = []  # [child_ns, span_id] per open span
        self._next_id = 0
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _timed(self, original: Callable, layer: str, name: str) -> Callable:
        clock = time.perf_counter_ns
        stack = self._stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return original(*args, **kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [0, span_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                self.self_ns[layer] += took - frame[0]
                if parent is not None:
                    parent[0] += took
                if len(self.spans) < MAX_KEPT_SPANS:
                    self.spans.append(
                        (span_id, parent[1] if parent is not None else -1, layer, name, start, end)
                    )

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap_methods(self, cls: type, layer: str, names: tuple[str, ...]) -> None:
        for name in names:
            self._patch(cls, name, self._timed(cls.__dict__[name], layer, f"{cls.__name__}.{name}"))

    def _wrap_function(self, module: Any, name: str, layer: str) -> None:
        """Wrap a free function wherever a repro module holds a reference to it."""
        original = getattr(module, name)
        timed = self._timed(original, layer, f"{module.__name__.rsplit('.', 1)[-1]}.{name}")
        for holder in list(sys.modules.values()):
            if holder is None or not getattr(holder, "__name__", "").startswith("repro."):
                continue
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._patch(holder, attr, timed)

    def _wrap_submit(self, thread_cls: type) -> None:
        original_submit = thread_cls.__dict__["submit"]
        timed = self._timed

        def submit(thread: Any, handler: Callable[[Any], None], arg: Any = None) -> None:
            if self.enabled:
                owner = getattr(handler, "__self__", None)
                stage = getattr(owner, "name", "") or type(owner).__name__
                handler = timed(handler, _thread_layer(thread.name), f"{stage}.{handler.__name__}")
            original_submit(thread, handler, arg)

        self._patch(thread_cls, "submit", submit)

    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.crypto import digests, mac
        from repro.crypto.provider import CryptoProvider
        from repro.net.transport import TcpTransport
        from repro.runtime.deployment import SERVICES
        from repro.runtime.live import LiveThread
        from repro.scenarios import safety
        from repro.sim.kernel import Simulator
        from repro.sim.network import Network
        from repro.sim.resources import SimThread
        from repro.trinx import trinx
        from repro.wire.codec import WireCodec
        from repro.wire.framing import FrameReader

        self._wrap_methods(TcpTransport, "net", ("send", "multicast"))
        self._wrap_methods(Network, "net", ("send", "multicast"))
        self._wrap_methods(WireCodec, "wire", ("encode_envelope", "decode_envelope"))
        self._wrap_methods(FrameReader, "wire", ("feed",))
        self._wrap_methods(
            CryptoProvider, "crypto",
            ("digest", "compute_mac", "verify_mac", "compute_mac_batch", "digest_batch"),
        )
        self._wrap_methods(
            trinx.TrInX, "trinx",
            ("create_continuing", "create_independent", "create_independent_batch",
             "create_trusted_mac", "create_multi_continuing", "verify", "verify_batch",
             "verify_multi"),
        )
        for service in set(SERVICES.values()):
            self._wrap_methods(service, "services", ("execute",))
        self._wrap_methods(Simulator, "sim", ("run",))
        self._wrap_submit(LiveThread)
        self._wrap_submit(SimThread)
        self._wrap_function(digests, "digest", "crypto")
        for name in ("compute_mac", "compute_mac_many", "digest_many", "verify_mac"):
            self._wrap_function(mac, name, "crypto")
        self._wrap_function(trinx, "batch_root", "trinx")
        self._wrap_function(safety, "check_safety", "scenarios")

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    def ledger_us_per_op(self, window_ns: int, ops: int) -> dict[str, float]:
        """``trace.*_us_per_op`` for every layer plus the unattributed rest."""
        ops = max(1, ops)
        ledger = {f"trace.{layer}_us_per_op": self.self_ns[layer] / 1e3 / ops for layer in LAYERS}
        covered = sum(self.self_ns[layer] for layer in LAYERS)
        ledger["trace.unattributed_us_per_op"] = (window_ns - covered) / 1e3 / ops
        return ledger

    def write_jsonl(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, layer, name, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer, "name": name,
                    "start_ns": start, "end_ns": end,
                }))
                out.write("\n")
        return len(self.spans)
