"""Transport-agnostic chaos injection.

The paper's system model is partially synchronous with up to f hybrid
faults; this package creates exactly those conditions behind the shared
:class:`~repro.net.base.Transport` seam, so the *same* fault filter
objects plug into the discrete-event :class:`~repro.sim.network.Network`
(``add_filter``) and into the live asyncio
:class:`~repro.net.transport.TcpTransport` (``add_filter``).  Protocol
code never sees the difference: messages are dropped, delayed, reordered,
or tampered with before they reach the wire.

Filters inspect ``(src, dst, message, size, now)`` — ``message`` is the
:class:`~repro.sim.process.Envelope` both transports carry — and return a
:class:`FilterDecision`: deliver, drop, deliver after an extra delay, or
deliver a *replacement* message (the tampering primitive equivocation
attacks are built from).
"""

from repro.chaos.base import DELIVER, FilterDecision, MessageFilter
from repro.chaos.filters import (
    ChaosPlan,
    CrashWindows,
    Equivocate,
    ExtraDelay,
    LossRate,
    Partition,
    Reorder,
    TargetedDrop,
)

__all__ = [
    "DELIVER",
    "FilterDecision",
    "MessageFilter",
    "ChaosPlan",
    "CrashWindows",
    "Equivocate",
    "ExtraDelay",
    "LossRate",
    "Partition",
    "Reorder",
    "TargetedDrop",
]
