"""The chaos filter library: drops, delays, partitions, reordering,
whole-node crash/recovery, and equivocation attempts.

These filters are deliberately transport-agnostic — the same instances
drive the simulated network and the live TCP transport:

* :class:`LossRate` — drop a random fraction of messages (seeded RNG).
* :class:`Partition` — isolate a set of nodes during a time window.
* :class:`TargetedDrop` — drop messages matching a predicate (used to
  build the Figure-3 scenario, e.g. "R2 receives no ordering messages").
* :class:`ExtraDelay` — add constant or random latency between node pairs.
* :class:`Reorder` — delay a random fraction of messages by a random
  amount, so they overtake each other (partial synchrony's reordering).
* :class:`CrashWindows` — silence a whole node (no sends, no receives)
  during one or more windows; when a window closes the node *recovers*
  with its state intact and catches up through retransmissions and state
  transfer.
* :class:`Equivocate` — tamper with a proposer's PREPAREs towards a
  subset of peers while the rest receive the genuine message: the classic
  equivocation attempt that TrInX counter certificates must expose.
* :class:`ChaosPlan` — compose several filters.

Time (``now``) is nanoseconds on whichever clock the host transport uses:
simulated time in the discrete-event network, monotonic wall-clock time
since transport construction in live mode.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Any, Callable, Iterable

from repro.chaos.base import DELIVER, FilterDecision
from repro.sim.rand import DeterministicRandom


class LossRate:
    """Drop each message independently with probability ``rate``."""

    def __init__(self, rate: float, seed: int = 0, pairs: set[tuple[str, str]] | None = None):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.pairs = pairs
        self._rng = DeterministicRandom(seed)

    def decide(self, src: str, dst: str, message: Any, size: int, now: int) -> FilterDecision:
        if self.pairs is not None and (src, dst) not in self.pairs:
            return DELIVER
        if self._rng.random() < self.rate:
            return FilterDecision(drop=True)
        return DELIVER


class Partition:
    """Cut all traffic to and from ``nodes`` during [start_ns, end_ns)."""

    def __init__(self, nodes: Iterable[str], start_ns: int = 0, end_ns: int | None = None):
        self.nodes = set(nodes)
        self.start_ns = start_ns
        self.end_ns = end_ns

    def active(self, now: int) -> bool:
        if now < self.start_ns:
            return False
        return self.end_ns is None or now < self.end_ns

    def decide(self, src: str, dst: str, message: Any, size: int, now: int) -> FilterDecision:
        if self.active(now) and (src in self.nodes) != (dst in self.nodes):
            return FilterDecision(drop=True)
        return DELIVER


class TargetedDrop:
    """Drop messages for which ``predicate(src, dst, message)`` is true."""

    def __init__(self, predicate: Callable[[str, str, Any], bool]):
        self.predicate = predicate
        self.dropped = 0

    def decide(self, src: str, dst: str, message: Any, size: int, now: int) -> FilterDecision:
        if self.predicate(src, dst, message):
            self.dropped += 1
            return FilterDecision(drop=True)
        return DELIVER


class ExtraDelay:
    """Add latency between node pairs: constant plus optional jitter."""

    def __init__(
        self,
        delay_ns: int,
        jitter_ns: int = 0,
        seed: int = 0,
        pairs: set[tuple[str, str]] | None = None,
    ):
        if delay_ns < 0 or jitter_ns < 0:
            raise ValueError("delays must be non-negative")
        self.delay_ns = delay_ns
        self.jitter_ns = jitter_ns
        self.pairs = pairs
        self._rng = DeterministicRandom(seed)

    def decide(self, src: str, dst: str, message: Any, size: int, now: int) -> FilterDecision:
        if self.pairs is not None and (src, dst) not in self.pairs:
            return DELIVER
        extra = self.delay_ns
        if self.jitter_ns:
            extra += self._rng.randint(0, self.jitter_ns)
        return FilterDecision(extra_delay_ns=extra)


class Reorder:
    """Delay a random ``fraction`` of messages by a random amount.

    A held-back message is overtaken by everything sent in the meantime,
    which is exactly the reordering a partially synchronous network may
    exhibit.  Protocol stages must therefore tolerate, e.g., COMMITs
    arriving before their PREPARE.
    """

    def __init__(
        self,
        fraction: float,
        delay_ns: int,
        jitter_ns: int = 0,
        seed: int = 0,
        pairs: set[tuple[str, str]] | None = None,
    ):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"reorder fraction must be in [0, 1], got {fraction}")
        if delay_ns < 0 or jitter_ns < 0:
            raise ValueError("delays must be non-negative")
        self.fraction = fraction
        self.delay_ns = delay_ns
        self.jitter_ns = jitter_ns
        self.pairs = pairs
        self._rng = DeterministicRandom(seed)
        self.reordered = 0

    def decide(self, src: str, dst: str, message: Any, size: int, now: int) -> FilterDecision:
        if self.pairs is not None and (src, dst) not in self.pairs:
            return DELIVER
        if self._rng.random() >= self.fraction:
            return DELIVER
        self.reordered += 1
        extra = self.delay_ns
        if self.jitter_ns:
            extra += self._rng.randint(0, self.jitter_ns)
        return FilterDecision(extra_delay_ns=extra)


class CrashWindows:
    """Fail-stop a whole node during windows; it recovers when one closes.

    While a window is active the node neither sends nor receives — the
    live analogue of SIGSTOP plus unplugged cables.  Unlike a permanent
    partition, the schedule *ends*: the node comes back with its protocol
    state intact and rejoins through retransmissions, FILL-GAP nudges,
    checkpoints, and state transfer.
    """

    def __init__(self, node: str, windows: Iterable[tuple[int, int | None]]):
        self.node = node
        self.windows = [(start, end) for start, end in windows]
        self.dropped = 0

    def crashed(self, now: int) -> bool:
        for start, end in self.windows:
            if now >= start and (end is None or now < end):
                return True
        return False

    def decide(self, src: str, dst: str, message: Any, size: int, now: int) -> FilterDecision:
        if (src == self.node or dst == self.node) and self.crashed(now):
            self.dropped += 1
            return FilterDecision(drop=True)
        return DELIVER


class Equivocate:
    """Tamper with a proposer's PREPAREs towards ``victims``.

    Models the classic equivocation attempt of a faulty leader: peers in
    ``victims`` receive a PREPARE whose batch was swapped for a forged
    request while the genuine certificate is kept attached; everyone else
    receives the real message.  Because Hybster's independent counter
    certificates bind the certificate to the message digest, verifying
    replicas reject the tampered copy and the attack degrades into an
    omission — unless certificate verification is switched off, in which
    case the safety checker must catch the resulting divergence.

    ``forged_operation`` is the service operation planted in the forged
    request (pick one the scenario's service accepts so the divergence is
    observable, e.g. ``("add", 666)`` for the counter service).
    """

    def __init__(
        self,
        source: str,
        victims: Iterable[str],
        forged_operation: Any = ("add", 666),
        start_ns: int = 0,
        end_ns: int | None = None,
        max_attempts: int | None = None,
    ):
        self.source = source
        self.victims = set(victims)
        self.forged_operation = forged_operation
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.max_attempts = max_attempts
        self.attempts = 0

    def active(self, now: int) -> bool:
        if now < self.start_ns:
            return False
        if self.end_ns is not None and now >= self.end_ns:
            return False
        return self.max_attempts is None or self.attempts < self.max_attempts

    def decide(self, src: str, dst: str, message: Any, size: int, now: int) -> FilterDecision:
        if src != self.source or dst not in self.victims or not self.active(now):
            return DELIVER
        # Local imports: keep the chaos package importable without pulling
        # the whole protocol stack in at module load.
        from repro.messages.client import Request
        from repro.messages.ordering import Prepare
        from repro.sim.process import Envelope

        inner = getattr(message, "message", message)
        if not isinstance(inner, Prepare) or inner.certificate is None or not inner.batch:
            return DELIVER
        self.attempts += 1
        original = inner.batch[0]
        forged_request = Request(
            original.client_id,
            original.request_id,
            self.forged_operation,
            original.payload_size,
            original.mac,
        )
        forged = dc_replace(inner, batch=(forged_request,) + inner.batch[1:])
        if isinstance(message, Envelope):
            return FilterDecision(replace=Envelope(message.src, message.dst_stage, forged))
        return FilterDecision(replace=forged)


class ChaosPlan:
    """Compose filters: first drop wins, delays accumulate, last replace wins."""

    def __init__(self, filters: Iterable[Any] = ()):
        self.filters = list(filters)

    def add(self, message_filter: Any) -> None:
        self.filters.append(message_filter)

    def decide(self, src: str, dst: str, message: Any, size: int, now: int) -> FilterDecision:
        total_delay = 0
        replacement = None
        for message_filter in self.filters:
            decision = message_filter.decide(src, dst, message, size, now)
            if decision.drop:
                return decision
            total_delay += decision.extra_delay_ns
            if decision.replace is not None:
                replacement = decision.replace
                message = decision.replace
        if total_delay or replacement is not None:
            return FilterDecision(extra_delay_ns=total_delay, replace=replacement)
        return DELIVER
