"""The discrete-event simulator kernel.

A :class:`Simulator` owns the virtual clock and the event queue.  All other
simulation objects (threads, NICs, timers) schedule callbacks through it.

The kernel also hosts the *active cost meter*: while a simulated thread runs
a protocol handler, crypto and trusted-subsystem objects report their CPU
cost through :meth:`Simulator.charge`, and the thread converts the total
into busy time.  Outside any handler (plain unit tests), charges are
silently dropped so protocol code can run without a simulator.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue

_NEVER = float("inf")


class Simulator:
    """Deterministic discrete-event loop with an integer-nanosecond clock."""

    def __init__(self) -> None:
        self.now: int = 0
        self._queue = EventQueue()
        self._running = False
        self.active_meter: "CostMeterProtocol | None" = None
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._queue.push(self.now + delay, callback, args)

    def schedule_at(self, time: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute timestamp."""
        if time < self.now:
            raise SimulationError(f"cannot schedule into the past (t={time} < now={self.now})")
        return self._queue.push(time, callback, args)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        if not event.cancelled:
            event.cancel()
            self._queue.note_cancelled()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next event.  Returns False if the queue was empty."""
        if len(self._queue) == 0:
            return False
        event = self._queue.pop()
        self.now = event.time
        self.events_processed += 1
        event.fire()
        return True

    def run(self, until: int | None = None, max_events: int | None = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been processed.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier, so back-to-back ``run`` calls
        observe a continuous timeline.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        queue = self._queue
        heap = queue.heap
        pop = heapq.heappop
        horizon = _NEVER if until is None else until
        budget = -1 if max_events is None else max(max_events, 0)  # -1: unbounded
        try:
            # step() inlined: this loop is the simulator's innermost one
            while budget and heap:
                entry = pop(heap)
                event = entry[2]
                if event.cancelled:
                    continue
                time = entry[0]
                if time > horizon:
                    heapq.heappush(heap, entry)  # same (time, seq): same place
                    break
                budget -= 1
                queue.live -= 1
                self.now = time
                self.events_processed += 1
                event.callback(*event.args)
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def charge(self, cost_ns: int) -> None:
        """Report CPU work performed by the currently running handler.

        The active :class:`~repro.sim.resources.CostMeter` (installed by the
        simulated thread that is executing the handler) accumulates the cost;
        if no meter is active the charge is dropped, which makes protocol
        logic usable in plain unit tests without a timing model.
        """
        if self.active_meter is not None:
            self.active_meter.add(cost_ns)


class CostMeterProtocol:
    """Structural interface for cost meters (see resources.CostMeter)."""

    def add(self, cost_ns: int) -> None:  # pragma: no cover - interface only
        raise NotImplementedError


class NullSimulator(Simulator):
    """A simulator whose clock never advances.

    Useful for exercising protocol logic in tests that do not care about
    timing: scheduled events can still be run manually via :meth:`step`.
    """
