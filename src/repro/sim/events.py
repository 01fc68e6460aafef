"""Event queue for the discrete-event simulator.

Heap entries are ``(time, seq, event)`` tuples where the sequence number is
a monotonically increasing insertion counter.  Ties in time are therefore
resolved in FIFO order, which keeps simulations deterministic without any
dependence on callback identity or hash ordering; and since no two entries
share a sequence number, the heap orders them by C tuple comparison and
never compares two :class:`Event` objects.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SimulationError


class Event:
    """A scheduled callback and its cancel handle.

    Events are created through :meth:`repro.sim.kernel.Simulator.schedule`
    and may be cancelled via :meth:`cancel` before they fire.  Cancelled
    events stay in the heap but are skipped when popped.
    """

    __slots__ = ("time", "callback", "args", "cancelled")

    def __init__(self, time: int, callback: Callable[..., None], args: tuple[Any, ...]):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        self.cancelled = True

    def fire(self) -> None:
        """Invoke the callback.  Called by the kernel only."""
        self.callback(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time}{state} {getattr(self.callback, '__qualname__', self.callback)}>"


class EventQueue:
    """A binary-heap priority queue of ``(time, seq, Event)`` entries.

    :meth:`repro.sim.kernel.Simulator.run` drains ``heap`` directly; it
    must keep ``live`` in step with every live entry it pops.
    """

    def __init__(self) -> None:
        self.heap: list[tuple[int, int, Event]] = []
        self._seq = 0
        self.live = 0

    def __len__(self) -> int:
        return self.live

    def push(self, time: int, callback: Callable[..., None], args: tuple[Any, ...] = ()) -> Event:
        """Insert a new event and return its handle."""
        event = Event(time, callback, args)
        heapq.heappush(self.heap, (time, self._seq, event))
        self._seq += 1
        self.live += 1
        return event

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event."""
        heap = self.heap
        while heap:
            event = heapq.heappop(heap)[2]
            if event.cancelled:
                continue
            self.live -= 1
            return event
        raise SimulationError("pop() from an empty event queue")

    def peek_time(self) -> int | None:
        """Return the timestamp of the next live event, or None if empty."""
        heap = self.heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def note_cancelled(self) -> None:
        """Account for an externally cancelled event (keeps __len__ honest)."""
        self.live -= 1
