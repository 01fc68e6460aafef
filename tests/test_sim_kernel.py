"""Unit tests for the discrete-event kernel and event queue."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator


class TestEventQueue:
    def test_pop_returns_earliest(self):
        queue = EventQueue()
        order = []
        queue.push(30, order.append, (3,))
        queue.push(10, order.append, (1,))
        queue.push(20, order.append, (2,))
        while len(queue):
            queue.pop().fire()
        assert order == [1, 2, 3]

    def test_ties_resolved_in_insertion_order(self):
        queue = EventQueue()
        order = []
        for i in range(5):
            queue.push(7, order.append, (i,))
        while len(queue):
            queue.pop().fire()
        assert order == [0, 1, 2, 3, 4]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        order = []
        keep = queue.push(1, order.append, ("keep",))
        drop = queue.push(0, order.append, ("drop",))
        drop.cancel()
        queue.note_cancelled()
        assert len(queue) == 1
        assert queue.pop() is keep

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(5, lambda: None)
        queue.push(9, lambda: None)
        first.cancel()
        queue.note_cancelled()
        assert queue.peek_time() == 9

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_peek_empty_returns_none(self):
        assert EventQueue().peek_time() is None


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0

    def test_schedule_and_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, "a")
        sim.schedule(50, fired.append, "b")
        sim.run()
        assert fired == ["b", "a"]
        assert sim.now == 100

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=500)
        assert sim.now == 500

    def test_run_until_leaves_later_events_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, "early")
        sim.schedule(900, fired.append, "late")
        sim.run(until=500)
        assert fired == ["early"]
        assert sim.now == 500
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["early", "late"]

    def test_event_scheduled_during_run_executes(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if sim.now < 30:
                sim.schedule(10, chain)

        sim.schedule(10, chain)
        sim.run()
        assert fired == [10, 20, 30]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, fired.append, "x")
        sim.cancel(event)
        sim.run()
        assert fired == []
        assert sim.pending_events == 0

    def test_cancel_twice_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.pending_events == 0

    def test_max_events_bound(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(i, fired.append, i)
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_charge_without_meter_is_noop(self):
        sim = Simulator()
        sim.charge(1_000)  # must not raise

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_processed == 3


class TestTupleHeap:
    """``run`` drains ``(time, seq, event)`` heap entries in one loop."""

    def test_same_time_events_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []

        def spawn(tag):
            fired.append(tag)
            sim.schedule(0, fired.append, f"{tag}+0")  # joins the back of the instant

        for tag in "abc":
            sim.schedule(5, spawn, tag)
        sim.schedule_at(5, fired.append, "d")
        sim.run()
        assert fired == ["a", "b", "c", "d", "a+0", "b+0", "c+0"]
        assert sim.now == 5

    def test_cancelled_event_at_heap_top_is_skipped(self):
        sim = Simulator()
        fired = []
        first = sim.schedule(1, fired.append, "first")
        sim.schedule(2, fired.append, "second")
        sim.cancel(first)
        sim.run()
        assert fired == ["second"]
        assert sim.events_processed == 1

    def test_cancelled_event_deep_in_heap_is_skipped(self):
        sim = Simulator()
        fired = []
        events = [sim.schedule(t, fired.append, t) for t in range(1, 64)]
        for event in events[40:50]:
            sim.cancel(event)

        def cancel_later():
            sim.cancel(events[60])  # cancelled while the run is under way

        sim.schedule(30, cancel_later)
        sim.run()
        assert fired == [t for t in range(1, 64) if not 41 <= t <= 50 and t != 61]
        assert sim.pending_events == 0

    def test_run_until_advances_clock_past_the_last_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, "at-100")
        sim.schedule(300, fired.append, "at-300")
        sim.run(until=300)  # an event exactly at the horizon still fires
        assert fired == ["at-100", "at-300"]
        sim.schedule(50, fired.append, "at-350")
        sim.run(until=1_000)
        assert fired == ["at-100", "at-300", "at-350"]
        assert sim.now == 1_000

    def test_run_until_stops_before_later_events_then_resumes(self):
        sim = Simulator()
        fired = []
        for t in (10, 20, 30):
            sim.schedule(t, fired.append, t)
        cancelled = sim.schedule(25, fired.append, 25)
        sim.cancel(cancelled)
        sim.run(until=25)
        assert fired == [10, 20]
        assert sim.now == 25
        assert sim.pending_events == 1
        sim.run()
        assert fired == [10, 20, 30]
        assert sim.now == 30

    def test_max_events_stops_exactly_and_resumes(self):
        sim = Simulator()
        fired = []
        events = [sim.schedule(t, fired.append, t) for t in range(10)]
        sim.cancel(events[1])
        sim.cancel(events[2])
        sim.run(max_events=3)  # cancelled events do not count
        assert fired == [0, 3, 4]
        assert sim.now == 4
        assert sim.events_processed == 3
        sim.run(max_events=0)
        assert fired == [0, 3, 4]
        assert sim.step()
        assert fired == [0, 3, 4, 5]
        sim.run(max_events=100)
        assert fired == [0, 3, 4, 5, 6, 7, 8, 9]
        assert sim.events_processed == 8

    def test_pending_events_after_cancel(self):
        sim = Simulator()
        events = [sim.schedule(t, lambda: None) for t in (5, 1, 9, 3)]
        assert sim.pending_events == 4
        sim.cancel(events[2])
        sim.cancel(events[2])
        assert sim.pending_events == 3
        sim.run(max_events=1)
        assert sim.pending_events == 2
        sim.cancel(events[0])
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_processed == 2
