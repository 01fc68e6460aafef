"""Open-loop load on an absolute schedule, timed from the due time.

``repro.gateway.GatewayStage`` asks its arrival process for the gap to
the next arrival *after* it has handled the previous one, so in live
mode every gap is stretched by the handling time and by timer lateness:
a configured 2400 ops/s offers 847 ops/s (see bench/README.md).  That is
coordinated omission.  The benchmark corrects it from outside:

* :class:`ScheduledArrivals` is an ``ArrivalProcess`` over a schedule of
  due times generated from the seed before the run; it answers
  ``next_gap_ns(now)`` with ``max(1, due[i+1] - now)``, so a late
  generator catches up instead of drifting.
* :class:`DueTimeLedger` wraps the per-session workloads: the gateway
  calls ``next_operation`` exactly once per fired arrival, which is where
  the ledger notes which due time that arrival had.  Completions, sheds
  and failures come from the deployment's ``Tracer``; latency is
  completion time minus *due* time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.clients.workload import Workload
from repro.loadgen.arrivals import ArrivalProcess
from repro.sim.tracing import Tracer

NS = 1_000_000_000
TRACE_CATEGORIES = {"bench-arrival", "client-complete", "gateway-shed", "gateway-failed"}
_FAR_FUTURE_NS = 3600 * NS


@dataclass(frozen=True)
class Rung:
    """One constant-rate stretch of the schedule."""

    rate_ops: int
    start_ns: int       # offset of the first possible arrival from the schedule origin
    warmup_ns: int      # arrivals due in [start, start + warmup) are sent but not measured
    measure_ns: int

    @property
    def measure_start_ns(self) -> int:
        return self.start_ns + self.warmup_ns

    @property
    def end_ns(self) -> int:
        return self.measure_start_ns + self.measure_ns


def build_schedule(rungs: list[Rung], seed: int) -> list[int]:
    """Due times (ns from the origin) of every arrival of every rung.

    Within a rung the arrivals are a Poisson process conditioned on its
    count: ``rate * duration`` independent uniform draws, sorted, for the
    warm-up and for the measured part separately.  The gaps are
    exponential in the limit, and every seed offers exactly the same
    number of measured requests.
    """
    due: list[int] = []
    for index, rung in enumerate(rungs):
        rng = random.Random(f"{seed}/rung{index}")
        for start, span in ((rung.start_ns, rung.warmup_ns), (rung.measure_start_ns, rung.measure_ns)):
            count = rung.rate_ops * span // NS
            due.extend(sorted(start + rng.randrange(span) for _ in range(count)))
    return due


class ScheduledArrivals(ArrivalProcess):
    """Fires arrival ``i`` at ``origin + due[i]``, however late the last one ran."""

    def __init__(self, due_ns: list[int]):
        self.due_ns = due_ns
        self.origin_ns: int | None = None
        self._next = 0

    def next_gap_ns(self, now_ns: int) -> int:
        if self.origin_ns is None:
            self.origin_ns = now_ns  # the gateway's start() asks for the first gap
        if self._next >= len(self.due_ns):
            return _FAR_FUTURE_NS
        due = self.origin_ns + self.due_ns[self._next]
        self._next += 1
        return max(1, due - now_ns)


class _LedgerWorkload(Workload):
    def __init__(self, inner: Workload, client_id: str, ledger: "DueTimeLedger"):
        self.inner = inner
        self.client_id = client_id
        self.ledger = ledger

    def setup_operations(self) -> list[tuple[Any, int]]:
        return self.inner.setup_operations()

    def next_operation(self, request_index: int) -> tuple[Any, int]:
        self.ledger.arrival_fired(self.client_id)
        return self.inner.next_operation(request_index)


@dataclass
class Outcome:
    """What became of the arrivals due inside one measured interval."""

    scheduled: int = 0
    offered: int = 0            # arrivals the gateway actually fired
    shed: int = 0
    failed: int = 0
    unfinished: int = 0         # admitted, but no reply by the end of the drain
    latencies_ns: list[int] = field(default_factory=list)   # completion - due
    due_ns: list[int] = field(default_factory=list)         # due time of each latency sample
    lags_ns: list[int] = field(default_factory=list)        # fire time - due
    lag_due_ns: list[int] = field(default_factory=list)     # due time of each lag sample


class DueTimeLedger:
    """Joins fired arrivals, by due time, with what the tracer saw of them."""

    def __init__(self, arrivals: ScheduledArrivals, clock: Callable[[], int]):
        self.arrivals = arrivals
        self.clock = clock
        self.tracer = Tracer(enabled=True, categories=TRACE_CATEGORIES)
        self._fired = 0

    def workload_factory(self, inner_factory: Callable[[str, int], Workload]):
        def factory(client_id: str, index: int) -> Workload:
            return _LedgerWorkload(inner_factory(client_id, index), client_id, self)

        return factory

    def arrival_fired(self, client_id: str) -> None:
        self.tracer.emit(self.clock(), "bench", "bench-arrival", (client_id, self._fired))
        self._fired += 1

    def outcome(self, start_ns: int, end_ns: int) -> Outcome:
        """Account for every arrival due in ``[start_ns, end_ns)`` of the schedule."""
        origin = self.arrivals.origin_ns or 0
        due = self.arrivals.due_ns
        wanted = {i for i, t in enumerate(due) if start_ns <= t < end_ns}
        result = Outcome(scheduled=len(wanted))
        admitted: dict[str, list[int]] = {}  # client id -> arrival index by request id
        open_arrivals: set[int] = set()
        for record in self.tracer.records:
            detail = record.detail
            if record.category == "bench-arrival":
                client_id, index = detail
                admitted.setdefault(client_id, []).append(index)
                if index in wanted:
                    result.offered += 1
                    result.lags_ns.append(record.time_ns - origin - due[index])
                    result.lag_due_ns.append(due[index])
                    open_arrivals.add(index)
            elif record.category == "gateway-shed":
                # shed inside the arrival handler: it is that session's newest arrival
                index = admitted[detail[0]].pop()
                if index in open_arrivals:
                    open_arrivals.discard(index)
                    result.shed += 1
            else:
                client_id, request_id = detail[0], detail[1]
                index = admitted[client_id][request_id]
                if index not in open_arrivals:
                    continue
                open_arrivals.discard(index)
                if record.category == "gateway-failed":
                    result.failed += 1
                else:
                    result.latencies_ns.append(record.time_ns - origin - due[index])
                    result.due_ns.append(due[index])
        result.unfinished = len(open_arrivals)
        return result
