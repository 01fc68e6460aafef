"""Live workloads: 3 replicas, their clients and the gateway in one process.

Deployment under test: ``build_live_deployment(local_nodes=None)`` — the
whole group on one asyncio loop over loopback TCP, no injected delay.
With everything on one loop the process is CPU-bound, so
``1e6 / throughput_ops`` is the CPU time the whole stack spends per
committed request.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Awaitable, Callable

from bench import counters
from bench.openloop import NS, DueTimeLedger, Outcome, Rung, ScheduledArrivals, build_schedule
from bench.result import Measured
from bench.spans import SpanRecorder
from bench.stats import MIN_TAIL_SAMPLES, TooFewSamples, percentile, slice_count, steady_p99
from repro.clients.stats import LatencyStats
from repro.clients.workload import KeyValueWorkload, NullWorkload
from repro.gateway.config import GatewayConfig
from repro.net.peer import PeerConfig
from repro.runtime.deployment import DeploymentSpec
from repro.runtime.live import LiveDeployment, build_live_deployment
from repro.sim.rand import derive_seed

WARMUP_S = 2.0
DRAIN_S = 3.0
SLO_LIMIT_MS = 100.0
RUNG_RATES = (200, 600, 1500)      # ops/s; the first is the reference rung
RUNG_WARMUP_S = 1.0
RUNG_PAUSE_S = 0.5                 # silence between rungs, so one drains before the next
POLL_S = 0.02
COLLECT_S = 0.25                   # closed loop: latency samples are gathered this often, to keep their order in time
# "no growing backlog": generator lag and admission-queue depth over the last
# fifth of a rung may exceed those over its middle fifth by 10 % plus these
# floors (a tenth of the latency limit, an eighth of the in-flight window),
# below which a difference between two fifths of a rung is noise.
LAG_FLOOR_MS = SLO_LIMIT_MS / 10
QUEUE_FLOOR = 8


def closed_loop_spec(name: str, seed: int) -> DeploymentSpec:
    if name == "live_unbatched":
        def kv(client_id: str, index: int) -> KeyValueWorkload:
            return KeyValueWorkload(
                client_id, keys=16, seed=derive_seed(seed, "workload", client_id)
            )

        return DeploymentSpec(
            protocol="hybster-x", cores=2, batch_size=1, service="kv", num_clients=8,
            client_window=8, client_machines=1, seed=seed, workload_factory=kv,
        )
    if name == "live_batched_1k":
        return DeploymentSpec(
            protocol="hybster-x", cores=2, batch_size=16, service="null", num_clients=8,
            client_window=16, client_machines=1, payload_size=1024, reply_payload_size=1024,
            seed=seed,
        )
    raise KeyError(name)


def gateway_spec(seed: int) -> DeploymentSpec:
    return DeploymentSpec(
        protocol="hybster-x", cores=2, batch_size=16, service="null", num_clients=0,
        seed=seed,
        gateway=GatewayConfig(
            gateways=1, sessions=200, arrivals="poisson", rate_ops=float(RUNG_RATES[0]),
            queue_capacity=1024, max_outstanding=64,
        ),
    )


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
async def start(deployment: LiveDeployment) -> None:
    """Bind, connect, start the load and wait for the first completed request."""
    await deployment.start()
    deployment.start_clients()
    while deployment.total_completed() == 0:
        await asyncio.sleep(0.001)


async def setup_probe(spec: DeploymentSpec, announce: Callable[[], None]) -> None:
    """What ``setup_s`` times: build, start, first completed request."""
    deployment = build_live_deployment(spec)
    try:
        await start(deployment)
        announce()
    finally:
        deployment.stop_clients()
        await deployment.stop()


@dataclass
class Mark:
    """Clocks and counters at one instant."""

    wall_ns: int
    cpu_ns: int
    completed: int

    @classmethod
    def now(cls, deployment: LiveDeployment) -> "Mark":
        return cls(time.perf_counter_ns(), time.process_time_ns(), deployment.total_completed())

    def ops_per_s(self, since: "Mark") -> float:
        return (self.completed - since.completed) * 1e9 / (self.wall_ns - since.wall_ns)

    def cpu_us_per_op(self, since: "Mark") -> float:
        return (self.cpu_ns - since.cpu_ns) / 1e3 / max(1, self.completed - since.completed)


def window_metrics(first: Mark, last: Mark, latencies_ms: list[float]) -> dict[str, float]:
    """The timed end-to-end metrics of one window, from its two marks and
    every latency sample in it (in time order): totals and the median over
    the whole window, so that a stall anywhere in it moves them; the p99 as
    ``steady_p99`` reads it."""
    return {
        "throughput_ops": last.ops_per_s(first),
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p99_ms": steady_p99(latencies_ms),
        "cpu_us_per_op": last.cpu_us_per_op(first),
    }


def p99_note(latencies_ms: list[float]) -> str:
    return (f"latency_p99_ms is the lower quartile of the p99 of "
            f"{slice_count(len(latencies_ms))} consecutive slices; "
            f"over the whole window the p99 is {percentile(latencies_ms, 99):.2f} ms")


def check_group(deployment: LiveDeployment, group_a: dict[str, float], completed: int) -> list[str]:
    """Output checks of a fault-free live run; returns the failures."""
    failures = []
    digests = {str(replica.service.state_digestible()) for replica in deployment.replicas}
    if len(digests) != 1:
        failures.append(f"replica states diverged after drain: {len(digests)} distinct digests")
    views = [replica.current_view for replica in deployment.replicas]
    if any(views):
        failures.append(f"fault-free run left view 0: views {views}")
    if group_a["handler_errors"]:
        failures.append(f"{group_a['handler_errors']:.0f} handler errors")
    if group_a["decode_errors"]:
        failures.append(f"{group_a['decode_errors']:.0f} decode errors")
    executed = min(replica.execution.executed_requests for replica in deployment.replicas)
    if executed < completed:
        failures.append(f"executed {executed} < completed {completed}")
    return failures


def layer_metrics(group_a: dict[str, float], wall_ns: int, ops: int) -> dict[str, float]:
    """Group A per-request numbers of a live window."""
    ops = max(1, ops)
    us = lambda key: group_a[key] / 1e3 / ops  # noqa: E731
    stage_busy = sum(group_a[f"busy_ns.{group}"] for group in counters.STAGE_GROUPS)
    return {
        "trinx.enclave_calls_per_op": group_a["enclave_calls"] / ops,
        "net.frames_per_op": group_a["frames_sent"] / ops,
        "net.bytes_per_op": group_a["bytes_sent"] / ops,
        "net.send_queue_drops": group_a["send_queue_drops"],
        "net.decode_errors": group_a["decode_errors"],
        "net.reconnects": group_a["reconnects"],
        "core.pillar_busy_us_per_op": us("busy_ns.pillar"),
        "core.handler_busy_us_per_op": us("busy_ns.handler"),
        "core.execution_busy_us_per_op": us("busy_ns.exec"),
        "core.replier_busy_us_per_op": us("busy_ns.replier"),
        "core.batch_fill": group_a["executed_requests"] / max(1.0, group_a["executed_instances"]),
        "core.view_changes": group_a["view_changes"],
        "clients.busy_us_per_op": us("busy_ns.clients"),
        "clients.retries": group_a["retries"],
        "gateway.busy_us_per_op": us("busy_ns.gateway"),
        "runtime.handlers_per_op": group_a["handlers_run"] / ops,
        "runtime.handler_errors": group_a["handler_errors"],
        # what the event loop spends outside any stage handler: socket
        # reads and writes, frame decoding, task switches
        "runtime.loop_other_us_per_op": (wall_ns - stage_busy) / 1e3 / ops,
    }


async def traced_stretch(
    deployment: LiveDeployment, recorder: SpanRecorder, wait: Callable[[], Awaitable[None]]
) -> tuple[Mark, Mark, dict[str, float]]:
    """Record spans until ``wait()`` returns; the marks around it and the ledger."""
    recorder.install()
    try:
        first = Mark.now(deployment)
        recorder.enabled = True
        await wait()
        recorder.enabled = False
        last = Mark.now(deployment)
    finally:
        recorder.uninstall()
    ledger = recorder.ledger_us_per_op(last.wall_ns - first.wall_ns, last.completed - first.completed)
    return first, last, ledger


# ----------------------------------------------------------------------
# Closed loop: 8 clients keep their windows full
# ----------------------------------------------------------------------
async def run_closed_loop(
    name: str, seed: int, seconds: float, recorder: SpanRecorder | None
) -> Measured:
    """Warm up, then measure one window of ``seconds``.

    With a recorder the window is half as long and a traced stretch of the
    same length follows it: the window yields the counters (group A) and the
    untraced throughput the tracing overhead is measured against.
    """
    spec = closed_loop_spec(name, seed)
    deployment = build_live_deployment(spec)
    result = Measured()
    try:
        await start(deployment)
        await asyncio.sleep(WARMUP_S)

        window_s = seconds / 2 if recorder else seconds
        steps = max(1, round(window_s / COLLECT_S))
        latencies: list[float] = []

        def collect() -> None:
            """Move every sample recorded since the last call to ``latencies``."""
            for client in deployment.clients:
                latencies.extend(ns / 1e6 for ns in client.stats.to_json()["samples_ns"])
                client.stats = LatencyStats(reservoir_size=100_000)  # keeps every sample of a step

        collect()
        latencies.clear()
        before = counters.snapshot(deployment)
        first = Mark.now(deployment)
        for _ in range(steps):
            await asyncio.sleep(window_s / steps)
            collect()
        last = Mark.now(deployment)
        group_a = counters.delta(before, counters.snapshot(deployment))

        trace_ledger: dict[str, float] = {}
        if recorder:
            traced_first, traced_last, trace_ledger = await traced_stretch(
                deployment, recorder, lambda: asyncio.sleep(seconds / 2)
            )
            traced_ops, untraced_ops = traced_last.ops_per_s(traced_first), last.ops_per_s(first)
            result.notes.append(
                f"traced stretch: {traced_ops:.1f} ops/s = {1e6 / traced_ops:.1f} us per request, "
                f"which the trace.*_us_per_op ledger sums to "
                f"({sum(trace_ledger.values()):.1f}); untraced stretch {untraced_ops:.1f} ops/s"
            )
            trace_ledger["trace.overhead_fraction"] = 1.0 - traced_ops / untraced_ops

        deployment.stop_clients()
        deadline = time.monotonic() + DRAIN_S
        while any(client.outstanding for client in deployment.clients):
            if time.monotonic() > deadline:
                break
            await asyncio.sleep(0.01)
        await asyncio.sleep(0.05)  # replies of the slowest replica still in flight
        unfinished = sum(len(client.outstanding) for client in deployment.clients)
        totals = counters.snapshot(deployment)
        result.failures = check_group(deployment, totals, deployment.total_completed())
    finally:
        await deployment.stop()

    window_ops = last.completed - first.completed
    result.samples = len(latencies)
    result.attempted = window_ops + unfinished
    # a retry means a request waited out the 400 ms client timeout
    result.failed = unfinished + int(group_a["retries"])
    result.end_to_end = window_metrics(first, last, latencies)
    result.per_layer = {
        **layer_metrics(group_a, last.wall_ns - first.wall_ns, window_ops), **trace_ledger
    }
    result.notes.append(
        f"closed loop, {spec.num_clients} clients x window {spec.client_window}; "
        f"{result.samples} latency samples in one window of {window_s:g} s; {p99_note(latencies)}"
    )
    return result


# ----------------------------------------------------------------------
# Open loop through the gateway, on an absolute schedule
# ----------------------------------------------------------------------
@dataclass
class RungReport:
    rung: Rung
    outcome: Outcome
    timeouts: int
    lag_mid_ms: float
    lag_end_ms: float
    queue_mid: float
    queue_end: float
    max_queue: int
    max_outstanding: int

    @property
    def p99_ms(self) -> float:
        """0 where too few of the rung's requests were answered to support a p99."""
        try:
            return percentile(self.outcome.latencies_ns, 99) / 1e6
        except TooFewSamples:
            return 0.0

    @property
    def bad(self) -> int:
        o = self.outcome
        return o.shed + o.failed + o.unfinished + self.timeouts

    @property
    def passes(self) -> bool:
        return (
            0.0 < self.p99_ms <= SLO_LIMIT_MS
            and self.bad <= 0.01 * self.outcome.scheduled
            and self.lag_end_ms <= 1.1 * self.lag_mid_ms + LAG_FLOOR_MS
            and self.queue_end <= 1.1 * self.queue_mid + QUEUE_FLOOR
        )


def ladder(rates: tuple[int, ...], seconds: float) -> list[Rung]:
    """``seconds`` shared equally, but no rung too short to support its own p99."""
    rungs, at = [], 0
    for rate in rates:
        measure_s = max(seconds / len(rates), 1.05 * 100 * MIN_TAIL_SAMPLES / rate)
        rung = Rung(rate, at, int(RUNG_WARMUP_S * NS), int(measure_s * NS))
        rungs.append(rung)
        at = rung.end_ns + int(RUNG_PAUSE_S * NS)
    return rungs


def _segment_mean(polls: list[tuple[int, float]], start: int, end: int) -> float:
    values = [value for at, value in polls if start <= at < end]
    return sum(values) / len(values) if values else 0.0


def _rung_report(
    rung: Rung, ledger: DueTimeLedger, polls: list[tuple[int, int, int, int]]
) -> RungReport:
    outcome = ledger.outcome(rung.measure_start_ns, rung.end_ns)
    fifth = rung.measure_ns // 5
    mid = rung.measure_start_ns + rung.measure_ns // 2
    # polls are (schedule offset, queue depth, outstanding, cumulative timeouts)
    inside = [p for p in polls if rung.measure_start_ns <= p[0] < rung.end_ns]
    lags = list(zip(outcome.lag_due_ns, (lag / 1e6 for lag in outcome.lags_ns)))
    depth = [(p[0], float(p[1])) for p in inside]
    return RungReport(
        rung=rung,
        outcome=outcome,
        timeouts=(inside[-1][3] - inside[0][3]) if inside else 0,
        lag_mid_ms=_segment_mean(lags, mid - fifth // 2, mid + fifth // 2),
        lag_end_ms=_segment_mean(lags, rung.end_ns - fifth, rung.end_ns),
        queue_mid=_segment_mean(depth, mid - fifth // 2, mid + fifth // 2),
        queue_end=_segment_mean(depth, rung.end_ns - fifth, rung.end_ns),
        max_queue=max((p[1] for p in inside), default=0),
        max_outstanding=max((p[2] for p in inside), default=0),
    )


async def run_open_loop(seed: int, seconds: float, recorder: SpanRecorder | None) -> Measured:
    """Untraced: the reference rung for ``seconds``.  Traced: ``seconds`` shared
    between the reference rung, the same rung with spans on, and the rest of
    the ascending ladder."""
    # traced: reference rung, the same again with spans on, then up the ladder
    # (the overloaded top rung last, so that its backlog delays nothing else)
    rates = RUNG_RATES[:1] * 2 + RUNG_RATES[1:] if recorder else RUNG_RATES[:1]
    rungs = ladder(rates, seconds)
    arrivals = ScheduledArrivals(build_schedule(rungs, seed))
    ledger = DueTimeLedger(arrivals, clock=lambda: 0)
    spec = gateway_spec(seed)
    spec.workload_factory = ledger.workload_factory(lambda cid, i: NullWorkload(0))
    deployment = build_live_deployment(
        spec, tracer=ledger.tracer, peer_config=PeerConfig(pool_size=spec.gateway.connection_pool)
    )
    gateway = deployment.gateways[0]
    gateway.arrivals = arrivals
    ledger.clock = lambda: deployment.kernel.now
    result = Measured()
    polls: list[tuple[int, int, int, int]] = []
    group_a: dict[str, float] = {}
    trace_ledger: dict[str, float] = {}

    def offset() -> int:
        return deployment.kernel.now - (arrivals.origin_ns or 0)

    async def sleep_until(offset_ns: int) -> None:
        while offset() < offset_ns:
            polls.append(
                (offset(), len(gateway.queue), len(gateway.outstanding), gateway.stats.timeouts)
            )
            await asyncio.sleep(min(POLL_S, max(0.0, (offset_ns - offset()) / NS)))

    try:
        await start(deployment)
        reference = rungs[0]
        await sleep_until(reference.measure_start_ns)
        before = counters.snapshot(deployment)
        first = Mark.now(deployment)
        await sleep_until(reference.end_ns)
        last = Mark.now(deployment)
        group_a = counters.delta(before, counters.snapshot(deployment))
        for rung in rungs[1:]:
            if recorder and rung is rungs[1]:
                await sleep_until(rung.measure_start_ns)
                traced_first, traced_last, trace_ledger = await traced_stretch(
                    deployment, recorder, lambda: sleep_until(rung.end_ns)
                )
                # the rate is pinned by the schedule, so overhead shows as CPU per request
                trace_ledger["trace.overhead_fraction"] = 1.0 - (
                    last.cpu_us_per_op(first) / traced_last.cpu_us_per_op(traced_first)
                )
            else:
                await sleep_until(rung.end_ns)
        deadline = time.monotonic() + DRAIN_S
        while (gateway.queue or gateway.outstanding) and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        deployment.stop_clients()
        totals = counters.snapshot(deployment)
        result.failures = check_group(deployment, totals, deployment.total_completed())
    finally:
        await deployment.stop()

    reports = [_rung_report(rung, ledger, polls) for rung in rungs[:1] + rungs[2:]]
    ref = reports[0]
    outcome = ref.outcome
    for report in reports:
        o = report.outcome
        if abs(o.offered - o.scheduled) > 0.01 * o.scheduled:
            result.failures.append(
                f"rung {report.rung.rate_ops}: offered {o.offered} arrivals of {o.scheduled} scheduled"
            )

    latencies = [latency / 1e6 for latency in outcome.latencies_ns]
    over_limit = sum(1 for latency in latencies if latency > SLO_LIMIT_MS)
    good = len(latencies) - over_limit
    # when the last request due in the rung was answered, from the ledger's tracer
    answered_ns = max(
        (due + latency for due, latency in zip(outcome.due_ns, outcome.latencies_ns)),
        default=ref.rung.end_ns,
    )
    window_ops = last.completed - first.completed
    result.samples = len(latencies)
    result.attempted = outcome.scheduled
    result.failed = ref.bad + over_limit
    result.end_to_end = {
        **window_metrics(first, last, latencies),
        # goodput: requests answered within the limit, per second it took to answer them all
        "throughput_ops": good * 1e9 / (answered_ns - ref.rung.measure_start_ns),
    }
    result.per_layer = {
        **layer_metrics(group_a, last.wall_ns - first.wall_ns, window_ops),
        **trace_ledger,
        "gateway.shed": sum(r.outcome.shed for r in reports),
        "gateway.timeouts": sum(r.timeouts for r in reports),
        "gateway.failed": sum(r.outcome.failed for r in reports),
        "gateway.max_queue_depth": max(r.max_queue for r in reports),
        "gateway.max_outstanding_seen": max(r.max_outstanding for r in reports),
    }
    if recorder:
        passing = [r.rung.rate_ops for r in reports if r.passes]
        # the highest rung of the ascending ladder below which every rung passes
        slo_rate = 0
        for report in reports:
            if not report.passes:
                break
            slo_rate = report.rung.rate_ops
        result.per_layer["gateway.slo_rate_ops"] = slo_rate
        for report in reports:
            rate = report.rung.rate_ops
            lags_ms = [lag / 1e6 for lag in report.outcome.lags_ns]
            result.per_layer[f"loadgen.lag_p50_ms.{rate}"] = percentile(lags_ms, 50)
            result.per_layer[f"loadgen.lag_p99_ms.{rate}"] = percentile(lags_ms, 99)
            result.per_layer[f"gateway.p99_ms.{rate}"] = report.p99_ms
            result.notes.append(
                f"rung {rate} ops/s: scheduled {report.outcome.scheduled}, offered "
                f"{report.outcome.offered}, p99 {report.p99_ms:.2f} ms from due time, bad "
                f"{report.bad}, lag mid/end {report.lag_mid_ms:.2f}/{report.lag_end_ms:.2f} ms, "
                f"queue mid/end {report.queue_mid:.1f}/{report.queue_end:.1f} -> "
                f"{'pass' if report.passes else 'FAIL'} (passing rungs {passing})"
            )
    result.notes.append(
        f"open loop, Poisson arrivals on an absolute schedule, latency from the due time; "
        f"reference rung {ref.rung.rate_ops} ops/s: {outcome.scheduled} due, {outcome.offered} "
        f"offered, {result.samples} completed and in the percentiles, {over_limit} over "
        f"{SLO_LIMIT_MS:.0f} ms; {p99_note(latencies)}"
    )
    return result
