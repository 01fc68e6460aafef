"""Simulator workloads: host speed of the kernel and the protocol code.

Default model: 35 us one-way latency, 4 x 1 GbE NICs, the ``java``
crypto profile, 4 cores (2 for the crash scenario).  No sockets and no
codec run here.  Latency and throughput are *modelled* (simulated
clock) and repeat exactly for a seed; ``cpu_us_per_op`` is the host CPU
time the simulation costs per simulated request.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import random
import time
from typing import Any, Iterator

from bench import counters
from bench.result import Measured
from bench.spans import SpanRecorder
from bench.stats import percentile
from repro.clients.stats import LatencyStats
from repro.runtime.deployment import Deployment, DeploymentSpec, build_deployment
from repro.scenarios import engine
from repro.scenarios.spec import ScenarioSpec, load_scenario
from repro.sim.tracing import NULL_TRACER, Tracer

US = 1_000
MS = 1_000_000
# simulated time per second of --seconds.  The simulator covers about 7.5 ms
# of this operating point per host second on the reference box, so a run
# costs about half of --seconds: the live windows were lengthened to 25 s
# for a steadier tail, and the simulator, whose modelled numbers are exact
# anyway, was shortened to pay for them.
FIG5A_WINDOW_US_PER_S = 3_600
FIG5A_WARMUP_US_PER_S = 780
START_STAGGER_NS = 100 * US

CRASH_TOML = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sim_leader_crash.toml")
CRASH_START_MS = 100
CRASH_END_MS = 1_000
CRASH_TAIL_MS_PER_S = 16


def fig5a_deployment(seed: int) -> Deployment:
    """The BENCH_fig5a_sim operating point; the seed staggers the client starts."""
    deployment = build_deployment(DeploymentSpec(
        protocol="hybster-x", cores=4, service="null", batch_size=1, num_clients=16,
        client_window=4, seed=seed,
    ))
    rng = random.Random(f"{seed}/client-start")
    for client in deployment.clients:
        deployment.sim.schedule(rng.randrange(START_STAGGER_NS), client.start)
    return deployment


def crash_scenario(seed: int, seconds: float) -> ScenarioSpec:
    spec = load_scenario(CRASH_TOML)
    return dataclasses.replace(
        spec, seed=seed, duration_ms=CRASH_END_MS + int(CRASH_TAIL_MS_PER_S * seconds)
    )


def setup_probe(name: str, seed: int, seconds: float) -> None:
    """What ``setup_s`` times: build the cluster and run the first simulated event."""
    if name == "sim_fig5a":
        deployment = fig5a_deployment(seed)
    else:
        scenario = crash_scenario(seed, seconds)
        deployment = build_deployment(scenario.deployment_spec())
        for chaos_filter in scenario.build_filters():
            deployment.network.add_filter(chaos_filter)
        deployment.start_clients()
    deployment.sim.run(max_events=1)


def _model_metrics(
    deployment: Deployment, group_a: dict[str, float], sim_ns: int, ops: int
) -> dict[str, float]:
    ops = max(1, ops)
    replica_threads = sum(len(machine.threads) for machine in deployment.replica_machines)
    replica_busy = sum(group_a[f"busy_ns.{g}"] for g in ("pillar", "handler", "exec", "replier"))
    return {
        "model.pillar_busy_us_per_op": group_a["busy_ns.pillar"] / 1e3 / ops,
        "model.handler_busy_us_per_op": group_a["busy_ns.handler"] / 1e3 / ops,
        "model.execution_busy_us_per_op": group_a["busy_ns.exec"] / 1e3 / ops,
        "model.enclave_calls_per_op": group_a["enclave_calls"] / ops,
        "model.net_bytes_per_op": group_a["bytes_sent"] / ops,
        "model.replica_cpu_utilization": replica_busy / (sim_ns * replica_threads),
        "core.batch_fill": group_a["executed_requests"] / max(1.0, group_a["executed_instances"]),
        "core.view_changes": group_a["view_changes"],
        "clients.retries": group_a["retries"],
    }


# ----------------------------------------------------------------------
# sim_fig5a
# ----------------------------------------------------------------------
def run_fig5a(seed: int, seconds: float, recorder: SpanRecorder | None) -> Measured:
    deployment = fig5a_deployment(seed)
    sim = deployment.sim
    warmup_ns = int(FIG5A_WARMUP_US_PER_S * seconds) * US
    window_ns = int(FIG5A_WINDOW_US_PER_S * seconds) * US
    sim.run(until=warmup_ns)

    plain_ns = window_ns // 2 if recorder else window_ns
    for client in deployment.clients:
        # empty recorders that keep every sample of the window
        client.stats = LatencyStats(reservoir_size=2_000_000)
    before = counters.snapshot(deployment)
    events_before = sim.events_processed
    wall, cpu = time.perf_counter_ns(), time.process_time_ns()
    sim.run(until=warmup_ns + plain_ns)
    host_cpu_ns = time.process_time_ns() - cpu
    host_wall_ns = time.perf_counter_ns() - wall
    latencies = [
        ns / 1e6 for client in deployment.clients for ns in client.stats.to_json()["samples_ns"]
    ]
    group_a = counters.delta(before, counters.snapshot(deployment))
    ops = int(group_a["completed"])
    events = sim.events_processed - events_before

    result = Measured(attempted=ops, samples=len(latencies))
    model_throughput = ops * 1e9 / plain_ns
    result.end_to_end = {
        "throughput_ops": model_throughput,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": percentile(latencies, 99),
        "cpu_us_per_op": host_cpu_ns / 1e3 / max(1, ops),
    }
    result.per_layer = {
        **_model_metrics(deployment, group_a, plain_ns, ops),
        "model.throughput_ops": model_throughput,
        "model.latency_p50_ms": result.end_to_end["latency_p50_ms"],
        "sim.events_per_op": events / max(1, ops),
        "sim.events_per_host_s": events * 1e9 / host_wall_ns,
        "sim.host_us_per_op": host_wall_ns / 1e3 / max(1, ops),
    }
    if recorder:
        recorder.install()
        recorder.enabled = True
        done, wall = deployment.total_completed(), time.perf_counter_ns()
        try:
            sim.run(until=warmup_ns + window_ns)
        finally:
            recorder.uninstall()
        traced_wall = time.perf_counter_ns() - wall
        traced_ops = deployment.total_completed() - done
        result.per_layer.update(recorder.ledger_us_per_op(traced_wall, traced_ops))
        result.per_layer["trace.overhead_fraction"] = 1.0 - (
            result.per_layer["sim.host_us_per_op"] / (traced_wall / 1e3 / max(1, traced_ops))
        )

    digests = {str(replica.service.state_digestible()) for replica in deployment.replicas}
    if len(digests) != 1:
        result.failures.append("replica states diverged")
    if any(replica.current_view for replica in deployment.replicas):
        result.failures.append("fault-free simulation left view 0")
    if group_a["retries"]:
        result.failures.append(f"{group_a['retries']:.0f} client retries in a fault-free simulation")
    result.failed = int(group_a["retries"])
    result.notes.append(
        f"simulator, closed loop, 16 clients x window 4, {warmup_ns / MS:.1f} ms warm-up + "
        f"{plain_ns / MS:.1f} ms window of simulated time; {result.samples} modelled latency samples"
    )
    return result


# ----------------------------------------------------------------------
# sim_leader_crash
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _captured_build() -> Iterator[dict[str, Any]]:
    """Let ``run_scenario`` build the cluster, but keep hold of what it built."""
    original = engine.build_deployment
    captured: dict[str, Any] = {}

    def build(spec: DeploymentSpec, tracer: Tracer = NULL_TRACER) -> Deployment:
        captured["deployment"] = original(spec, tracer=tracer)
        captured["tracer"] = tracer
        return captured["deployment"]

    engine.build_deployment = build
    try:
        yield captured
    finally:
        engine.build_deployment = original


def run_leader_crash(seed: int, seconds: float, recorder: SpanRecorder | None) -> Measured:
    scenario = crash_scenario(seed, seconds)
    if recorder:
        recorder.install()
        recorder.enabled = True
    wall, cpu = time.perf_counter_ns(), time.process_time_ns()
    try:
        with _captured_build() as captured:
            outcome = engine.run_scenario(scenario)
    finally:
        if recorder:
            recorder.uninstall()
    host_wall_ns = time.perf_counter_ns() - wall
    host_cpu_ns = time.process_time_ns() - cpu
    deployment: Deployment = captured["deployment"]
    tracer: Tracer = captured["tracer"]

    invoked: dict[tuple[str, int], int] = {}
    completions: list[int] = []
    latencies: list[float] = []
    for record in tracer.records:
        if record.category == "client-invoke":
            invoked[(record.detail[0], record.detail[1])] = record.time_ns
        elif record.category == "client-complete":
            sent = invoked.pop((record.detail[0], record.detail[1]))
            completions.append(record.time_ns)
            latencies.append((record.time_ns - sent) / 1e6)
    gap_ns, gap_start = max(
        (b - a, a) for a, b in zip(completions, completions[1:])
    )
    installs = [r.time_ns for r in tracer.select(category="view-installed")]
    rejoined = [
        r.time_ns for r in tracer.select(category="execute")
        if r.node.startswith("r0/") and r.time_ns >= CRASH_END_MS * MS
    ]

    ops = outcome.completed
    sim_ns = scenario.duration_ms * MS
    totals = counters.snapshot(deployment)
    result = Measured(attempted=ops + len(invoked), samples=len(latencies))
    # Requests still in flight when the simulation stops are cut off, not
    # failed; a request retried across the view change completes late and
    # is counted in the latency percentiles and in clients.retries.
    result.failed = max(0, len(invoked) - len(deployment.clients) * deployment.spec.client_window)
    result.end_to_end = {
        "throughput_ops": ops * 1e9 / sim_ns,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": percentile(latencies, 99),
        "cpu_us_per_op": host_cpu_ns / 1e3 / max(1, ops),
    }
    result.per_layer = {
        **_model_metrics(deployment, totals, sim_ns, ops),
        "model.throughput_ops": result.end_to_end["throughput_ops"],
        "model.latency_p50_ms": result.end_to_end["latency_p50_ms"],
        "sim.events_per_op": deployment.sim.events_processed / max(1, ops),
        "sim.events_per_host_s": deployment.sim.events_processed * 1e9 / host_wall_ns,
        "sim.host_us_per_op": host_wall_ns / 1e3 / max(1, ops),
        "core.unavailable_ms": gap_ns / 1e6,
        "core.view_change_ms": (min(installs) / 1e6 - CRASH_START_MS) if installs else 0.0,
        "core.catch_up_ms": (min(rejoined) / 1e6 - CRASH_END_MS) if rejoined else 0.0,
        "scenarios.safety_orders_checked": outcome.safety.orders_checked,
        "scenarios.safety_violations": len(outcome.safety.violations),
    }
    if recorder:
        result.per_layer.update(recorder.ledger_us_per_op(host_wall_ns, ops))

    if outcome.error or outcome.failures:
        result.failures.extend([outcome.error] if outcome.error else outcome.failures)
    if not outcome.safety.ok:
        result.failures.append(f"safety checker: {outcome.safety.summary()}")
    views = [replica.current_view for replica in deployment.replicas]
    if min(views) < 1:
        result.failures.append(f"not every replica reached view 1: {views}")
    if not rejoined:
        result.failures.append("r0 executed nothing after its restart")
    if not CRASH_START_MS * MS - 50 * MS <= gap_start <= CRASH_START_MS * MS + 50 * MS:
        result.failures.append(
            f"longest completion gap starts at {gap_start / 1e6:.1f} ms, not at the crash"
        )
    result.notes.append(
        f"simulator, hybster-s, closed loop, 4 clients x window 1, r0 down during "
        f"[{CRASH_START_MS}, {CRASH_END_MS}] ms of {scenario.duration_ms} ms; closed loop, so the "
        f"loss of service is the completion gap ({gap_ns / 1e6:.2f} ms from "
        f"{gap_start / 1e6:.2f} ms), not missed deadlines; {totals['retries']:.0f} client retries; "
        f"host time covers build, run, trace and safety check"
    )
    return result
