"""Scenario execution: run one spec against the simulator or live TCP.

Every path is the same shape — build the deployment with tracing on,
install the scenario's chaos filters on its transport, optionally switch
off TrInX certificate verification (demonstration scenarios only), run
it with the one driver (:mod:`repro.runtime.run`), then hand the trace to
the safety checker and evaluate the pass criteria.  The sim path runs in
virtual time and is deterministic for a given seed; the live path hosts
the whole group in-process against the wall clock, so one transport (and
hence one filter chain and one tracer) sees all traffic.  With
``run.processes = true``, :mod:`repro.scenarios.livenode` runs one OS
process per node instead and merges their results and trace shards.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from repro.chaos import CrashWindows
from repro.errors import ConfigurationError
from repro.runtime.deployment import build_deployment
from repro.runtime.run import RunResult, run, run_async
from repro.scenarios.safety import SafetyReport, check_safety
from repro.scenarios.spec import MS, ScenarioSpec
from repro.sim.tracing import Tracer

TRACE_CATEGORIES = {
    "execute",
    "counter-cert",
    "client-invoke",
    "client-complete",
    "view-installed",  # rare; lets scenarios assert a view change really happened
}


@dataclass
class ScenarioResult(RunResult):
    """A :class:`~repro.runtime.run.RunResult` plus the scenario's verdict."""

    name: str = ""
    safety: SafetyReport = field(default_factory=SafetyReport)
    failures: list[str] = field(default_factory=list)
    error: str | None = None

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_ns / MS

    @property
    def mean_latency_ms(self) -> float | None:
        return self.latency.mean_ms if self.latency.count else None

    def _percentile_ms(self, p: float) -> float | None:
        return self.latency.percentile_ms(p) if self.latency.count else None

    @property
    def p50_ms(self) -> float | None:
        return self._percentile_ms(50)

    @property
    def p99_ms(self) -> float | None:
        return self._percentile_ms(99)

    @property
    def p999_ms(self) -> float | None:
        return self._percentile_ms(99.9)

    @property
    def shed(self) -> int:
        return self.slo.shed if self.slo is not None else 0

    @property
    def shed_fraction(self) -> float | None:
        return self.slo.shed_fraction if self.slo is not None else None

    @property
    def passed(self) -> bool:
        return not self.failures and self.error is None

    @property
    def verdict(self) -> str:
        if self.error is not None:
            return "ERROR"
        return "PASS" if self.passed else "FAIL"

    def to_json(self) -> dict:
        """The scenario-matrix artifact's record (read by people)."""
        return {
            "name": self.name,
            "mode": self.mode,
            "protocol": self.protocol,
            "verdict": self.verdict,
            "completed": self.completed,
            "elapsed_ms": round(self.elapsed_ms, 1),
            "mean_latency_ms": (
                round(self.mean_latency_ms, 3) if self.mean_latency_ms is not None else None
            ),
            "p50_ms": round(self.p50_ms, 3) if self.p50_ms is not None else None,
            "p99_ms": round(self.p99_ms, 3) if self.p99_ms is not None else None,
            "p999_ms": round(self.p999_ms, 3) if self.p999_ms is not None else None,
            "retries": self.retries,
            "shed": self.shed,
            "shed_fraction": (
                round(self.shed_fraction, 4) if self.shed_fraction is not None else None
            ),
            "chaos": {
                "dropped": self.chaos_dropped,
                "delayed": self.chaos_delayed,
                "injected": self.chaos_injected,
            },
            "safety": {
                "ok": self.safety.ok,
                "orders_checked": self.safety.orders_checked,
                "certificates_checked": self.safety.certificates_checked,
                "reads_checked": self.safety.reads_checked,
                "violations": [str(v) for v in self.safety.violations],
            },
            "failures": self.failures,
            "error": self.error,
        }


def run_scenario(
    spec: ScenarioSpec,
    *,
    seed_override: int | None = None,
    trace_out: str | None = None,
) -> ScenarioResult:
    """Execute one scenario and evaluate its pass criteria."""
    processes = spec.mode == "live" and spec.processes
    try:
        if processes:
            from repro.scenarios.livenode import run_scenario_processes

            outcome, tracer = asyncio.run(run_scenario_processes(spec, seed_override))
        else:
            tracer = Tracer(enabled=True, categories=TRACE_CATEGORIES)
            outcome = _run_in_process(spec, seed_override, tracer)
    except ConfigurationError as exc:
        return ScenarioResult(
            protocol=spec.deployment.get("protocol", "hybster-x"),
            mode=spec.mode,
            name=spec.name,
            error=str(exc),
        )
    result = ScenarioResult(name=spec.name, **vars(outcome))
    if trace_out:
        tracer.write_jsonl(trace_out)
    result.safety = check_safety(tracer)
    if processes and result.diverged:
        result.failures.append(f"replica states diverged: {sorted(set(result.state_digests))}")
    _evaluate(result, spec)
    return result


def _run_in_process(spec: ScenarioSpec, seed_override: int | None, tracer: Tracer) -> RunResult:
    deployment_spec = spec.deployment_spec(seed_override)
    if spec.mode == "sim":
        deployment = build_deployment(deployment_spec, tracer=tracer)
        install_faults(spec, deployment, deployment.network, seed_override)
        # run.requests is a live-only early stop: a sim run covers its duration
        return run(deployment, duration_ns=spec.duration_ms * MS)
    # imported here: repro.runtime.live pulls in asyncio transport machinery
    from repro.runtime.live import build_live_deployment

    deployment = build_live_deployment(deployment_spec, tracer=tracer)
    return asyncio.run(
        run_live_scenario(spec, deployment, seed_override, duration_ns=spec.duration_ms * MS)
    )


def install_faults(
    spec: ScenarioSpec, deployment: Any, net: Any, seed_override: int | None
) -> list[Any]:
    """Put the scenario's chaos filters on ``net`` (the deployment's network
    or transport) and apply its TrInX setting; returns the filters."""
    chaos_filters = spec.build_filters(seed_override)
    for chaos_filter in chaos_filters:
        net.add_filter(chaos_filter)
    if not spec.trinx_verification:
        for replica in deployment.replicas:
            for pillar in getattr(replica, "pillars", ()):
                if hasattr(pillar, "verify_trinx"):
                    pillar.verify_trinx = False
    return chaos_filters


async def run_live_scenario(
    spec: ScenarioSpec,
    deployment: Any,
    seed_override: int | None,
    *,
    duration_ns: int,
    stop: asyncio.Event | None = None,
) -> RunResult:
    """Install the faults on a live deployment (or one process's share of
    it) and run it until ``duration_ns`` or ``run.requests`` completions.

    On top of the CrashWindows filter, which already swallows a crashing
    node's traffic, the node's TCP connections are severed at each window
    start: recovery then exercises the transport's reconnect/backoff path,
    exactly as after a real process crash.
    """
    chaos_filters = install_faults(spec, deployment, deployment.transport, seed_override)
    kernel, transport = deployment.kernel, deployment.transport
    for chaos_filter in chaos_filters:
        if isinstance(chaos_filter, CrashWindows):
            for start_ns, _end_ns in chaos_filter.windows:
                kernel.schedule(
                    max(0, start_ns - kernel.now), transport.drop_connections, chaos_filter.node
                )
    return await run_async(deployment, duration_ns=duration_ns, requests=spec.requests, stop=stop)


def _evaluate(result: ScenarioResult, spec: ScenarioSpec) -> None:
    criteria = spec.criteria
    if result.completed < criteria.min_completed:
        result.failures.append(
            f"completed {result.completed} < required {criteria.min_completed}"
        )
    if criteria.expect_safety_violation:
        if result.safety.ok:
            result.failures.append(
                "expected a safety violation, but the checker found none "
                "(the attack should have succeeded in this configuration)"
            )
    elif criteria.safety and not result.safety.ok:
        result.failures.extend(str(v) for v in result.safety.violations)
    if (
        criteria.max_mean_latency_ms is not None
        and result.mean_latency_ms is not None
        and result.mean_latency_ms > criteria.max_mean_latency_ms
    ):
        result.failures.append(
            f"mean latency {result.mean_latency_ms:.3f} ms exceeds "
            f"{criteria.max_mean_latency_ms} ms"
        )
    if (
        criteria.max_p99_ms is not None
        and result.p99_ms is not None
        and result.p99_ms > criteria.max_p99_ms
    ):
        result.failures.append(
            f"p99 latency {result.p99_ms:.3f} ms exceeds {criteria.max_p99_ms} ms"
        )
    if (
        criteria.max_shed_fraction is not None
        and result.shed_fraction is not None
        and result.shed_fraction > criteria.max_shed_fraction
    ):
        result.failures.append(
            f"shed fraction {result.shed_fraction:.4f} exceeds "
            f"{criteria.max_shed_fraction}"
        )
