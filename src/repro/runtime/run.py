"""One driver for every deployment, simulated or live.

:func:`run` takes a deployment built by
:func:`~repro.runtime.deployment.build_deployment` (the simulator) or by
:func:`~repro.runtime.live.build_live_deployment` (asyncio over TCP) and
drives it the same way: start the clients and gateways, optionally warm
up, stop at a time limit or once a number of requests completed
(whichever comes first), stop the load, and collect one
:class:`RunResult`.  The warm-up's completions, latency samples, replica
busy time and bytes are left out of the result.

There is no mode switch: the mode follows from the builder.  A simulated
deployment advances virtual time; a live one binds its sockets, runs on
the asyncio loop against the wall clock and closes its sockets at the
end.  Code already inside an event loop awaits :func:`run_async` instead.

After the load stops, a live run, and a simulated run with a request
target, drain for 50 ms: requests in flight complete (and count), and
the replicas catch up before their state digests are taken.  A
simulated run with only a time limit ends exactly at it, so its numbers
cover exactly ``duration_ns`` of virtual time.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field, fields
from typing import Any

from repro.clients.stats import LatencyStats
from repro.loadgen.slo import SLOReport
from repro.runtime.deployment import Deployment

MS = 1_000_000
POLL_NS = 20 * MS   # how often a stop condition is checked, on the run's own clock
DRAIN_NS = 50 * MS  # requests still in flight when the load stops


@dataclass
class RunResult:
    """What one run produced, over its measured window.

    ``latency`` merges every client's and gateway's samples; ``slo`` is
    the gateway tier's open-loop report (``None`` without gateways).
    ``chaos_*`` count the decisions of the transport's chaos filters.
    """

    protocol: str
    mode: str
    completed: int = 0
    elapsed_ns: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats)
    retries: int = 0
    bytes_sent: int = 0
    replica_busy_ns: int = 0
    replica_threads: int = 0
    chaos_dropped: int = 0
    chaos_delayed: int = 0
    chaos_injected: int = 0
    slo: SLOReport | None = None
    replica_stats: list[dict] = field(default_factory=list)
    state_digests: list[str] = field(default_factory=list)

    @property
    def throughput_ops(self) -> float:
        return self.completed / (self.elapsed_ns / 1e9) if self.elapsed_ns else 0.0

    @property
    def latency_ms(self) -> float:
        """Mean latency (the paper's figures plot the mean)."""
        return self.latency.mean_ms

    @property
    def replica_cpu_utilization(self) -> float:
        if not self.elapsed_ns or not self.replica_threads:
            return 0.0
        return min(1.0, self.replica_busy_ns / (self.elapsed_ns * self.replica_threads))

    @property
    def diverged(self) -> bool:
        return len(set(self.state_digests)) > 1

    def merge(self, other: "RunResult") -> None:
        """Fold in another OS process's share of the same run."""
        self.completed += other.completed
        self.elapsed_ns = max(self.elapsed_ns, other.elapsed_ns)
        self.latency.merge(other.latency)
        self.retries += other.retries
        self.bytes_sent += other.bytes_sent
        self.replica_busy_ns += other.replica_busy_ns
        self.replica_threads += other.replica_threads
        self.chaos_dropped += other.chaos_dropped
        self.chaos_delayed += other.chaos_delayed
        self.chaos_injected += other.chaos_injected
        if other.slo is not None:
            self.slo = self.slo or SLOReport()
            self.slo.merge(other.slo)
        self.replica_stats += other.replica_stats
        self.state_digests += other.state_digests

    def to_json(self) -> dict:
        """Every field, JSON-ready; :meth:`from_json` rebuilds the result."""
        data = {f.name: getattr(self, f.name) for f in fields(RunResult)}
        data["latency"] = self.latency.to_json()
        if self.slo is not None:
            data["slo"] = {**vars(self.slo), "latency": self.slo.latency.to_json()}
        return data

    @classmethod
    def from_json(cls, data: dict) -> "RunResult":
        values = {f.name: data[f.name] for f in fields(RunResult) if f.name in data}
        values["latency"] = LatencyStats.from_json(data["latency"])
        if data.get("slo"):
            slo = data["slo"]
            values["slo"] = SLOReport(**{**slo, "latency": LatencyStats.from_json(slo["latency"])})
        return cls(**values)

    def __str__(self) -> str:
        if self.slo is not None:
            return f"{self.protocol} ({self.mode}): {self.slo}"
        if self.latency.count:
            p = self.latency.percentiles_ms()
            latency = (
                f"{p['mean']:.3f} ms (p50 {p['p50']:.3f} / p99 {p['p99']:.3f} / "
                f"p999 {p['p999']:.3f})"
            )
        else:
            latency = "n/a"
        chaos = ""
        if self.chaos_dropped or self.chaos_delayed or self.chaos_injected:
            chaos = (
                f", chaos: {self.chaos_dropped} dropped / "
                f"{self.chaos_delayed} delayed / {self.chaos_injected} injected"
            )
        return (
            f"{self.protocol} ({self.mode}): {self.completed} requests in "
            f"{self.elapsed_ns / 1e9:.2f} s ({self.throughput_ops:.0f} ops/s), "
            f"mean latency {latency}, replica CPU {self.replica_cpu_utilization * 100:.1f} %, "
            f"{self.bytes_sent} bytes sent{chaos}"
        )


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
def run(
    deployment: Any, *, duration_ns: int, requests: int = 0, warmup_ns: int = 0
) -> RunResult:
    """Run ``deployment`` for ``duration_ns`` after ``warmup_ns``, or until
    ``requests`` completed in the window (0: no request target)."""
    if not isinstance(deployment, Deployment):
        return asyncio.run(
            run_async(deployment, duration_ns=duration_ns, requests=requests, warmup_ns=warmup_ns)
        )
    sim = deployment.sim
    deployment.start_clients()
    if warmup_ns:
        sim.run(until=sim.now + warmup_ns)
    window = _Window.open(deployment, deployment.network, sim.now, reset=bool(warmup_ns))
    end = window.start_ns + duration_ns
    while sim.now < end and not window.reached(requests):
        sim.run(until=min(end, sim.now + POLL_NS) if requests else end)
    deployment.stop_clients()
    if requests:
        sim.run(until=sim.now + DRAIN_NS)
    return window.collect(sim.now, "sim")


async def run_async(
    deployment: Any,
    *,
    duration_ns: int,
    requests: int = 0,
    warmup_ns: int = 0,
    stop: asyncio.Event | None = None,
) -> RunResult:
    """:func:`run` for a live deployment, inside a running event loop.

    ``stop`` ends the window early when set (a signal handler's hook).
    """
    kernel = deployment.kernel
    try:
        await deployment.start()
        deployment.start_clients()
        if warmup_ns:
            await asyncio.sleep(warmup_ns / 1e9)
        window = _Window.open(deployment, deployment.transport, kernel.now, reset=bool(warmup_ns))
        end = window.start_ns + duration_ns
        while kernel.now < end and not window.reached(requests):
            if stop is not None and stop.is_set():
                break
            await asyncio.sleep(min(POLL_NS, end - kernel.now) / 1e9)
        deployment.stop_clients()
        await asyncio.sleep(DRAIN_NS / 1e9)
        return window.collect(kernel.now, "live")
    finally:
        await deployment.stop()


@dataclass
class _Window:
    """The counters at the start of the measured window."""

    deployment: Any
    net: Any  # the simulated Network or the live TcpTransport
    start_ns: int
    completed: int
    busy_ns: int
    bytes_sent: int

    @classmethod
    def open(cls, deployment: Any, net: Any, now_ns: int, reset: bool) -> "_Window":
        if reset:  # drop the warm-up's latency samples
            for client in deployment.clients:
                client.stats = LatencyStats()
            for gateway in deployment.gateways:
                gateway.stats.latency = LatencyStats()
        return cls(
            deployment, net, now_ns, deployment.total_completed(),
            _replica_busy_ns(deployment), _bytes_sent(deployment, net),
        )

    def reached(self, requests: int) -> bool:
        return bool(requests) and self.deployment.total_completed() - self.completed >= requests

    def collect(self, now_ns: int, mode: str) -> RunResult:
        deployment, net = self.deployment, self.net
        elapsed_ns = now_ns - self.start_ns
        latency = LatencyStats()
        for client in deployment.clients:
            latency.merge(client.stats)
        for gateway in deployment.gateways:
            latency.merge(gateway.stats.latency)
        slo = None
        if deployment.gateways:
            slo = SLOReport()
            for gateway in deployment.gateways:
                slo.merge(gateway.slo_report(elapsed_ns / 1e9))
        replicas = deployment.replicas
        return RunResult(
            protocol=deployment.spec.protocol,
            mode=mode,
            completed=deployment.total_completed() - self.completed,
            elapsed_ns=elapsed_ns,
            latency=latency,
            retries=sum(client.retries for client in deployment.clients)
            + sum(gateway.stats.timeouts for gateway in deployment.gateways),
            bytes_sent=_bytes_sent(deployment, net) - self.bytes_sent,
            replica_busy_ns=_replica_busy_ns(deployment) - self.busy_ns,
            replica_threads=sum(len(replica.machine.threads) for replica in replicas),
            chaos_dropped=net.chaos_dropped,
            chaos_delayed=net.chaos_delayed,
            chaos_injected=net.chaos_injected,
            slo=slo,
            replica_stats=[replica.stats() for replica in replicas],
            state_digests=[str(replica.service.state_digestible()) for replica in replicas],
        )


def _replica_busy_ns(deployment: Any) -> int:
    return sum(
        thread.busy_ns for replica in deployment.replicas for thread in replica.machine.threads
    )


def _bytes_sent(deployment: Any, net: Any) -> int:
    nodes = {replica.replica_id for replica in deployment.replicas}
    nodes.update(client.endpoint.node for client in deployment.clients)
    nodes.update(gateway.endpoint.node for gateway in deployment.gateways)
    return sum(net.interface(node).bytes_sent for node in nodes)
