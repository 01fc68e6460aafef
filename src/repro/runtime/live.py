"""Live mode: run Hybster as real asyncio processes over TCP sockets.

The discrete-event simulator executes protocol stages against a virtual
clock; live mode executes the *same stage code* against the wall clock
and real localhost sockets.  Three small adapters make that possible:

* :class:`LiveKernel` — implements the scheduling surface of
  :class:`~repro.sim.kernel.Simulator` (``now``/``schedule``/``cancel``/
  ``charge``) on top of the asyncio event loop.  ``charge`` is a no-op:
  live handlers consume real CPU time instead of accounting for it.
* :class:`LiveThread` / :class:`LiveMachine` — implement the
  ``submit``/``after_busy`` surface of the simulated CPU model; handlers
  run on the event loop, and sends deferred with ``after_busy`` flush
  when the handler returns (same visibility order as the simulator).
* :class:`~repro.net.transport.TcpTransport` — carries stage envelopes
  as codec frames over per-peer TCP connections.

``build_live_deployment`` reuses :class:`~repro.runtime.deployment.
DeploymentSpec` so a benchmark configuration can be replayed live without
translation (simulation-only fields — NIC bandwidth, latency, the
calibration profile — are ignored).  A process can host the whole group
(``local_nodes=None``, the default: in-process tasks over localhost
sockets) or any subset of nodes (one OS process per node, as
:mod:`repro.scenarios.livenode` runs scenarios with ``run.processes``).
:func:`repro.runtime.run.run` drives either.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.clients.client import Client
from repro.core.config import ReplicaGroupConfig
from repro.core.replica import HybsterReplica
from repro.crypto.costs import resolve_profile
from repro.crypto.provider import CryptoProvider
from repro.errors import ConfigurationError
from repro.gateway.gateway import GatewayStage
from repro.loadgen.arrivals import make_arrivals
from repro.net.peer import PeerConfig
from repro.net.transport import TcpTransport
from repro.runtime.deployment import SERVICES, DeploymentSpec, _num_pillars, _replica_ids
from repro.runtime.run import run
from repro.sim.process import Endpoint
from repro.sim.rand import derive_seed
from repro.sim.tracing import NULL_TRACER, Tracer

LIVE_PROTOCOLS = ("hybster-s", "hybster-x")


# ----------------------------------------------------------------------
# Simulator-surface adapters
# ----------------------------------------------------------------------
class LiveTimer:
    """A cancellable scheduled callback (live analogue of sim Event)."""

    __slots__ = ("kernel", "handle", "cancelled", "fired")

    def __init__(self, kernel: "LiveKernel"):
        self.kernel = kernel
        self.handle: asyncio.TimerHandle | None = None
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        if not self.cancelled and not self.fired:
            self.cancelled = True
            if self.handle is not None:
                self.handle.cancel()
            self.kernel._timers.discard(self)


class LiveKernel:
    """The Simulator API surface, backed by the asyncio event loop.

    ``now`` is integer nanoseconds since kernel creation (monotonic), so
    latency statistics and traces use the same unit as the simulator.
    """

    def __init__(self) -> None:
        self._bound_loop: asyncio.AbstractEventLoop | None = None
        self._t0 = time.monotonic()
        self._timers: set[LiveTimer] = set()
        self.events_processed = 0

    @property
    def _loop(self) -> asyncio.AbstractEventLoop:
        # Bound lazily so deployments can be *built* outside a running
        # loop (inspection, partial construction) and *run* inside one.
        if self._bound_loop is None:
            self._bound_loop = asyncio.get_running_loop()
        return self._bound_loop

    @property
    def now(self) -> int:
        return int((time.monotonic() - self._t0) * 1e9)

    # -- scheduling ----------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> LiveTimer:
        timer = LiveTimer(self)
        timer.handle = self._loop.call_later(
            max(0, delay) / 1e9, self._fire, timer, callback, args
        )
        self._timers.add(timer)
        return timer

    def schedule_at(self, time_ns: int, callback: Callable[..., None], *args: Any) -> LiveTimer:
        return self.schedule(time_ns - self.now, callback, *args)

    def _fire(self, timer: LiveTimer, callback: Callable[..., None], args: tuple) -> None:
        self._timers.discard(timer)
        if timer.cancelled:
            return
        timer.fired = True
        self.events_processed += 1
        callback(*args)

    def cancel(self, timer: LiveTimer) -> None:
        timer.cancel()

    def cancel_all(self) -> None:
        """Tear down every outstanding timer (clean shutdown)."""
        for timer in list(self._timers):
            timer.cancel()

    # -- cost accounting -----------------------------------------------
    def charge(self, cost_ns: int) -> None:
        """Live handlers burn real CPU; modelled costs are dropped."""


class LiveThread:
    """The SimThread surface: run handlers on the loop, defer sends.

    The simulator's contract that a handler's outgoing messages become
    visible only after the handler finishes is preserved: actions queued
    with :meth:`after_busy` run right after the handler returns.
    """

    def __init__(self, kernel: LiveKernel, name: str):
        self.kernel = kernel
        self.name = name
        self._deferred: list[Callable[[], None]] = []
        self.handlers_run = 0
        self.handler_errors = 0
        self.busy_ns = 0  # stats parity with SimThread; live CPU is real

    def submit(self, handler: Callable[[Any], None], arg: Any = None) -> None:
        self.kernel._loop.call_soon(self._run, handler, arg)

    def after_busy(self, action: Callable[[], None]) -> None:
        self._deferred.append(action)

    def _run(self, handler: Callable[[Any], None], arg: Any) -> None:
        started = time.monotonic()
        self._deferred = []
        try:
            handler(arg)
        except Exception:  # noqa: BLE001 — a stage bug must not kill the node
            self.handler_errors += 1
            import traceback

            traceback.print_exc(file=sys.stderr)
        deferred, self._deferred = self._deferred, []
        for action in deferred:
            action()
        self.handlers_run += 1
        self.busy_ns += int((time.monotonic() - started) * 1e9)


class LiveMachine:
    """The Machine surface: hands out LiveThreads; placement is the OS's job."""

    def __init__(self, kernel: LiveKernel, name: str, hardware_threads: int = 64):
        self.kernel = kernel
        self.name = name
        self.hardware_threads = hardware_threads
        self.threads: list[LiveThread] = []

    def allocate_thread(self, name: str, base_cost_ns: int = 0) -> LiveThread:
        thread = LiveThread(self.kernel, f"{self.name}/{name}")
        self.threads.append(thread)
        return thread


# ----------------------------------------------------------------------
# Deployment construction
# ----------------------------------------------------------------------
def live_directory(
    spec: DeploymentSpec, host: str = "127.0.0.1", base_port: int = 0
) -> dict[str, tuple[str, int]]:
    """Listen addresses for every node of ``spec``'s group.

    With ``base_port=0`` the OS assigns ports at bind time (single-process
    runs); with a fixed base port the layout is deterministic — replica i
    at ``base_port + i``, client machine j at ``base_port + 64 + j``,
    gateway k at ``base_port + 96 + k`` — so separate OS processes derive
    identical directories from the spec.
    """
    directory: dict[str, tuple[str, int]] = {}
    for index, rid in enumerate(_replica_ids(spec.protocol)):
        directory[rid] = (host, base_port + index if base_port else 0)
    for j in range(spec.client_machines):
        directory[f"clients{j}"] = (host, base_port + 64 + j if base_port else 0)
    for k, node in enumerate(spec.gateway_nodes()):
        directory[node] = (host, base_port + 96 + k if base_port else 0)
    return directory


@dataclass
class LiveDeployment:
    """A (possibly partial) live cluster hosted by this process."""

    spec: DeploymentSpec
    kernel: LiveKernel
    transport: TcpTransport
    config: ReplicaGroupConfig
    replicas: list[HybsterReplica]
    clients: list[Client]
    local_nodes: tuple[str, ...]
    tracer: Tracer = NULL_TRACER
    gateways: list[GatewayStage] = field(default_factory=list)

    async def start(self) -> None:
        """Bind listen sockets and arm the replicas' protocol timers."""
        await self.transport.start()
        for replica in self.replicas:
            replica.start()

    def start_clients(self) -> None:
        for client in self.clients:
            client.start()
        for gateway in self.gateways:
            gateway.start()

    def stop_clients(self) -> None:
        for client in self.clients:
            client.stop()
        for gateway in self.gateways:
            gateway.stop()

    async def stop(self) -> None:
        """Cancel every timer and close every socket this process owns."""
        self.kernel.cancel_all()
        await self.transport.stop()

    def total_completed(self) -> int:
        return sum(client.completed for client in self.clients) + sum(
            gateway.completed for gateway in self.gateways
        )


def build_live_deployment(
    spec: DeploymentSpec,
    *,
    tracer: Tracer = NULL_TRACER,
    host: str = "127.0.0.1",
    base_port: int = 0,
    local_nodes: list[str] | None = None,
    peer_config: PeerConfig = PeerConfig(),
) -> LiveDeployment:
    """Construct the live cluster (or this process's share of it).

    ``local_nodes=None`` hosts every replica and client machine in this
    process; otherwise only the named nodes are built — the rest of the
    group is expected to run elsewhere and is reached via the directory.
    """
    if spec.protocol not in LIVE_PROTOCOLS:
        raise ConfigurationError(
            f"live mode supports {LIVE_PROTOCOLS}, not {spec.protocol!r} "
            "(the baseline protocols still run in the simulator)"
        )
    if spec.service not in SERVICES:
        raise ConfigurationError(f"unknown service {spec.service!r}")

    kernel = LiveKernel()
    directory = live_directory(spec, host, base_port)
    # The transport shares the kernel clock so chaos filters (crash
    # windows, delay schedules) see the same timeline as stage timers.
    transport = TcpTransport(directory, peer_config=peer_config, clock=lambda: kernel.now)

    replica_ids = _replica_ids(spec.protocol)
    client_nodes = tuple(f"clients{j}" for j in range(spec.client_machines))
    gateway_nodes = spec.gateway_nodes()
    if local_nodes is None:
        local = tuple(replica_ids) + client_nodes + gateway_nodes
    else:
        unknown = set(local_nodes) - set(directory)
        if unknown:
            raise ConfigurationError(f"nodes {sorted(unknown)} are not part of the group")
        local = tuple(local_nodes)

    crypto_profile = resolve_profile(spec.crypto_profile)
    config = ReplicaGroupConfig(
        replica_ids=replica_ids,
        num_pillars=_num_pillars(spec.protocol, spec.cores),
        batch_size=spec.batch_size,
        batch_linger_ns=spec.batch_linger_ns,
        rotation=spec.rotation,
        checkpoint_interval=spec.checkpoint_interval,
        window_size=spec.window_size,
        noop_delay_ns=spec.noop_delay_ns,
    )
    service_factory = SERVICES[spec.service]

    replicas: list[HybsterReplica] = []
    for rid in replica_ids:
        if rid not in local:
            continue
        machine = LiveMachine(kernel, rid)
        replica = HybsterReplica(
            kernel,  # type: ignore[arg-type] — duck-typed Simulator surface
            transport,
            machine,  # type: ignore[arg-type] — duck-typed Machine surface
            config,
            rid,
            service_factory(),
            reply_payload_size=spec.reply_payload_size,
            tracer=tracer,
            crypto_profile=crypto_profile,
        )
        _wire_peer_addresses(replica, config)
        if spec.gateway is not None and spec.gateway.sticky_pillars:
            replica.handler.sticky_client_pillars = True
        replicas.append(replica)

    clients: list[Client] = []
    for j, node in enumerate(client_nodes):
        if node not in local:
            continue
        machine = LiveMachine(kernel, node)
        endpoint = Endpoint(kernel, transport, node, tracer)  # type: ignore[arg-type]
        for index in range(spec.num_clients):
            if index % spec.client_machines != j:
                continue
            name = f"c{index}"
            client_id = f"{node}:{name}"
            clients.append(
                Client(
                    endpoint,
                    machine.allocate_thread(name),  # type: ignore[arg-type]
                    config,
                    name,
                    spec.make_workload(client_id, index),
                    window=spec.client_window,
                    crypto=CryptoProvider(crypto_profile, charge=kernel.charge),
                )
            )

    gateways: list[GatewayStage] = []
    for node in gateway_nodes:
        if node not in local:
            continue
        machine = LiveMachine(kernel, node)
        endpoint = Endpoint(kernel, transport, node, tracer)  # type: ignore[arg-type]
        arrivals = make_arrivals(
            spec.gateway.arrivals,
            spec.gateway.rate_ops,
            derive_seed(spec.seed, "gateway", node, "arrivals"),
            **spec.gateway.arrival_params(),
        )
        gateways.append(
            GatewayStage(
                endpoint,
                machine.allocate_thread("gateway"),  # type: ignore[arg-type]
                config,
                spec.gateway,
                arrivals,
                spec.make_workload,
                seed=spec.seed,
                crypto=CryptoProvider(crypto_profile, charge=kernel.charge),
            )
        )

    return LiveDeployment(
        spec=spec,
        kernel=kernel,
        transport=transport,
        config=config,
        replicas=replicas,
        clients=clients,
        local_nodes=local,
        tracer=tracer,
        gateways=gateways,
    )


def _wire_peer_addresses(replica: HybsterReplica, config: ReplicaGroupConfig) -> None:
    """Point a replica at its peers by name alone.

    The simulated builder wires peers object-to-object; live replicas may
    live in different OS processes, but peer addresses are fully
    determined by the group configuration (pillar counts are identical
    across the group), so names suffice.
    """
    for peer_id in config.replica_ids:
        if peer_id == replica.replica_id:
            continue
        for index, pillar in enumerate(replica.pillars):
            pillar.peer_addresses[peer_id] = (peer_id, f"pillar{index}")
        replica.coordinator.peer_exec_addresses[peer_id] = (peer_id, "exec")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _spec_from_args(args: argparse.Namespace) -> DeploymentSpec:
    return DeploymentSpec(
        protocol=args.protocol,
        cores=args.cores,
        service=args.service,
        batch_size=args.batch_size,
        batch_linger_ns=args.batch_linger_us * 1_000,
        rotation=args.rotation,
        num_clients=args.clients,
        client_window=args.window,
        client_machines=args.client_machines,
        payload_size=args.payload_size,
        checkpoint_interval=args.checkpoint_interval,
        window_size=args.window_size,
        seed=args.seed,
        crypto_profile=args.crypto,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-live",
        description="Run a Hybster group live over localhost TCP sockets",
    )
    parser.add_argument("--protocol", choices=LIVE_PROTOCOLS, default="hybster-s")
    parser.add_argument("--service", choices=sorted(SERVICES), default="counter")
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--batch-size", type=int, default=1)
    parser.add_argument("--batch-linger-us", type=int, default=0,
                        help="hold a partial batch this long under light load")
    parser.add_argument("--crypto", choices=("openssl", "java", "tcrypto", "real"),
                        default="java",
                        help="crypto cost profile; 'real' times HMAC-SHA256 on this host")
    parser.add_argument("--rotation", action="store_true")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--window", type=int, default=8)
    parser.add_argument("--client-machines", type=int, default=1)
    parser.add_argument("--payload-size", type=int, default=0)
    parser.add_argument("--checkpoint-interval", type=int, default=128)
    parser.add_argument("--window-size", type=int, default=1024)
    parser.add_argument("--requests", type=int, default=100,
                        help="stop once this many requests completed")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="hard wall-clock limit in seconds")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed for all DeterministicRandom users")
    parser.add_argument("--base-port", type=int, default=0,
                        help="0 = OS-assigned")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--trace-out", default="",
                        help="write a JSONL trace")
    args = parser.parse_args(argv)

    tracer = Tracer(enabled=True) if args.trace_out else NULL_TRACER
    deployment = build_live_deployment(
        _spec_from_args(args), tracer=tracer, host=args.host, base_port=args.base_port
    )
    result = run(deployment, duration_ns=int(args.duration * 1e9), requests=args.requests)
    if args.trace_out:
        tracer.write_jsonl(args.trace_out)
    print(result)
    if result.diverged:
        print("ERROR: replica states diverged", file=sys.stderr)
        return 2
    if result.completed < args.requests:
        print(
            f"ERROR: only {result.completed}/{args.requests} requests completed "
            f"within {args.duration:.0f} s",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
