"""Deployment construction: protocols, machines, clients.

:func:`assemble` turns a :class:`DeploymentSpec` into a fully wired
cluster: replica machines running the selected protocol configuration,
client machines running the workload generators, the optional gateway
tier, and the network connecting them.  It is the only construction path;
the substrate is what differs between modes.  :func:`build_deployment`
hands it the simulator (``Simulator``, ``Network``, ``Machine``),
:func:`repro.runtime.live.build_live_deployment` live mode's asyncio
kernel, TCP transport and machines.

Protocol names follow the paper's subjects (§6):

* ``hybster-s`` — sequential basic protocol: one pillar, one TrInX
  instance, plus execution and client-handling threads (3 replicas);
* ``hybster-x`` — full Hybster: one pillar + TrInX instance per core
  (3 replicas);
* ``pbft`` — PBFTcop: three-phase PBFT with consensus-oriented
  parallelization and MAC authenticators (4 replicas);
* ``hybrid-pbft`` — PBFTcop certifying with trusted MACs (4 replicas);
* ``minbft`` — sequential MinBFT on USIG (3 replicas; ablations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection

from repro.baselines.minbft import MinBftReplica
from repro.baselines.pbft import AUTHENTICATORS, TRUSTED_MACS, PbftReplica
from repro.clients.client import Client
from repro.clients.workload import NullWorkload, Workload
from repro.core.config import ReplicaGroupConfig
from repro.core.replica import HybsterReplica
from repro.crypto.costs import PROFILES, resolve_profile
from repro.crypto.provider import CryptoProvider
from repro.errors import ConfigurationError
from repro.gateway.config import GatewayConfig
from repro.gateway.gateway import GatewayStage
from repro.loadgen.arrivals import make_arrivals
from repro.net.base import Transport
from repro.sim.rand import derive_seed
from repro.runtime.calibration import DEFAULT_CALIBRATION, CalibrationProfile
from repro.services.coordination import CoordinationService
from repro.services.counter import CounterService
from repro.services.kvstore import KeyValueStore
from repro.services.null import NullService
from repro.sim.kernel import Simulator
from repro.sim.network import GIGABIT_PER_SECOND, Network
from repro.sim.process import Endpoint
from repro.sim.resources import Machine
from repro.sim.tracing import NULL_TRACER, Tracer

PROTOCOLS = ("hybster-s", "hybster-x", "pbft", "hybrid-pbft", "minbft")
# "real" times HMAC-SHA256 on this host (see repro.crypto.costs)
CRYPTO_PROFILES = (*PROFILES, "real")

SERVICES: dict[str, Callable] = {
    "null": NullService,
    "counter": CounterService,
    "kv": KeyValueStore,
    "coordination": CoordinationService,
}


@dataclass
class DeploymentSpec:
    """Everything needed to stand up one benchmark configuration."""

    protocol: str = "hybster-x"
    cores: int = 4
    ht_enabled: bool = True
    service: str = "null"
    batch_size: int = 1
    batch_linger_ns: int = 0
    rotation: bool = False
    # Named crypto cost profile (one of CRYPTO_PROFILES); "real" times
    # HMAC-SHA256 on this host so simulated crypto costs match what live
    # mode actually pays.
    crypto_profile: str = "java"
    num_clients: int = 16
    client_window: int = 4
    client_machines: int = 2
    payload_size: int = 0
    reply_payload_size: int = 0
    checkpoint_interval: int = 128
    window_size: int = 1024
    noop_delay_ns: int = 500_000
    # Master seed for every DeterministicRandom consumer of the run
    # (workloads, chaos filters); sub-seeds are derived per consumer with
    # repro.sim.rand.derive_seed so streams stay independent.
    seed: int = 0
    workload_factory: Callable[[str, int], Workload] | None = None
    calibration: CalibrationProfile = field(default_factory=lambda: DEFAULT_CALIBRATION)
    nic_bandwidth: int = 4 * GIGABIT_PER_SECOND
    latency_ns: int = 35_000
    # Optional serving front door: gateway nodes multiplexing open-loop
    # session traffic (see repro.gateway).  Usually paired with
    # ``num_clients=0`` — the gateways *are* the client tier.
    gateway: GatewayConfig | None = None

    def make_workload(self, client_id: str, index: int) -> Workload:
        if self.workload_factory is not None:
            return self.workload_factory(client_id, index)
        return NullWorkload(self.payload_size)

    def gateway_nodes(self) -> tuple[str, ...]:
        if self.gateway is None:
            return ()
        return tuple(f"gw{i}" for i in range(self.gateway.gateways))


@dataclass
class Deployment:
    """A built cluster, ready for :func:`repro.runtime.run.run`.

    ``sim`` and ``network`` are its substrate: a :class:`Simulator` and a
    :class:`Network` here; a ``LiveKernel`` and a ``TcpTransport`` in a
    :class:`~repro.runtime.live.LiveDeployment`, which holds only the
    nodes its process hosts.
    """

    spec: DeploymentSpec
    sim: Simulator
    network: Network
    replicas: list
    replica_machines: list[Machine]
    clients: list[Client]
    client_machines: list[Machine]
    gateways: list[GatewayStage] = field(default_factory=list)
    gateway_machines: list[Machine] = field(default_factory=list)

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

    def total_completed(self) -> int:
        return sum(client.completed for client in self.clients) + sum(
            gateway.completed for gateway in self.gateways
        )


def _replica_ids(protocol: str) -> tuple[str, ...]:
    if protocol in ("pbft", "hybrid-pbft"):
        return ("r0", "r1", "r2", "r3")
    return ("r0", "r1", "r2")


def _num_pillars(protocol: str, cores: int) -> int:
    if protocol in ("hybster-s", "minbft"):
        return 1
    return cores


def build_deployment(spec: DeploymentSpec, tracer: Tracer = NULL_TRACER) -> Deployment:
    """Construct the simulated cluster for ``spec``."""
    sim = Simulator()
    network = Network(sim, latency_ns=spec.latency_ns, default_bandwidth=spec.nic_bandwidth)
    deployment = assemble(
        Deployment, spec, tracer, sim, network,
        lambda name: Machine(sim, name, cores=spec.cores, ht_enabled=spec.ht_enabled),
    )
    for replica in deployment.replicas:
        replica.start()
    return deployment


def assemble(
    cls: type[Deployment],
    spec: DeploymentSpec,
    tracer: Tracer,
    sim: Simulator,
    network: Transport,
    make_machine: Callable[[str], Machine],
    nodes: Collection[str] | None = None,
) -> Deployment:
    """Build ``spec``'s cluster on a substrate, as an instance of ``cls``.

    The one construction path for both modes: ``sim``, ``network`` and
    ``make_machine`` are the simulator's or live mode's, and only the
    ``nodes`` given (default: every node) are built.  Replica timers are
    not armed here; the caller starts the replicas once its substrate
    runs.
    """
    if spec.protocol not in PROTOCOLS:
        raise ConfigurationError(f"unknown protocol {spec.protocol!r}; expected one of {PROTOCOLS}")
    if spec.service not in SERVICES:
        raise ConfigurationError(f"unknown service {spec.service!r}; expected one of {sorted(SERVICES)}")
    if spec.crypto_profile not in CRYPTO_PROFILES:
        raise ConfigurationError(
            f"unknown crypto profile {spec.crypto_profile!r}; expected one of {CRYPTO_PROFILES}"
        )
    if spec.protocol == "minbft" and spec.batch_linger_ns:
        # MinBFT's single stage proposes with no linger timer
        raise ConfigurationError("minbft does not hold partial batches: batch_linger_ns must be 0")

    def local(node: str) -> bool:
        return nodes is None or node in nodes

    cal = spec.calibration
    crypto_profile = resolve_profile(spec.crypto_profile)
    config = ReplicaGroupConfig(
        replica_ids=_replica_ids(spec.protocol),
        num_pillars=_num_pillars(spec.protocol, spec.cores),
        batch_size=spec.batch_size,
        batch_linger_ns=spec.batch_linger_ns,
        rotation=spec.rotation,
        checkpoint_interval=spec.checkpoint_interval,
        window_size=spec.window_size,
        noop_delay_ns=spec.noop_delay_ns,
    )

    if spec.protocol in ("hybster-s", "hybster-x"):
        replica_cls, protocol_args = HybsterReplica, {}
    elif spec.protocol in ("pbft", "hybrid-pbft"):
        cert_mode = TRUSTED_MACS if spec.protocol == "hybrid-pbft" else AUTHENTICATORS
        replica_cls, protocol_args = PbftReplica, {"cert_mode": cert_mode}
    else:  # minbft
        replica_cls, protocol_args = MinBftReplica, {}
    machines = [make_machine(rid) for rid in config.replica_ids if local(rid)]
    replicas = [
        replica_cls(
            sim, network, machine, config, machine.name, SERVICES[spec.service](),
            reply_payload_size=spec.reply_payload_size, tracer=tracer,
            message_base_cost_ns=cal.message_base_cost_ns, crypto_profile=crypto_profile,
            **protocol_args,
        )
        for machine in machines
    ]
    for replica in replicas:
        for stage in replica.endpoint.stages.values():
            stage.send_cost_ns = cal.send_cost_ns
            stage.control_send_cost_ns = cal.control_send_cost_ns
            stage.local_send_cost_ns = cal.local_send_cost_ns

    # ------------------------------------------------------------------
    # Client machines (the paper dedicates two quad-core hosts)
    # ------------------------------------------------------------------
    client_nodes = [f"clients{i}" for i in range(spec.client_machines)]
    client_machines = [make_machine(node) for node in client_nodes if local(node)]
    endpoints = {
        machine.name: Endpoint(sim, network, machine.name, tracer) for machine in client_machines
    }
    threads = {
        machine.name: [
            machine.allocate_thread(f"cthread{t}", base_cost_ns=cal.client_base_cost_ns)
            for t in range(machine.hardware_threads)
        ]
        for machine in client_machines
    }

    clients: list[Client] = []
    for index in range(spec.num_clients):
        node = client_nodes[index % len(client_nodes)]
        if not local(node):
            continue
        pool = threads[node]
        thread = pool[(index // len(client_nodes)) % len(pool)]
        name = f"c{index}"
        client = Client(
            endpoints[node],
            thread,
            config,
            name,
            spec.make_workload(f"{node}:{name}", index),
            window=spec.client_window,
            crypto=CryptoProvider(crypto_profile, charge=sim.charge),
        )
        client.send_cost_ns = cal.client_send_cost_ns
        client.control_send_cost_ns = cal.client_send_cost_ns
        clients.append(client)

    # ------------------------------------------------------------------
    # Gateway tier (optional): open-loop session multiplexers
    # ------------------------------------------------------------------
    gateways: list[GatewayStage] = []
    gateway_machines: list[Machine] = []
    if spec.gateway is not None:
        if spec.gateway.sticky_pillars:
            for replica in replicas:
                handler = getattr(replica, "handler", None)
                if handler is not None:
                    handler.sticky_client_pillars = True
        for node in spec.gateway_nodes():
            if not local(node):
                continue
            machine = make_machine(node)
            gateway_machines.append(machine)
            # a gateway fronts a whole client population: give it 4x the
            # per-machine NIC of a single client host
            endpoint = Endpoint(
                sim, network, node, tracer,
                egress_bandwidth=4 * spec.nic_bandwidth,
                ingress_bandwidth=4 * spec.nic_bandwidth,
            )
            arrivals = make_arrivals(
                spec.gateway.arrivals,
                spec.gateway.rate_ops,
                derive_seed(spec.seed, "gateway", node, "arrivals"),
                **spec.gateway.arrival_params(),
            )
            gateway = GatewayStage(
                endpoint,
                machine.allocate_thread("gateway", base_cost_ns=cal.client_base_cost_ns),
                config,
                spec.gateway,
                arrivals,
                spec.make_workload,
                seed=spec.seed,
                crypto=CryptoProvider(crypto_profile, charge=sim.charge),
            )
            gateway.send_cost_ns = cal.client_send_cost_ns
            gateway.control_send_cost_ns = cal.client_send_cost_ns
            gateways.append(gateway)

    return cls(
        spec=spec,
        sim=sim,
        network=network,
        replicas=replicas,
        replica_machines=machines,
        clients=clients,
        client_machines=client_machines,
        gateways=gateways,
        gateway_machines=gateway_machines,
    )
