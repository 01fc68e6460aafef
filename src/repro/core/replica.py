"""Replica assembly: pillars + execution stage + client handler.

A :class:`HybsterReplica` materializes one replica of the group on a
simulated machine.  The paper's two evaluated configurations differ only
in ``config.num_pillars``:

* HybsterS — one pillar (the sequential basic protocol) plus an execution
  thread and a client-handling thread;
* HybsterX — one pillar per core, each with its own TrInX instance.

Thread placement mirrors the prototype: each stage gets its own hardware
thread while the machine has free slots; once the machine is full,
additional stages share the least-loaded threads (relevant only for
deliberately oversubscribed experiments).
"""

from __future__ import annotations

from repro.core.config import ReplicaGroupConfig
from repro.core.execution import ExecutionStage, ReplierStage
from repro.core.handler import ClientHandler
from repro.core.pillar import Pillar
from repro.core.viewchange import ViewChangeCoordinator
from repro.crypto.costs import JAVA
from repro.crypto.provider import CryptoProvider
from repro.net.base import Transport
from repro.services.base import Service
from repro.sim.kernel import Simulator
from repro.sim.process import Endpoint
from repro.sim.resources import Machine, SimThread
from repro.sim.tracing import NULL_TRACER, Tracer
from repro.trinx.enclave import EnclavePlatform
from repro.trinx.trinx import TrInX

# Per-message framework overhead (deserialization, queueing, socket) of the
# Java prototype, charged on every handler invocation of a protocol stage.
MESSAGE_BASE_COST_NS = 1_100


class HybsterReplica:
    """One replica: its stages, trusted subsystem instances, and wiring."""

    def __init__(
        self,
        sim: Simulator,
        network: Transport,
        machine: Machine,
        config: ReplicaGroupConfig,
        replica_id: str,
        service: Service,
        reply_payload_size: int = 0,
        tracer: Tracer = NULL_TRACER,
        trinx_instances: list[TrInX] | None = None,
        message_base_cost_ns: int = MESSAGE_BASE_COST_NS,
        num_repliers: int = 2,
        crypto_profile=JAVA,
    ):
        self.sim = sim
        self.config = config
        self.replica_id = replica_id
        self.machine = machine
        self.crypto_profile = crypto_profile
        self.endpoint = Endpoint(sim, network, replica_id, tracer)
        self.platform = EnclavePlatform(charge=sim.charge, via_jni=True)

        allocator = _ThreadAllocator(machine, message_base_cost_ns)

        if trinx_instances is None:
            trinx_instances = [
                TrInX(
                    self.platform,
                    config.trinx_instance_id(replica_id, i),
                    config.group_secret,
                    num_counters=config.counters_per_instance,
                )
                for i in range(config.num_pillars)
            ]
        if len(trinx_instances) != config.num_pillars:
            raise ValueError("need exactly one TrInX instance per pillar")
        self.trinx_instances = trinx_instances

        self.pillars = [
            Pillar(
                self.endpoint,
                allocator.next(f"pillar{i}"),
                config,
                replica_id,
                i,
                trinx_instances[i],
                crypto_profile=crypto_profile,
            )
            for i in range(config.num_pillars)
        ]
        self.execution = ExecutionStage(
            self.endpoint,
            allocator.next("exec"),
            config,
            replica_id,
            service,
            CryptoProvider(crypto_profile, charge=sim.charge),
            reply_payload_size=reply_payload_size,
        )
        self.handler = ClientHandler(
            self.endpoint,
            allocator.next("handler"),
            config,
            replica_id,
            CryptoProvider(crypto_profile, charge=sim.charge),
        )
        self.repliers = [
            ReplierStage(
                self.endpoint,
                allocator.next(f"replier{i}"),
                CryptoProvider(crypto_profile, charge=sim.charge),
                f"replier{i}",
            )
            for i in range(num_repliers)
        ]
        self.coordinator = ViewChangeCoordinator(self.pillars[0])
        self.pillars[0].coordinator = self.coordinator
        self._wire_local()

    # ------------------------------------------------------------------
    def _wire_local(self) -> None:
        node = self.replica_id
        pillar_addresses = [(node, f"pillar{i}") for i in range(self.config.num_pillars)]
        exec_address = (node, "exec")
        handler_address = (node, "handler")
        coordinator_address = pillar_addresses[0]
        for pillar in self.pillars:
            pillar.exec_address = exec_address
            pillar.coordinator_address = coordinator_address
        self.execution.pillar_addresses = pillar_addresses
        self.execution.handler_address = handler_address
        self.execution.coordinator_address = coordinator_address
        self.execution.replier_addresses = [(node, replier.name) for replier in self.repliers]
        self.handler.pillar_addresses = pillar_addresses
        self.handler.exec_address = exec_address
        self.handler.coordinator_address = coordinator_address
        self.coordinator.local_pillar_addresses = pillar_addresses
        self.coordinator.exec_address = exec_address
        self.coordinator.handler_address = handler_address

    def start(self) -> None:
        """Arm periodic protocol timers (retransmission / fault suspicion)."""
        for pillar in self.pillars:
            pillar.start()

    # ------------------------------------------------------------------
    @property
    def service(self) -> Service:
        return self.execution.service

    @property
    def current_view(self) -> int:
        return self.coordinator.stable_view

    def stats(self) -> dict:
        """Throughput/health counters for benchmarks and tests."""
        return {
            "replica": self.replica_id,
            "executed_requests": self.execution.executed_requests,
            "executed_instances": self.execution.executed_instances,
            "proposals": sum(pillar.proposals for pillar in self.pillars),
            "commits_sent": sum(pillar.commits_sent for pillar in self.pillars),
            "view": self.current_view,
            "stable_checkpoint": self.pillars[0].stable_ck_order,
            "enclave_calls": self.platform.calls,
            "view_changes_completed": self.coordinator.view_changes_completed,
        }


class _ThreadAllocator:
    """Hands out hardware threads, sharing them once the machine is full."""

    def __init__(self, machine: Machine, base_cost_ns: int):
        self.machine = machine
        self.base_cost_ns = base_cost_ns
        self._allocated: list[SimThread] = []
        self._reuse_index = 0

    def next(self, name: str) -> SimThread:
        if len(self._allocated) < self.machine.hardware_threads:
            thread = self.machine.allocate_thread(name, base_cost_ns=self.base_cost_ns)
            self._allocated.append(thread)
            return thread
        thread = self._allocated[self._reuse_index]
        self._reuse_index = (self._reuse_index + 1) % len(self._allocated)
        return thread


def build_group(
    sim: Simulator,
    network: Transport,
    machines: list[Machine],
    config: ReplicaGroupConfig,
    service_factory,
    reply_payload_size: int = 0,
    tracer: Tracer = NULL_TRACER,
    message_base_cost_ns: int = MESSAGE_BASE_COST_NS,
    crypto_profile=JAVA,
) -> list[HybsterReplica]:
    """Build and fully wire a replica group, one replica per machine."""
    if len(machines) != config.n:
        raise ValueError(f"need {config.n} machines for {config.n} replicas")
    replicas = [
        HybsterReplica(
            sim,
            network,
            machine,
            config,
            replica_id,
            service_factory(),
            reply_payload_size=reply_payload_size,
            tracer=tracer,
            message_base_cost_ns=message_base_cost_ns,
            crypto_profile=crypto_profile,
        )
        for machine, replica_id in zip(machines, config.replica_ids)
    ]
    for replica in replicas:
        replica.start()
    return replicas
