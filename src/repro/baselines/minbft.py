"""MinBFT — the sequential two-phase hybrid baseline (§4, ablations).

MinBFT runs on ``n = 2f + 1`` replicas with a two-phase ordering like
Hybster, but built on USIG's single implicit counter.  The consequences
the paper analyzes become directly measurable here:

* every replica funnels **all** message processing, execution, and client
  handling through a single thread — the UI timeline forces in-order
  processing of the leader's messages and there is only one counter, so
  the protocol cannot be split into pillars;
* every protocol message (PREPARE, COMMIT, CHECKPOINT) costs an enclave
  call to create and one to verify.

The view-change protocol (with its message histories) is not implemented;
like the PBFT baseline, MinBFT exists for fault-free comparison runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.baselines.usig import UI, Usig
from repro.core.checkpoint import Checkpoints, forget_through
from repro.core.config import ReplicaGroupConfig
from repro.crypto.costs import JAVA
from repro.crypto.digests import digest as free_digest
from repro.crypto.provider import CryptoProvider
from repro.errors import ConfigurationError
from repro.messages.base import MESSAGE_HEADER_SIZE, ProtocolMessage
from repro.messages.client import Reply, Request, RequestBurst
from repro.services.base import Service
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.process import Address, Endpoint, Stage
from repro.sim.resources import Machine
from repro.sim.tracing import NULL_TRACER, Tracer
from repro.trinx.enclave import EnclavePlatform


@dataclass(frozen=True)
class MinPrepare(ProtocolMessage):
    """Leader proposal; the UI sequence defines the total order."""

    view: int
    order: int
    batch: tuple[Request, ...]
    leader: str
    ui: UI | None = None

    def digestible(self):
        return (
            "min-prepare",
            self.view,
            self.order,
            self.leader,
            tuple(request.digestible() for request in self.batch),
        )

    def wire_size(self) -> int:
        size = MESSAGE_HEADER_SIZE + 16 + sum(r.wire_size() for r in self.batch)
        return size + (self.ui.wire_size() if self.ui else 0)


@dataclass(frozen=True)
class MinCommit(ProtocolMessage):
    """Follower acknowledgment, bound to the leader's UI."""

    view: int
    order: int
    replica: str
    proposal_digest: bytes
    ui: UI | None = None

    def digestible(self):
        return ("min-commit", self.view, self.order, self.replica, self.proposal_digest)

    def wire_size(self) -> int:
        return MESSAGE_HEADER_SIZE + 16 + 32 + (self.ui.wire_size() if self.ui else 0)


@dataclass(frozen=True)
class MinCheckpoint(ProtocolMessage):
    order: int
    replica: str
    state_digest: bytes
    ui: UI | None = None

    def digestible(self):
        return ("min-checkpoint", self.order, self.replica, self.state_digest)

    def agreement_key(self) -> tuple[int, bytes]:
        return (self.order, self.state_digest)

    def wire_size(self) -> int:
        return MESSAGE_HEADER_SIZE + 8 + 32 + (self.ui.wire_size() if self.ui else 0)


@dataclass
class _MinInstance:
    order: int
    prepare: MinPrepare | None = None
    proposal_digest: bytes | None = None
    acknowledgments: set[str] | None = None
    early_commits: dict[str, bytes] | None = None  # commits seen before the prepare
    committed: bool = False


class MinBftReplica(Stage):
    """A MinBFT replica: one stage, one thread, one USIG instance."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        machine: Machine,
        config: ReplicaGroupConfig,
        replica_id: str,
        service: Service,
        reply_payload_size: int = 0,
        tracer: Tracer = NULL_TRACER,
        message_base_cost_ns: int = 1_100,
        crypto_profile=JAVA,
    ):
        endpoint = Endpoint(sim, network, replica_id, tracer)
        thread = machine.allocate_thread("main", base_cost_ns=message_base_cost_ns)
        # the single stage doubles as the client handler, so it registers
        # under the name clients address their requests to
        super().__init__(endpoint, thread, "handler")
        self.config = config
        self.replica_id = replica_id
        self.machine = machine
        self.service = service
        self.reply_payload_size = reply_payload_size
        self.platform = EnclavePlatform(charge=sim.charge, via_jni=True)
        self.usig = Usig(self.platform, config.trinx_instance_id(replica_id, 0), config.group_secret)
        self.crypto = CryptoProvider(crypto_profile, charge=sim.charge)

        self.view = 0
        self.next_order = 1  # leader: next to assign; follower: next to ack
        self.pending: deque[Request] = deque()
        self._own_inflight = 0
        self._proposed_keys: dict[tuple[str, int], int] = {}  # request key -> order
        self._instances: dict[int, _MinInstance] = {}
        self._buffered: dict[int, MinPrepare] = {}
        self._last_leader_ui = 0

        self.next_exec = 1
        self._reply_cache: dict[str, tuple[int, Any]] = {}
        # no state transfer: a replica that falls behind stays behind
        self.checkpoints = Checkpoints(
            self,
            config.quorum_size,
            MinCheckpoint,
            certify=self._certify_checkpoint,
            verify=self._verify_checkpoint,
            advance=self._on_checkpoint_stable,
        )

        self.peers = [(rid, "handler") for rid in config.replica_ids if rid != replica_id]
        self.executed_requests = 0
        self.proposals = 0

    # ------------------------------------------------------------------
    @property
    def me(self) -> str:
        return self.replica_id

    @property
    def is_leader(self) -> bool:
        return self.config.primary_of_view(self.view) == self.me

    @property
    def low_mark(self) -> int:
        return self.checkpoints.stable_order

    @property
    def high_mark(self) -> int:
        return self.low_mark + self.config.window_size

    def _instance(self, order: int) -> _MinInstance:
        instance = self._instances.get(order)
        if instance is None:
            instance = self._instances[order] = _MinInstance(
                order, acknowledgments=set(), early_commits={}
            )
        return instance

    def start(self) -> None:
        """MinBFT arms no periodic timers."""

    # ------------------------------------------------------------------
    def on_message(self, src: Address, message: Any) -> None:
        if isinstance(message, Request):
            self._on_request(message)
        elif isinstance(message, RequestBurst):
            for request in message.requests:
                self._on_request(request)
        elif isinstance(message, MinPrepare):
            self._on_prepare(message)
        elif isinstance(message, MinCommit):
            self._on_commit(message)
        elif isinstance(message, MinCheckpoint):
            self.checkpoints.receive(message)

    # ------------------------------------------------------------------
    def _on_request(self, request: Request) -> None:
        self.crypto.compute_mac(b"client-session", request.digestible(), size_hint=32)
        if not self.is_leader:
            return  # fault-free baseline: followers ignore direct requests
        cached = self._reply_cache.get(request.client_id)
        if cached is not None and cached[0] >= request.request_id:
            return
        if request.key in self._proposed_keys:
            return
        self.pending.append(request)
        self._propose_pending()

    def _propose_pending(self) -> None:
        while self.pending and self.low_mark < self.next_order <= self.high_mark:
            if len(self.pending) < self.config.batch_size and self._own_inflight > 0:
                return  # adaptive batching
            batch: list[Request] = []
            while self.pending and len(batch) < self.config.batch_size:
                request = self.pending.popleft()
                if request.key in self._proposed_keys:
                    continue
                batch.append(request)
                self._proposed_keys[request.key] = self.next_order
            if not batch:
                return
            order = self.next_order
            self.next_order += 1
            bare = MinPrepare(self.view, order, tuple(batch), self.me)
            ui = self.usig.create_ui(bare.digestible(), size_hint=bare.wire_size())
            prepare = MinPrepare(self.view, order, tuple(batch), self.me, ui)
            instance = self._instance(order)
            instance.prepare = prepare
            instance.proposal_digest = free_digest(bare.digestible())
            instance.acknowledgments = {self.me}
            self.proposals += 1
            self._own_inflight += 1
            self.broadcast(self.peers, prepare)

    def _on_prepare(self, prepare: MinPrepare) -> None:
        if prepare.view != self.view or prepare.leader != self.config.primary_of_view(self.view):
            return
        if not self.low_mark < prepare.order <= self.high_mark:
            return
        if prepare.order != self.next_order:
            if prepare.order > self.next_order:
                self._buffered.setdefault(prepare.order, prepare)
            return
        self._accept_prepare(prepare)
        while self.next_order in self._buffered:
            self._accept_prepare(self._buffered.pop(self.next_order))

    def _accept_prepare(self, prepare: MinPrepare) -> None:
        ui = prepare.ui
        if ui is None or ui.value <= self._last_leader_ui:
            return  # stale or replayed UI: the timeline only moves forward
        if not self.usig.verify_ui(ui, prepare.digestible(), size_hint=prepare.wire_size()):
            return
        self._last_leader_ui = ui.value
        order = prepare.order
        self.next_order = order + 1
        instance = self._instance(order)
        instance.prepare = prepare
        instance.proposal_digest = free_digest(
            MinPrepare(prepare.view, order, prepare.batch, prepare.leader).digestible()
        )
        bare = MinCommit(prepare.view, order, self.me, instance.proposal_digest)
        own_ui = self.usig.create_ui(bare.digestible(), size_hint=bare.wire_size())
        commit = MinCommit(prepare.view, order, self.me, instance.proposal_digest, own_ui)
        instance.acknowledgments = {prepare.leader, self.me}
        for sender, digest in instance.early_commits.items():
            if digest == instance.proposal_digest:
                instance.acknowledgments.add(sender)
        instance.early_commits.clear()
        self.broadcast(self.peers, commit)
        self._check_committed(instance)

    def _on_commit(self, commit: MinCommit) -> None:
        if commit.view != self.view:
            return
        if not self.low_mark < commit.order <= self.high_mark:
            return
        instance = self._instance(commit.order)
        if instance.committed or commit.replica in instance.acknowledgments:
            return
        if commit.ui is None or not self.usig.verify_ui(
            commit.ui, commit.digestible(), size_hint=commit.wire_size()
        ):
            return
        if instance.proposal_digest is None:
            instance.early_commits[commit.replica] = commit.proposal_digest
            return
        if commit.proposal_digest != instance.proposal_digest:
            return
        instance.acknowledgments.add(commit.replica)
        self._check_committed(instance)

    def _check_committed(self, instance: _MinInstance) -> None:
        if instance.committed or instance.prepare is None:
            return
        if len(instance.acknowledgments) < self.config.quorum_size:
            return
        instance.committed = True
        if self.is_leader:
            self._own_inflight = max(0, self._own_inflight - 1)
        self._execute_ready()
        if self._own_inflight == 0 and self.pending:
            self._propose_pending()

    # ------------------------------------------------------------------
    def _execute_ready(self) -> None:
        while True:
            instance = self._instances.get(self.next_exec)
            if instance is None or not instance.committed:
                return
            for request in instance.prepare.batch:
                result = self.service.execute(request.operation, request.client_id)
                self.sim.charge(self.service.execution_cost_ns(request.operation))
                self._reply_cache[request.client_id] = (request.request_id, result)
                reply = Reply(
                    self.me,
                    request.client_id,
                    request.request_id,
                    self.view,
                    result,
                    self.reply_payload_size,
                )
                self.crypto.compute_mac(b"client-session", reply.digestible(), size_hint=32)
                node, stage = (
                    request.client_id.split(":", 1)
                    if ":" in request.client_id
                    else (request.client_id, "client")
                )
                self.send((node, stage), reply)
                self.executed_requests += 1
            executed_order = self.next_exec
            self.next_exec += 1
            if self.config.is_checkpoint_boundary(executed_order):
                self._take_checkpoint(executed_order)

    # ------------------------------------------------------------------
    def _take_checkpoint(self, order: int) -> None:
        digest = self.crypto.digest(
            ("min-checkpoint-state", order, self.service.state_digestible()),
            size_hint=max(64, self.service.snapshot_size()),
        )
        self.checkpoints.reached(order, digest)

    def _certify_checkpoint(self, order: int, digest: bytes) -> MinCheckpoint:
        bare = MinCheckpoint(order, self.me, digest)
        ui = self.usig.create_ui(bare.digestible(), size_hint=bare.wire_size())
        return MinCheckpoint(order, self.me, digest, ui)

    def _verify_checkpoint(self, checkpoint: MinCheckpoint) -> bool:
        return checkpoint.ui is not None and self.usig.verify_ui(
            checkpoint.ui, checkpoint.digestible(), size_hint=checkpoint.wire_size()
        )

    def _on_checkpoint_stable(self, order: int) -> None:
        forget_through(self._instances, order)
        forget_through(self._buffered, order)
        self._proposed_keys = {key: o for key, o in self._proposed_keys.items() if o > order}
        if self.is_leader:
            self._propose_pending()

    def stats(self) -> dict:
        return {
            "replica": self.replica_id,
            "executed_requests": self.executed_requests,
            "proposals": self.proposals,
            "stable_checkpoint": self.low_mark,
        }


def build_minbft_group(
    sim: Simulator,
    network: Network,
    machines: list[Machine],
    config: ReplicaGroupConfig,
    service_factory,
    reply_payload_size: int = 0,
    tracer: Tracer = NULL_TRACER,
    message_base_cost_ns: int = 1_100,
) -> list[MinBftReplica]:
    """Build a MinBFT group (one replica per machine)."""
    if config.num_pillars != 1:
        raise ConfigurationError("MinBFT is inherently sequential: num_pillars must be 1")
    if len(machines) != config.n:
        raise ConfigurationError(f"need {config.n} machines for {config.n} replicas")
    return [
        MinBftReplica(
            sim,
            network,
            machine,
            config,
            replica_id,
            service_factory(),
            reply_payload_size=reply_payload_size,
            tracer=tracer,
            message_base_cost_ns=message_base_cost_ns,
        )
        for machine, replica_id in zip(machines, config.replica_ids)
    ]
