"""PBFT with consensus-oriented parallelization (``PBFTcop``) and its
trusted-MAC variant (``HybridPBFT``).

This is the paper's primary baseline (§6, "Subjects"): the classic
three-phase PBFT ordering protocol implemented on the same code base and
parallelization scheme as Hybster — pillars own disjoint shares of the
order-number space, an execution stage delivers globally, checkpoints are
shared round-robin.  Differences from Hybster:

* ``n = 3f + 1`` replicas; *prepared* needs the PRE-PREPARE plus ``2f``
  matching PREPAREs, *committed* needs ``2f + 1`` matching COMMITs;
* messages carry MAC **authenticators** (one MAC entry per receiver —
  ~3 hashes per outgoing message and one per incoming at ``n = 4``), or
  with ``cert_mode="trusted_macs"`` a single non-repudiable trusted MAC
  from TrInX (one enclave call out, one in) — that configuration is
  HybridPBFT;
* equivocation is tolerated by the quorum sizes instead of prevented, so
  no trusted counters constrain processing order.

The view-change protocol is not implemented: the baseline exists for the
fault-free performance comparison, exactly how the paper uses it.  Fault
handling is evaluated on Hybster (see tests/test_viewchange*.py).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any

from repro.baselines.pbft_messages import PbftCheckpoint, PbftCommit, PbftPrepare, PrePrepare
from repro.messages.ordering import InstanceFetch
from repro.core.config import COUNTER_M, ReplicaGroupConfig
from repro.core.execution import ExecutionStage, ReplierStage
from repro.core.handler import ClientHandler
from repro.core.quorum import MatchingQuorum
from repro.crypto.authenticators import AuthenticatorFactory
from repro.crypto.costs import JAVA
from repro.crypto.digests import digest as free_digest
from repro.crypto.provider import CryptoProvider
from repro.errors import ConfigurationError
from repro.messages.client import Request
from repro.messages.internal import CkReached, CkStable, ExecRequest, FillGap, OrderRequest, StateInstall
from repro.messages.statetransfer import StateRequest, StateResponse
from repro.services.base import Service
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.process import Address, Endpoint, Stage
from repro.sim.resources import Machine, SimThread
from repro.sim.tracing import NULL_TRACER, Tracer
from repro.trinx.enclave import EnclavePlatform
from repro.trinx.trinx import TrInX

AUTHENTICATORS = "authenticators"
TRUSTED_MACS = "trusted_macs"


class _AuthenticatorCertifier:
    """PBFT's classic certification: digest once, one MAC per receiver."""

    def __init__(self, me: str, receivers: list[str], group_secret: bytes, charge, profile=JAVA):
        self.receivers = receivers
        self.provider = CryptoProvider(profile, charge=charge)
        self.factory = AuthenticatorFactory(me, group_secret, self.provider)

    def create(self, message) -> Any:
        digest = self.provider.digest(message.digestible(), size_hint=message.wire_size())
        return self.factory.create(self.receivers, digest, size_hint=32)

    def verify(self, message) -> bool:
        if message.auth is None:
            return False
        digest = self.provider.digest(message.digestible(), size_hint=message.wire_size())
        return self.factory.verify(message.auth, digest, size_hint=32)


class _TrustedMacCertifier:
    """HybridPBFT's certification: one trusted MAC from TrInX."""

    def __init__(self, trinx: TrInX, expected_issuer_of):
        self.trinx = trinx
        self.expected_issuer_of = expected_issuer_of  # message -> instance id

    def create(self, message) -> Any:
        return self.trinx.create_trusted_mac(COUNTER_M, message.digestible(), size_hint=message.wire_size())

    def verify(self, message) -> bool:
        auth = message.auth
        if auth is None or not auth.is_trusted_mac:
            return False
        if auth.issuer != self.expected_issuer_of(message):
            return False
        return self.trinx.verify(auth, message.digestible(), size_hint=message.wire_size())


@dataclass
class _PbftInstance:
    order: int
    view: int = -1
    pre_prepare: PrePrepare | None = None
    proposal_digest: bytes | None = None
    # digest each replica voted for; only votes matching the PRE-PREPARE's
    # proposal digest count towards the quorums
    prepare_votes: dict[str, bytes] = field(default_factory=dict)
    commit_votes: dict[str, bytes] = field(default_factory=dict)
    prepared: bool = False
    committed: bool = False
    proposed_at_ns: int = 0

    def matching(self, votes: dict[str, bytes]) -> set[str]:
        if self.proposal_digest is None:
            return set()
        return {replica for replica, digest in votes.items() if digest == self.proposal_digest}


class PbftPillar(Stage):
    """One PBFTcop ordering pillar (three-phase, class ``o mod P``)."""

    def __init__(
        self,
        endpoint: Endpoint,
        thread: SimThread,
        config: ReplicaGroupConfig,
        replica_id: str,
        index: int,
        certifier,
        f_pbft: int,
        crypto_profile=JAVA,
    ):
        super().__init__(endpoint, thread, f"pillar{index}")
        self.config = config
        self.replica_id = replica_id
        self.index = index
        self.certifier = certifier
        self.f_pbft = f_pbft
        self.client_crypto = CryptoProvider(crypto_profile, charge=endpoint.sim.charge)

        self.view = 0
        # next order number this replica proposes (its own slots ascending);
        # PBFT has no trusted counters, so *acceptance* is out-of-order
        self.next_own = self._first_own_slot_after(0)
        self.low_mark = 0
        self.pending: deque[Request] = deque()
        self._own_inflight = 0  # own proposals not yet committed (batch pacing)
        self._proposed_keys: set[tuple[str, int]] = set()
        self._instances: dict[int, _PbftInstance] = {}
        # proposals that arrived ahead of our (lagging) window position
        self._lookahead: dict[int, PrePrepare] = {}

        self.stable_ck_order = 0
        self._ck_quorum = MatchingQuorum(2 * f_pbft + 1)
        self._own_ck_digests: dict[int, bytes] = {}
        self._remote_stable: dict[int, tuple[str, tuple[PbftCheckpoint, ...]]] = {}
        self._transfer_in_flight: int | None = None

        self.peer_addresses: dict[str, Address] = {
            rid: (rid, self.name) for rid in config.replica_ids if rid != replica_id
        }
        self.exec_address: Address | None = None
        self._noop_timer = None

        self.proposals = 0
        self.instances_committed = 0

    # ------------------------------------------------------------------
    @property
    def me(self) -> str:
        return self.replica_id

    @property
    def high_mark(self) -> int:
        return self.low_mark + self.config.window_size

    def _class_order_at_or_after(self, candidate: int) -> int:
        return candidate + (self.index - candidate) % self.config.num_pillars

    _NEVER = 1 << 62  # sentinel: this replica proposes no orders (follower)

    def _first_own_slot_after(self, order: int) -> int:
        """Smallest class order above ``order`` this replica proposes."""
        candidate = self._class_order_at_or_after(order + 1)
        for _ in range(self.config.n):
            if self.config.proposer_of(self.view, candidate) == self.me:
                return candidate
            candidate += self.config.num_pillars
        return self._NEVER  # fixed-leader follower: no own slots

    def _instance(self, order: int) -> _PbftInstance:
        instance = self._instances.get(order)
        if instance is None:
            instance = self._instances[order] = _PbftInstance(order)
        return instance

    def _in_window(self, order: int) -> bool:
        return self.low_mark < order <= self.high_mark

    # ------------------------------------------------------------------
    def on_message(self, src: Address, message: Any) -> None:
        if isinstance(message, OrderRequest):
            self._on_order_request(message)
        elif isinstance(message, PrePrepare):
            self._on_pre_prepare(message)
        elif isinstance(message, PbftPrepare):
            self._on_prepare(message)
        elif isinstance(message, PbftCommit):
            self._on_commit(message)
        elif isinstance(message, PbftCheckpoint):
            self._on_checkpoint(message)
        elif isinstance(message, CkReached):
            self._on_ck_reached(message)
        elif isinstance(message, CkStable):
            self._apply_stable_checkpoint(message.order)
        elif isinstance(message, FillGap):
            self._on_fill_gap(message)
        elif isinstance(message, InstanceFetch):
            self._on_instance_fetch(src, message)
        elif isinstance(message, StateResponse):
            self._on_state_response(message)

    # ------------------------------------------------------------------
    # Proposing
    # ------------------------------------------------------------------
    def _on_order_request(self, message: OrderRequest) -> None:
        for request in message.requests:
            if request.key not in self._proposed_keys:
                self.pending.append(request)
        self._advance()

    def _advance(self) -> None:
        """Propose pending requests on our own slots, ascending."""
        while self._in_window(self.next_own):
            if not self.pending:
                if self.config.rotation:
                    self._arm_noop_timer(self.next_own)
                return
            if len(self.pending) < self.config.batch_size and self._own_inflight > 0:
                return  # adaptive batching: let the batch fill while busy
            self._propose(self.next_own)

    def _arm_noop_timer(self, order: int) -> None:
        if self._noop_timer is not None:
            return
        self._noop_timer = self.set_timer(self.config.noop_delay_ns, self._noop_tick, order)

    def _noop_tick(self, order: int) -> None:
        self._noop_timer = None
        if order != self.next_own or not self._in_window(order):
            return
        self._propose(order, allow_empty=True)
        self._advance()

    def _take_batch(self) -> tuple[Request, ...]:
        batch: list[Request] = []
        while self.pending and len(batch) < self.config.batch_size:
            request = self.pending.popleft()
            if request.key in self._proposed_keys:
                continue
            batch.append(request)
            self._proposed_keys.add(request.key)
        return tuple(batch)

    def _propose(self, order: int, allow_empty: bool = False) -> None:
        batch = self._take_batch()
        if not batch and not allow_empty:
            return
        for request in batch:
            self.client_crypto.compute_mac(b"client-session", request.digestible(), size_hint=32)
        bare = PrePrepare(self.view, order, batch, self.me)
        pre_prepare = replace(bare, auth=self.certifier.create(bare))
        instance = self._instance(order)
        instance.view = self.view
        instance.pre_prepare = pre_prepare
        instance.proposal_digest = free_digest(pre_prepare.proposal_digestible())
        instance.proposed_at_ns = self.now
        self.proposals += 1
        self._own_inflight += 1
        self.next_own = self._first_own_slot_after(order)
        self.broadcast(list(self.peer_addresses.values()), pre_prepare)

    # ------------------------------------------------------------------
    # Three phases
    # ------------------------------------------------------------------
    def _on_pre_prepare(self, pre_prepare: PrePrepare) -> None:
        order = pre_prepare.order
        if self.config.pillar_of_order(order) != self.index:
            return
        if pre_prepare.view != self.view:
            return
        if pre_prepare.leader != self.config.proposer_of(self.view, order):
            return
        if not self._in_window(order):
            # ahead of our window (our checkpoint lags): keep it so the
            # proposal is ready once the window advances
            if self.high_mark < order <= self.high_mark + 2 * self.config.window_size:
                self._lookahead.setdefault(order, pre_prepare)
            return
        instance = self._instance(order)
        if instance.pre_prepare is not None:
            return  # duplicate (or equivocation, which quorums tolerate)
        if not self.certifier.verify(pre_prepare):
            return
        self._accept_pre_prepare(pre_prepare)

    def _accept_pre_prepare(self, pre_prepare: PrePrepare) -> None:
        for request in pre_prepare.batch:
            self.client_crypto.compute_mac(b"client-session", request.digestible(), size_hint=32)
        order = pre_prepare.order
        instance = self._instance(order)
        instance.view = pre_prepare.view
        instance.pre_prepare = pre_prepare
        instance.proposal_digest = free_digest(pre_prepare.proposal_digestible())
        instance.proposed_at_ns = self.now
        bare = PbftPrepare(pre_prepare.view, order, self.me, instance.proposal_digest)
        prepare = replace(bare, auth=self.certifier.create(bare))
        instance.prepare_votes[self.me] = instance.proposal_digest
        self.broadcast(list(self.peer_addresses.values()), prepare)
        self._check_prepared(instance)

    def _on_prepare(self, prepare: PbftPrepare) -> None:
        instance = self._relevant_instance(prepare.view, prepare.order)
        if instance is None or instance.prepared:
            return
        if prepare.replica in instance.prepare_votes:
            return
        if not self.certifier.verify(prepare):
            return
        instance.prepare_votes[prepare.replica] = prepare.proposal_digest
        self._check_prepared(instance)

    def _check_prepared(self, instance: _PbftInstance) -> None:
        if instance.prepared or instance.pre_prepare is None:
            return
        # prepared: the PRE-PREPARE plus 2f matching PREPAREs (the leader
        # does not send a PREPARE; its PRE-PREPARE stands in)
        votes = instance.matching(instance.prepare_votes) - {instance.pre_prepare.leader}
        if len(votes) < 2 * self.f_pbft:
            return
        instance.prepared = True
        bare = PbftCommit(instance.view, instance.order, self.me, instance.proposal_digest)
        commit = replace(bare, auth=self.certifier.create(bare))
        instance.commit_votes[self.me] = instance.proposal_digest
        self.broadcast(list(self.peer_addresses.values()), commit)
        self._check_committed(instance)

    def _on_commit(self, commit: PbftCommit) -> None:
        instance = self._relevant_instance(commit.view, commit.order)
        if instance is None or instance.committed:
            return
        if commit.replica in instance.commit_votes:
            return
        if not self.certifier.verify(commit):
            return
        instance.commit_votes[commit.replica] = commit.proposal_digest
        self._check_committed(instance)

    def _check_committed(self, instance: _PbftInstance) -> None:
        if instance.committed or not instance.prepared:
            return
        if len(instance.matching(instance.commit_votes)) < 2 * self.f_pbft + 1:
            return
        instance.committed = True
        self.instances_committed += 1
        if instance.pre_prepare is not None and instance.pre_prepare.leader == self.me:
            self._own_inflight = max(0, self._own_inflight - 1)
            if self._own_inflight == 0 and self.pending:
                self.sim.schedule(0, self.thread.submit, self._drain_partial, None)
        if self.exec_address is not None:
            self.send(
                self.exec_address,
                ExecRequest(instance.order, instance.view, instance.pre_prepare.batch),
            )

    def _drain_partial(self, _arg) -> None:
        self._advance()

    def _relevant_instance(self, view: int, order: int) -> _PbftInstance | None:
        if self.config.pillar_of_order(order) != self.index:
            return None
        if view != self.view or not self._in_window(order):
            return None
        return self._instance(order)

    def _on_fill_gap(self, message: FillGap) -> None:
        order = message.order
        if not self._in_window(order):
            return
        if self.config.proposer_of(self.view, order) == self.me:
            if order == self.next_own:
                self._propose(order, allow_empty=True)
                self._advance()
            return
        self.broadcast(list(self.peer_addresses.values()), InstanceFetch(order, self.view))

    def _on_instance_fetch(self, src: Address, message: InstanceFetch) -> None:
        if message.view != self.view:
            return
        instance = self._instances.get(message.order)
        if instance is None:
            return
        if instance.pre_prepare is not None:
            if instance.pre_prepare.leader == self.me:
                self.send(src, instance.pre_prepare)
            elif instance.committed:
                # the proposer may have garbage-collected it; committed
                # instances are safe to relay on its behalf
                self.send(src, instance.pre_prepare)
        if self.me in instance.prepare_votes and instance.proposal_digest is not None:
            bare = PbftPrepare(instance.view, message.order, self.me, instance.proposal_digest)
            self.send(src, replace(bare, auth=self.certifier.create(bare)))
        if self.me in instance.commit_votes and instance.proposal_digest is not None:
            bare = PbftCommit(instance.view, message.order, self.me, instance.proposal_digest)
            self.send(src, replace(bare, auth=self.certifier.create(bare)))

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _on_ck_reached(self, message: CkReached) -> None:
        order, digest = message.order, message.state_digest
        if order <= self.stable_ck_order:
            return
        self._own_ck_digests[order] = digest
        bare = PbftCheckpoint(order, self.me, digest)
        checkpoint = replace(bare, auth=self.certifier.create(bare))
        self.broadcast(list(self.peer_addresses.values()), checkpoint)
        if self._ck_quorum.add((order, digest), self.me, checkpoint) or self._ck_quorum.reached(
            (order, digest)
        ):
            self._declare_stable(order)

    def _on_checkpoint(self, checkpoint: PbftCheckpoint) -> None:
        if checkpoint.order <= self.stable_ck_order:
            return
        if not self.certifier.verify(checkpoint):
            return
        key = checkpoint.agreement_key()
        if self._ck_quorum.add(key, checkpoint.replica, checkpoint):
            if self._own_ck_digests.get(checkpoint.order) == checkpoint.state_digest:
                self._declare_stable(checkpoint.order)
            else:
                # a quorum advanced without us: fetch the state if our own
                # execution does not catch up in time
                certificate = tuple(self._ck_quorum.payloads(key))
                self._remote_stable[checkpoint.order] = (checkpoint.replica, certificate)
                self.set_timer(
                    self.config.fill_gap_timeout_ns, self._check_fallen_behind, checkpoint.order
                )

    def _check_fallen_behind(self, order: int) -> None:
        entry = self._remote_stable.pop(order, None)
        if entry is None or order <= self.stable_ck_order:
            return  # the checkpoint became stable locally in the meantime
        if self._transfer_in_flight is not None and self._transfer_in_flight >= order:
            return
        source, _certificate = entry
        self._transfer_in_flight = order
        self.send((source, "exec"), StateRequest(self.me, order))

    def _on_state_response(self, response: StateResponse) -> None:
        self._transfer_in_flight = None
        if response.checkpoint_order <= self.stable_ck_order:
            return
        certificate = response.checkpoint_certificate
        voters = set()
        for checkpoint in certificate:
            if not isinstance(checkpoint, PbftCheckpoint):
                return
            if checkpoint.order != response.checkpoint_order:
                return
            if checkpoint.state_digest != certificate[0].state_digest:
                return
            if not self.certifier.verify(checkpoint):
                return
            voters.add(checkpoint.replica)
        if len(voters) < 2 * self.f_pbft + 1:
            return
        snapshot, reply_vector = response.snapshot
        if self.exec_address is not None:
            self.send(
                self.exec_address,
                StateInstall(
                    response.checkpoint_order,
                    snapshot,
                    reply_vector,
                    certificate[0].state_digest,
                ),
            )
        announcement = CkStable(response.checkpoint_order, certificate)
        node = self.endpoint.node
        for i in range(self.config.num_pillars):
            if i != self.index:
                self.send((node, f"pillar{i}"), announcement)
        self._apply_stable_checkpoint(response.checkpoint_order)

    def _declare_stable(self, order: int) -> None:
        digest = self._own_ck_digests[order]
        announcement = CkStable(order, tuple(self._ck_quorum.payloads((order, digest))))
        node = self.endpoint.node
        for i in range(self.config.num_pillars):
            if i != self.index:
                self.send((node, f"pillar{i}"), announcement)
        if self.exec_address is not None:
            self.send(self.exec_address, announcement)
        self._apply_stable_checkpoint(order)

    def _apply_stable_checkpoint(self, order: int) -> None:
        if order <= self.stable_ck_order:
            return
        self.stable_ck_order = order
        self._remote_stable.pop(order, None)
        self.low_mark = order
        for stale in [o for o in self._instances if o <= order]:
            del self._instances[stale]
        for stale in [o for o in self._own_ck_digests if o <= order]:
            del self._own_ck_digests[stale]
        self._ck_quorum.discard_below((order + 1, b""))
        self.next_own = max(self.next_own, self._first_own_slot_after(order))
        # replay proposals that had arrived ahead of the old window
        ready = sorted(o for o in self._lookahead if self._in_window(o))
        for stale in [o for o in self._lookahead if o <= order]:
            del self._lookahead[stale]
        for o in ready:
            pre_prepare = self._lookahead.pop(o, None)
            if pre_prepare is not None:
                self._on_pre_prepare(pre_prepare)
        self._advance()


class PbftReplica:
    """One PBFTcop / HybridPBFT replica."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        machine: Machine,
        config: ReplicaGroupConfig,
        replica_id: str,
        service: Service,
        cert_mode: str = AUTHENTICATORS,
        reply_payload_size: int = 0,
        tracer: Tracer = NULL_TRACER,
        message_base_cost_ns: int = 1_100,
        num_repliers: int = 2,
        crypto_profile=JAVA,
    ):
        if config.n < 4 or (config.n - 1) % 3 != 0:
            raise ConfigurationError(f"PBFT needs n = 3f + 1 replicas, got n = {config.n}")
        self.sim = sim
        self.config = config
        self.replica_id = replica_id
        self.machine = machine
        self.f_pbft = (config.n - 1) // 3
        self.cert_mode = cert_mode
        self.endpoint = Endpoint(sim, network, replica_id, tracer)
        self.platform = EnclavePlatform(charge=sim.charge, via_jni=True)

        from repro.core.replica import _ThreadAllocator

        allocator = _ThreadAllocator(machine, message_base_cost_ns)
        receivers = [rid for rid in config.replica_ids if rid != replica_id]
        self.pillars = []
        for i in range(config.num_pillars):
            if cert_mode == TRUSTED_MACS:
                trinx = TrInX(
                    self.platform, config.trinx_instance_id(replica_id, i), config.group_secret
                )
                certifier = _TrustedMacCertifier(trinx, self._expected_issuer(i))
            else:
                certifier = _AuthenticatorCertifier(
                    replica_id, receivers, config.group_secret, sim.charge, crypto_profile
                )
            self.pillars.append(
                PbftPillar(
                    self.endpoint,
                    allocator.next(f"pillar{i}"),
                    config,
                    replica_id,
                    i,
                    certifier,
                    self.f_pbft,
                    crypto_profile,
                )
            )
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
        self._wire_local()

    def _expected_issuer(self, pillar_index: int):
        def issuer_of(message) -> str:
            sender = getattr(message, "replica", None) or getattr(message, "leader", None)
            return self.config.trinx_instance_id(sender, pillar_index)

        return issuer_of

    def _wire_local(self) -> None:
        node = self.replica_id
        pillar_addresses = [(node, f"pillar{i}") for i in range(self.config.num_pillars)]
        for pillar in self.pillars:
            pillar.exec_address = (node, "exec")
        self.execution.pillar_addresses = pillar_addresses
        self.execution.handler_address = (node, "handler")
        self.execution.replier_addresses = [(node, replier.name) for replier in self.repliers]
        self.handler.pillar_addresses = pillar_addresses
        self.handler.exec_address = (node, "exec")

    def start(self) -> None:
        """PBFTcop arms no periodic timers."""

    @property
    def service(self) -> Service:
        return self.execution.service

    def stats(self) -> dict:
        return {
            "replica": self.replica_id,
            "executed_requests": self.execution.executed_requests,
            "proposals": sum(pillar.proposals for pillar in self.pillars),
            "stable_checkpoint": self.pillars[0].stable_ck_order,
        }


def build_pbft_group(
    sim: Simulator,
    network: Network,
    machines: list[Machine],
    config: ReplicaGroupConfig,
    service_factory,
    cert_mode: str = AUTHENTICATORS,
    reply_payload_size: int = 0,
    tracer: Tracer = NULL_TRACER,
    message_base_cost_ns: int = 1_100,
) -> list[PbftReplica]:
    """Build a PBFTcop/HybridPBFT group (one replica per machine)."""
    if len(machines) != config.n:
        raise ConfigurationError(f"need {config.n} machines for {config.n} replicas")
    return [
        PbftReplica(
            sim,
            network,
            machine,
            config,
            replica_id,
            service_factory(),
            cert_mode=cert_mode,
            reply_payload_size=reply_payload_size,
            tracer=tracer,
            message_base_cost_ns=message_base_cost_ns,
        )
        for machine, replica_id in zip(machines, config.replica_ids)
    ]
