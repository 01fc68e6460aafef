"""PBFT with consensus-oriented parallelization (``PBFTcop``) and its
trusted-MAC variant (``HybridPBFT``).

This is the paper's primary baseline (§6, "Subjects"): the classic
three-phase PBFT ordering protocol implemented on the same code base and
parallelization scheme as Hybster — pillars own disjoint shares of the
order-number space, an execution stage delivers globally, checkpoints are
shared round-robin.  ``PbftPillar`` drives the same ordering skeleton as
Hybster's pillar (:class:`repro.core.ordering.OrderingStage`: window,
lanes, batching, no-ops, gap fill, retransmission of its own proposals)
and supplies only its certification, phases, quorums and follow rule.
Differences from Hybster:

* ``n = 3f + 1`` replicas; *prepared* needs the PRE-PREPARE plus ``2f``
  matching PREPAREs, *committed* needs ``2f + 1`` matching COMMITs;
* messages carry MAC **authenticators** (one MAC entry per receiver —
  ~3 hashes per outgoing message and one per incoming at ``n = 4``), or
  with ``cert_mode="trusted_macs"`` a single non-repudiable trusted MAC
  from TrInX (one enclave call out, one in) — that configuration is
  HybridPBFT;
* equivocation is tolerated by the quorum sizes instead of prevented, so
  no trusted counters constrain processing order: followers accept
  proposals out of order.

The view-change protocol is not implemented: the baseline exists for the
fault-free performance comparison, exactly how the paper uses it.  Fault
handling is evaluated on Hybster (see tests/test_viewchange*.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.baselines.pbft_messages import PbftCheckpoint, PbftCommit, PbftPrepare, PrePrepare
from repro.messages.ordering import InstanceFetch
from repro.core.checkpoint import Checkpoints, replica_stages
from repro.core.config import COUNTER_M, ReplicaGroupConfig
from repro.core.execution import ExecutionStage, ReplierStage
from repro.core.handler import ClientHandler
from repro.core.ordering import OrderingStage
from repro.crypto.authenticators import AuthenticatorFactory
from repro.crypto.costs import JAVA
from repro.crypto.digests import digest as free_digest
from repro.crypto.provider import CryptoProvider
from repro.errors import ConfigurationError
from repro.messages.client import Request
from repro.messages.internal import CkReached, CkStable, FillGap, OrderRequest
from repro.messages.statetransfer import StateRequest, StateResponse
from repro.services.base import Service
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.process import Address, Endpoint
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
    prepare: PrePrepare | None = None  # the proposal (named as in the shared log)
    proposal_digest: bytes | None = None
    # digest each replica voted for; only votes matching the PRE-PREPARE's
    # proposal digest count towards the quorums
    prepare_votes: dict[str, bytes] = field(default_factory=dict)
    commit_votes: dict[str, bytes] = field(default_factory=dict)
    # our own votes, re-sent on a duplicate PRE-PREPARE or an INSTANCE-FETCH
    own_prepare: PbftPrepare | None = None
    own_commit: PbftCommit | None = None
    prepared: bool = False
    committed: bool = False
    proposed_at_ns: int = 0

    def matching(self, votes: dict[str, bytes]) -> set[str]:
        if self.proposal_digest is None:
            return set()
        return {replica for replica, digest in votes.items() if digest == self.proposal_digest}


class PbftPillar(OrderingStage):
    """One PBFTcop ordering pillar (three-phase, class ``o mod P``).

    PBFT has no trusted counters, so a follower accepts proposals out of
    order; only its own lane is proposed strictly ascending.
    """

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
        super().__init__(endpoint, thread, config, replica_id, index, crypto_profile, _PbftInstance)
        self.certifier = certifier
        self.f_pbft = f_pbft
        self.checkpoints = Checkpoints(
            self,
            2 * f_pbft + 1,
            PbftCheckpoint,
            certify=lambda order, digest: self._certified(PbftCheckpoint(order, self.me, digest)),
            verify=certifier.verify,
            advance=self._on_checkpoint_stable,
            announce_to=lambda: replica_stages(self),
            fetch=self._fetch_state,
        )
        self._transfer_in_flight: int | None = None

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
            self.checkpoints.receive(message)
        elif isinstance(message, CkReached):
            self.checkpoints.reached(message.order, message.state_digest)
        elif isinstance(message, CkStable):
            self.checkpoints.apply(message.order, message.certificate)
        elif isinstance(message, FillGap):
            self._on_fill_gap(message)
        elif isinstance(message, InstanceFetch):
            self._on_instance_fetch(src, message)
        elif isinstance(message, StateResponse):
            self._on_state_response(message)

    def _certified(self, bare):
        return replace(bare, auth=self.certifier.create(bare))

    def _record(self, pre_prepare: PrePrepare) -> _PbftInstance:
        """Make ``pre_prepare`` the proposal of its instance."""
        instance = self.log.instance(pre_prepare.order)
        instance.view = pre_prepare.view
        instance.prepare = pre_prepare
        instance.proposal_digest = free_digest(pre_prepare.proposal_digestible())
        instance.proposed_at_ns = self.now
        return instance

    def _verify_clients(self, batch: tuple[Request, ...]) -> None:
        """One client-session MAC per request (the result is not compared)."""
        for request in batch:
            self.client_crypto.compute_mac(b"client-session", request.digestible(), size_hint=32)

    # ------------------------------------------------------------------
    # Three phases
    # ------------------------------------------------------------------
    def _proposal(self, order: int, batch: tuple[Request, ...]) -> _PbftInstance:
        self._verify_clients(batch)
        return self._record(self._certified(PrePrepare(self.view, order, batch, self.me)))

    def _on_pre_prepare(self, pre_prepare: PrePrepare) -> None:
        order = pre_prepare.order
        if self.config.pillar_of_order(order) != self.index:
            return
        if pre_prepare.view != self.view:
            return
        if pre_prepare.leader != self.config.proposer_of(self.view, order):
            return
        if not self.log.in_window(order):
            # ahead of our window (our checkpoint lags): keep it so the
            # proposal is ready once the window advances
            if self.log.high < order <= self.log.high + 2 * self.config.window_size:
                self._buffered.setdefault(order, pre_prepare)
            return
        instance = self.log.instance(order)
        if instance.prepare is not None:
            # a duplicate: the proposer retransmits because it misses our
            # votes (an equivocating one is tolerated by the quorums)
            for vote in (instance.own_prepare, instance.own_commit):
                if vote is not None:
                    self.broadcast(self.peers, vote)
            return
        if not self.certifier.verify(pre_prepare):
            return
        self._verify_clients(pre_prepare.batch)
        instance = self._record(pre_prepare)
        prepare = self._certified(PbftPrepare(pre_prepare.view, order, self.me, instance.proposal_digest))
        instance.prepare_votes[self.me] = instance.proposal_digest
        instance.own_prepare = prepare
        self.broadcast(self.peers, prepare)
        self._check_prepared(instance)

    _replay = _on_pre_prepare  # out of order: a buffered proposal is never waiting for its lane

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
        if instance.prepared or instance.prepare is None:
            return
        # prepared: the PRE-PREPARE plus 2f matching PREPAREs (the leader
        # does not send a PREPARE; its PRE-PREPARE stands in)
        votes = instance.matching(instance.prepare_votes) - {instance.prepare.leader}
        if len(votes) < 2 * self.f_pbft:
            return
        instance.prepared = True
        commit = self._certified(PbftCommit(instance.view, instance.order, self.me, instance.proposal_digest))
        instance.commit_votes[self.me] = instance.proposal_digest
        instance.own_commit = commit
        self.broadcast(self.peers, commit)
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
        self._committed(instance)

    def _relevant_instance(self, view: int, order: int) -> _PbftInstance | None:
        if self.config.pillar_of_order(order) != self.index:
            return None
        if view != self.view or not self.log.in_window(order):
            return None
        return self.log.instance(order)

    def _on_instance_fetch(self, src: Address, message: InstanceFetch) -> None:
        if message.view != self.view:
            return
        instance = self.log.peek(message.order)
        if instance is None:
            return
        # the proposer may have garbage-collected a committed instance;
        # committed ones are safe to relay on its behalf
        if instance.prepare is not None and (instance.prepare.leader == self.me or instance.committed):
            self.send(src, instance.prepare)
        for vote in (instance.own_prepare, instance.own_commit):
            if vote is not None:
                self.send(src, vote)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _fetch_state(self, order: int, source: str) -> None:
        """A quorum checkpointed ``order`` but we never matched it: fetch its state."""
        if self._transfer_in_flight is not None and self._transfer_in_flight >= order:
            return
        self._transfer_in_flight = order
        self.send((source, "exec"), StateRequest(self.me, order))

    def _on_state_response(self, response: StateResponse) -> None:
        self._transfer_in_flight = None
        if not self.checkpoints.install(response, self.stable_ck_order, self.exec_address):
            return
        order, certificate = response.checkpoint_order, response.checkpoint_certificate
        announcement = CkStable(order, certificate)
        for address in replica_stages(self, with_exec=False):
            self.send(address, announcement)
        self.checkpoints.apply(order, certificate)

    def _window_advanced(self, order: int) -> None:
        # replay proposals that had arrived ahead of the old window
        for o in sorted(o for o in self._buffered if self.log.in_window(o)):
            self._on_pre_prepare(self._buffered.pop(o))


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
        """Arm each pillar's retransmission timer."""
        for pillar in self.pillars:
            pillar.start()

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
