"""The ordering pillar — Hybster's processing unit (paper §5.2.1, §5.3).

A pillar owns a statically assigned share of the order-number space
(``o mod P == index``), its own TrInX instance, and its own simulated
thread.  Pillars of one replica share no protocol state and communicate
via internal messages only — the consensus-oriented parallelization.

Within its share, a pillar partitions order numbers into *lanes*, one per
proposer (a single lane under a fixed leader; one lane per replica under
a rotating leader), and dedicates one trusted counter to each lane.
Because certificates bind the flattened ``[view|order]`` value and
counters only grow, each lane must be processed strictly ascending — the
sequentiality the paper identifies as inherent to the hybrid fault model.
A single lane and pillar is exactly the sequential basic protocol
(HybsterS); multiple pillars (and, with rotation, multiple lanes per
pillar) parallelize over disjoint counter timelines.

The pillar also runs its share of the checkpointing protocol (the k-th
checkpoint is coordinated by pillar ``k mod P``) and the pillar-local
side of the distributed view change: creating its part of split
VIEW-CHANGE / NEW-VIEW / NEW-VIEW-ACK messages on the coordinator's
instruction and verifying incoming parts before forwarding them to the
coordinator (see :mod:`repro.core.viewchange`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Any

from repro.core.config import ReplicaGroupConfig
from repro.core.log import OrderingLog
from repro.core.quorum import MatchingQuorum
from repro.core.seqnum import flatten, unflatten
from repro.crypto.costs import JAVA
from repro.crypto.digests import digest as free_digest
from repro.crypto.provider import CryptoProvider
from repro.messages.checkpointing import Checkpoint
from repro.messages.client import Request
from repro.messages.internal import (
    AckReady,
    CkReached,
    CkStable,
    ExecRequest,
    FillGap,
    ForwardAck,
    ForwardNv,
    ForwardVc,
    NvReady,
    NvStable,
    OrderRequest,
    PrepareVc,
    RequestState,
    RequestVc,
    ResendNv,
    ResendVc,
    UnitVc,
    VcReady,
)
from repro.messages.ordering import Commit, InstanceFetch, Prepare
from repro.messages.viewchange import NewView, NewViewAck, ViewChange
from repro.sim.process import Address, Endpoint, Stage
from repro.sim.resources import SimThread
from repro.trinx.trinx import TrInX, batch_root


class Pillar(Stage):
    """One ordering pillar of a Hybster replica."""

    def __init__(
        self,
        endpoint: Endpoint,
        thread: SimThread,
        config: ReplicaGroupConfig,
        replica_id: str,
        index: int,
        trinx: TrInX,
        crypto_profile=JAVA,
    ):
        super().__init__(endpoint, thread, f"pillar{index}")
        self.config = config
        self.replica_id = replica_id
        self.index = index
        self.trinx = trinx
        # client-session MACs are verified here, on the pillar's core
        self.client_crypto = CryptoProvider(crypto_profile, charge=endpoint.sim.charge)

        self.view = 0
        self.view_stable = True
        self.log = OrderingLog(config.window_size)
        # per-lane pointer to the next class order to process, ascending
        self.lane_next: dict[int, int] = {}
        self._reset_lanes(after=0)
        self.pending: deque[Request] = deque()
        self._own_inflight = 0  # own proposals not yet committed (batch pacing)
        self._linger_deadline: int | None = None  # batch linger window end
        self._proposed_keys: dict[tuple[str, int], int] = {}  # request key -> order
        self._buffered_prepares: dict[int, Prepare] = {}
        self._seen_ahead = 0  # highest proposal order observed from peers
        self._gap_timer_armed = False

        self.stable_ck_order = 0  # 0 = the genesis checkpoint
        self.stable_ck_cert: tuple[Checkpoint, ...] = ()
        self._ck_quorum = MatchingQuorum(config.quorum_size)
        self._own_ck_digests: dict[int, bytes] = {}
        self._remote_stable: dict[int, tuple[str, tuple[Checkpoint, ...]]] = {}

        self._cached_vc_parts: dict[int, ViewChange] = {}
        self._cached_nv_parts: dict[int, NewView] = {}
        self._higher_view_witnesses: dict[int, set[str]] = {}
        self._reported_higher_view = 0

        self.coordinator = None  # ViewChangeCoordinator, set on pillar 0 only
        self._timers_started = False
        self._noop_timer = None

        # Certificate verification switch.  Always True in production; the
        # scenario engine flips it off to demonstrate that, without TrInX
        # verification, equivocation slips through and the trace safety
        # checker catches the resulting divergence (repro.scenarios).
        self.verify_trinx = True

        # replica id -> the same-index pillar of every peer
        self.peer_addresses: dict[str, Address] = {
            rid: (rid, self.name) for rid in config.replica_ids if rid != replica_id
        }
        # Wired by the replica.
        self.exec_address: Address | None = None
        self.coordinator_address: Address | None = None

        # Metrics.
        self.proposals = 0
        self.commits_sent = 0
        self.instances_committed = 0

    # ------------------------------------------------------------------
    # Identity and lane helpers
    # ------------------------------------------------------------------
    @property
    def me(self) -> str:
        return self.replica_id

    def _flatten(self, view: int, order: int) -> int:
        return flatten(view, order, self.config.order_bits)

    @staticmethod
    def _class_order_at_or_after(candidate: int, index: int, num_pillars: int) -> int:
        return candidate + (index - candidate) % num_pillars

    def _first_class_order_after(self, order: int) -> int:
        """Smallest order number of this pillar's class strictly above ``order``."""
        return self._class_order_at_or_after(order + 1, self.index, self.config.num_pillars)

    def _first_lane_order_after(self, lane: int, order: int) -> int:
        """Smallest class order of ``lane`` strictly above ``order`` (current view)."""
        candidate = self._first_class_order_after(order)
        for _ in range(self.config.num_lanes):
            if self.config.lane_of(self.view, candidate) == lane:
                return candidate
            candidate += self.config.num_pillars
        raise AssertionError("lane mapping must cycle within num_lanes class steps")

    def _reset_lanes(self, after: int) -> None:
        """Point every lane at its first class order above ``after``."""
        for lane in range(self.config.num_lanes):
            self.lane_next[lane] = self._first_lane_order_after(lane, after)

    def _advance_lane(self, lane: int, processed_order: int) -> None:
        if self.lane_next[lane] <= processed_order:
            self.lane_next[lane] = processed_order + self.config.lane_stride

    def start(self) -> None:
        """Arm periodic timers; called once by the replica builder."""
        if not self._timers_started:
            self._timers_started = True
            self.set_timer(self.config.retransmit_interval_ns, self._on_retransmit_tick)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def on_message(self, src: Address, message: Any) -> None:
        if self.coordinator is not None and self.coordinator.handles(message):
            self.coordinator.on_message(src, message)
            return
        if isinstance(message, OrderRequest):
            self._on_order_request(message)
        elif isinstance(message, Prepare):
            self._on_prepare(src, message)
        elif isinstance(message, Commit):
            self._on_commit(src, message)
        elif isinstance(message, Checkpoint):
            self._on_checkpoint(src, message)
        elif isinstance(message, CkReached):
            self._on_ck_reached(message)
        elif isinstance(message, CkStable):
            self._apply_stable_checkpoint(message.order, message.certificate)
        elif isinstance(message, FillGap):
            self._on_fill_gap(message)
        elif isinstance(message, InstanceFetch):
            self._on_instance_fetch(src, message)
        elif isinstance(message, ViewChange):
            self._on_view_change_part(src, message)
        elif isinstance(message, NewView):
            self._on_new_view_part(src, message)
        elif isinstance(message, NewViewAck):
            self._on_new_view_ack_part(src, message)
        elif isinstance(message, PrepareVc):
            self._on_prepare_vc(message)
        elif isinstance(message, VcReady):
            self._on_vc_ready(message)
        elif isinstance(message, NvReady):
            self._on_nv_ready(message)
        elif isinstance(message, NvStable):
            self._on_nv_stable(message)
        elif isinstance(message, AckReady):
            self._on_ack_ready(message)
        elif isinstance(message, ResendVc):
            self._on_resend_vc(message)
        elif isinstance(message, ResendNv):
            self._on_resend_nv(message)

    # ------------------------------------------------------------------
    # Ordering: proposing
    # ------------------------------------------------------------------
    def _on_order_request(self, message: OrderRequest) -> None:
        for request in message.requests:
            if request.key not in self._proposed_keys:
                self.pending.append(request)
        self._advance()

    def _advance(self) -> None:
        """Progress every lane as far as possible (each strictly ascending)."""
        if not self.view_stable:
            return
        progressed = True
        while progressed:
            progressed = False
            for lane in range(self.config.num_lanes):
                order = self.lane_next[lane]
                if not self.log.in_window(order):
                    continue
                if self.config.proposer_of(self.view, order) == self.me:
                    if self.pending and self._batch_ready():
                        self._propose(order)
                        progressed = True
                    elif self.config.rotation and not self.pending:
                        # our slot gaps the global sequence; release it with
                        # a no-op unless requests arrive in the grace period
                        self._arm_noop_timer(order)
                else:
                    prepare = self._buffered_prepares.pop(order, None)
                    if prepare is None:
                        continue
                    if prepare.view != self.view:
                        continue  # stale buffered proposal from an aborted view
                    if not self._verify_prepare(prepare):
                        continue  # buffered before its turn, so never checked
                    self._accept_prepare(prepare)
                    progressed = True

    def _arm_noop_timer(self, order: int) -> None:
        if self._noop_timer is not None:
            return
        self._noop_timer = self.set_timer(self.config.noop_delay_ns, self._noop_tick, order)

    def _noop_tick(self, order: int) -> None:
        self._noop_timer = None
        if not self.view_stable:
            return
        lane = self.config.lane_of(self.view, order)
        if order != self.lane_next.get(lane):
            return
        if self.config.proposer_of(self.view, order) != self.me:
            return
        self._propose(order, allow_empty=True)
        self._advance()

    def _batch_ready(self) -> bool:
        """Adaptive batching: full batch, or an idle pipeline (low load).

        With ``batch_linger_ns > 0`` an idle pipeline holds a partial
        batch for the linger window before releasing it, trading a little
        latency for fuller batches under light load.
        """
        if len(self.pending) >= self.config.batch_size:
            return True
        if self._own_inflight > 0:
            return False
        if self.config.batch_linger_ns == 0:
            return True
        if self._linger_deadline is None:
            self._linger_deadline = self.now + self.config.batch_linger_ns
            self.set_timer(self.config.batch_linger_ns, self._linger_tick)
            return False
        return self.now >= self._linger_deadline

    def _linger_tick(self) -> None:
        if self._linger_deadline is not None and self.pending:
            self._advance()

    def _take_batch(self) -> tuple[Request, ...]:
        batch: list[Request] = []
        while self.pending and len(batch) < self.config.batch_size:
            request = self.pending.popleft()
            if request.key in self._proposed_keys:
                continue
            batch.append(request)
        return tuple(batch)

    def _propose(self, order: int, allow_empty: bool = False) -> None:
        batch = self._take_batch()
        self._linger_deadline = None
        if not batch and not allow_empty:
            return
        # one vectorized MAC pass over the batch: the modelled cost of
        # verifying every client MAC (the result is not compared)
        digestibles = [request.digestible() for request in batch]
        self.client_crypto.compute_mac_batch(b"client-session", digestibles, size_hint_each=32)
        lane = self.config.lane_of(self.view, order)
        bare = Prepare(self.view, order, batch, self.me)
        # leaf digests are computed outside the enclave; TrInX certifies
        # the fixed-size header plus the root over the ordered leaves
        leaves = self.client_crypto.digest_batch(digestibles, size_hint_each=32)
        certificate = self.trinx.create_independent_batch(
            self.config.ordering_counter(lane),
            self._flatten(self.view, order),
            bare.certified_digestible(),
            leaves,
        )
        prepare = replace(bare, certificate=certificate, batch_digest=batch_root(leaves))
        instance = self.log.instance(order)
        instance.view = self.view
        instance.prepare = prepare
        instance.proposal_digest = free_digest(prepare.proposal_digestible())
        instance.acknowledgments = {self.me}
        instance.proposed_at_ns = self.now
        for request in batch:
            self._proposed_keys[request.key] = order
        self.proposals += 1
        self.trace("propose", (prepare.view, order, len(batch)))
        self.trace("counter-cert", (certificate.counter, certificate.new_value))
        self._own_inflight += 1
        self._advance_lane(lane, order)
        self.broadcast(list(self.peer_addresses.values()), prepare)
        self._absorb_buffered_commits(instance)
        self._check_committed(instance)

    # ------------------------------------------------------------------
    # Ordering: following
    # ------------------------------------------------------------------
    def _on_prepare(self, src: Address, prepare: Prepare) -> None:
        order = prepare.order
        if self.config.pillar_of_order(order) != self.index:
            return
        if prepare.view > self.view:
            self._note_higher_view(prepare.view, prepare.leader)
            return
        if prepare.view != self.view:
            return
        self._seen_ahead = max(self._seen_ahead, order)
        if not self.log.in_window(order):
            # ahead of our window (our checkpoint lags): keep one window's
            # worth of lookahead so the proposal is ready once we advance
            if self.log.high < order <= self.log.high + self.config.window_size:
                self._buffered_prepares.setdefault(order, prepare)
            self._note_gap()
            return
        if not self.view_stable:
            # the view matches but is not yet stable (NEW-VIEW still in
            # flight): keep the proposal for when the view settles, and
            # nudge the coordinator — live ordering traffic means the view
            # established without us, so our VIEW-CHANGE may need resending
            self._buffered_prepares.setdefault(order, prepare)
            self._nudge_unstable()
            return
        lane = self.config.lane_of(self.view, order)
        if order < self.lane_next[lane]:
            self._re_acknowledge(prepare)
            return
        if order > self.lane_next[lane]:
            self._buffered_prepares.setdefault(order, prepare)
            self._note_gap()
            return
        if not self._verify_prepare(prepare):
            return
        self._accept_prepare(prepare)
        self._advance()

    def _verify_prepare(self, prepare: Prepare) -> bool:
        """Validate a PREPARE's independent counter certificate."""
        certificate = prepare.certificate
        if certificate is None or certificate.previous_value is not None:
            return False
        if prepare.reproposal:
            return False  # re-proposals only arrive inside NEW-VIEW messages
        proposer = self.config.proposer_of(prepare.view, prepare.order)
        if prepare.leader != proposer:
            return False
        expected_issuer = self.config.trinx_instance_id(proposer, self.config.pillar_of_order(prepare.order))
        if certificate.issuer != expected_issuer:
            return False
        if certificate.counter != self.config.ordering_counter(
            self.config.lane_of(prepare.view, prepare.order)
        ):
            return False
        if certificate.new_value != self._flatten(prepare.view, prepare.order):
            return False
        if not self.verify_trinx:
            return True
        return self._verify_batch_certificate(prepare)

    def _verify_batch_certificate(self, prepare: Prepare) -> bool:
        """Membership check: every request must hash into the certified root.

        Leaf digests are recomputed from the batch we actually received,
        so a tampered, reordered, or spliced request changes the root and
        the certificate no longer verifies.
        """
        if prepare.batch_digest is None:
            return False
        leaves = self.client_crypto.digest_batch(
            [request.digestible() for request in prepare.batch], size_hint_each=32
        )
        if batch_root(leaves) != prepare.batch_digest:
            return False
        return self.trinx.verify_batch(
            prepare.certificate, prepare.certified_digestible(), leaves
        )

    def _accept_prepare(self, prepare: Prepare) -> None:
        """Acknowledge a verified PREPARE at its lane's next expected order."""
        # followers pay the modelled cost of verifying the client MACs of
        # proposed requests too (the computed MACs are not compared)
        self.client_crypto.compute_mac_batch(
            b"client-session",
            [request.digestible() for request in prepare.batch],
            size_hint_each=32,
        )
        order = prepare.order
        lane = self.config.lane_of(prepare.view, order)
        instance = self.log.instance(order)
        instance.view = prepare.view
        instance.prepare = prepare
        instance.proposal_digest = free_digest(prepare.proposal_digestible())
        instance.proposed_at_ns = self.now
        bare = Commit(prepare.view, order, self.me, instance.proposal_digest)
        certificate = self.trinx.create_independent(
            self.config.ordering_counter(lane),
            self._flatten(prepare.view, order),
            bare.digestible(),
            size_hint=bare.wire_size(),
        )
        commit = replace(bare, certificate=certificate)
        instance.own_commit = commit
        instance.acknowledgments = {prepare.leader, self.me}
        self.commits_sent += 1
        self.trace("counter-cert", (certificate.counter, certificate.new_value))
        self._advance_lane(lane, order)
        self.broadcast(list(self.peer_addresses.values()), commit)
        self._absorb_buffered_commits(instance)
        self._check_committed(instance)

    def _re_acknowledge(self, prepare: Prepare) -> None:
        """The proposer retransmitted: resend our COMMIT if we have one."""
        instance = self.log.peek(prepare.order)
        if instance is not None and instance.own_commit is not None and instance.view == prepare.view:
            self.broadcast(list(self.peer_addresses.values()), instance.own_commit)

    def _on_commit(self, src: Address, commit: Commit) -> None:
        order = commit.order
        if self.config.pillar_of_order(order) != self.index:
            return
        if commit.view > self.view:
            self._note_higher_view(commit.view, commit.replica)
            return
        if commit.view != self.view:
            return
        if not self.log.in_window(order):
            return
        instance = self.log.instance(order)
        if instance.committed:
            return  # quorum already reached; skip needless verification
        if commit.replica in instance.commits or commit.replica in instance.acknowledgments:
            return
        if not self._verify_commit(commit):
            return
        instance.commits[commit.replica] = commit
        if instance.proposal_digest is not None and commit.proposal_digest == instance.proposal_digest:
            instance.acknowledgments.add(commit.replica)
            self._check_committed(instance)

    def _verify_commit(self, commit: Commit) -> bool:
        certificate = commit.certificate
        if certificate is None or certificate.previous_value is not None:
            return False
        expected_issuer = self.config.trinx_instance_id(commit.replica, self.index)
        if certificate.issuer != expected_issuer:
            return False
        if certificate.counter != self.config.ordering_counter(
            self.config.lane_of(commit.view, commit.order)
        ):
            return False
        if certificate.new_value != self._flatten(commit.view, commit.order):
            return False
        if not self.verify_trinx:
            return True
        return self.trinx.verify(certificate, commit.digestible(), size_hint=commit.wire_size())

    def _absorb_buffered_commits(self, instance) -> None:
        """Count commits that arrived before the PREPARE did."""
        for sender, commit in list(instance.commits.items()):
            if (
                commit.view == instance.view
                and instance.proposal_digest is not None
                and commit.proposal_digest == instance.proposal_digest
            ):
                instance.acknowledgments.add(sender)

    def _check_committed(self, instance) -> None:
        if instance.committed or instance.prepare is None:
            return
        if len(instance.acknowledgments) < self.config.quorum_size:
            return
        instance.committed = True
        self.instances_committed += 1
        if instance.prepare is not None and instance.prepare.leader == self.me:
            self._own_inflight = max(0, self._own_inflight - 1)
            if self._own_inflight == 0 and self.pending:
                # the pipeline drained: release a (possibly partial) batch
                self.sim.schedule(0, self.thread.submit, self._drain_partial, None)
        if self.exec_address is not None:
            self.send(
                self.exec_address,
                ExecRequest(instance.order, instance.view, instance.prepare.batch),
            )

    def _drain_partial(self, _arg) -> None:
        self._advance()

    _last_unstable_nudge_ns = -1_000_000_000

    def _nudge_unstable(self) -> None:
        if self.coordinator_address is None:
            return
        if self.now - self._last_unstable_nudge_ns < self.config.viewchange_timeout_ns // 2:
            return
        self._last_unstable_nudge_ns = self.now
        self.send(
            self.coordinator_address,
            RequestVc(
                reason="ordering traffic while view is unstable",
                suspected_view=self.view,
                resend_only=True,
            ),
        )

    def _note_higher_view(self, view: int, witness: str) -> None:
        """Ordering traffic for a higher view: we missed a view change.

        Once f distinct replicas evidence the higher view, nudge the
        coordinator; our VIEW-CHANGE makes the peers (or their leader)
        resend the NEW-VIEW that gets us back into the current view.
        """
        witnesses = self._higher_view_witnesses.setdefault(view, set())
        witnesses.add(witness)
        if view <= self._reported_higher_view:
            return
        if len(witnesses) >= max(1, self.config.f) and self.coordinator_address is not None:
            self._reported_higher_view = view
            self.send(
                self.coordinator_address,
                RequestVc(reason=f"ordering traffic for higher view {view}", suspected_view=self.view),
            )

    def _note_gap(self) -> None:
        """Arm a catch-up probe: proposals exist beyond our next slot.

        Without this, a replica that falls more than one lookahead window
        behind only recovers through checkpoint state transfer, and any
        instances ordered after the final stable checkpoint are lost to it
        for good (their PREPAREs arrived outside the buffer horizon and
        the quorum, having committed, never retransmits them).
        """
        if self._gap_timer_armed:
            return
        self._gap_timer_armed = True
        self.set_timer(self.config.fill_gap_timeout_ns, self._gap_tick)

    def _gap_tick(self) -> None:
        self._gap_timer_armed = False
        if not self.view_stable:
            return
        horizon = min(self._seen_ahead, self.log.high)
        missing = [
            order
            for order in range(min(self.lane_next.values()), horizon + 1)
            if self.config.pillar_of_order(order) == self.index
            and order >= self.lane_next[self.config.lane_of(self.view, order)]
            and order not in self._buffered_prepares
        ]
        for order in missing:
            self.broadcast(list(self.peer_addresses.values()), InstanceFetch(order, self.view))
        if missing:
            self._note_gap()  # keep probing until the holes close

    def _on_fill_gap(self, message: FillGap) -> None:
        order = message.order
        if not self.view_stable:
            return
        if self.config.proposer_of(self.view, order) == self.me:
            lane = self.config.lane_of(self.view, order)
            if order == self.lane_next.get(lane):
                self._propose(order, allow_empty=True)
                self._advance()
            return
        # not ours: the instance stalls locally (lost PREPARE or COMMITs) —
        # ask the peers to retransmit their ordering messages for it
        self.broadcast(list(self.peer_addresses.values()), InstanceFetch(order, self.view))

    def _on_instance_fetch(self, src: Address, message: InstanceFetch) -> None:
        if message.view != self.view or not self.view_stable:
            return
        instance = self.log.peek(message.order)
        if instance is None or instance.view != self.view:
            return
        if instance.prepare is not None and instance.prepare.leader == self.me:
            self.send(src, instance.prepare)
        elif instance.own_commit is not None:
            self.send(src, instance.own_commit)

    # ------------------------------------------------------------------
    # Retransmission and suspicion
    # ------------------------------------------------------------------
    def _on_retransmit_tick(self) -> None:
        if self.view_stable:
            now = self.now
            oldest_age = 0
            for instance in self.log.uncommitted():
                if instance.view != self.view:
                    continue  # stale leftovers of an aborted view
                age = now - instance.proposed_at_ns
                oldest_age = max(oldest_age, age)
                if instance.prepare.leader == self.me and age > self.config.retransmit_interval_ns:
                    self.broadcast(list(self.peer_addresses.values()), instance.prepare)
            if oldest_age > self.config.viewchange_timeout_ns and self.coordinator_address is not None:
                self.send(
                    self.coordinator_address,
                    RequestVc(
                        reason=f"pillar {self.index}: instance without quorum for {oldest_age} ns",
                        suspected_view=self.view,
                    ),
                )
        self.set_timer(self.config.retransmit_interval_ns, self._on_retransmit_tick)

    # ------------------------------------------------------------------
    # Checkpointing (shared: this pillar runs checkpoints k with k mod P == index)
    # ------------------------------------------------------------------
    def _on_ck_reached(self, message: CkReached) -> None:
        order, digest = message.order, message.state_digest
        if order <= self.stable_ck_order:
            return
        self._own_ck_digests[order] = digest
        bare = Checkpoint(order, self.me, digest)
        certificate = self.trinx.create_trusted_mac(
            self.config.mac_counter, bare.digestible(), size_hint=bare.wire_size()
        )
        checkpoint = replace(bare, certificate=certificate)
        self.broadcast(list(self.peer_addresses.values()), checkpoint)
        if self._ck_quorum.add((order, digest), self.me, checkpoint):
            self._declare_stable(order, digest)
        elif self._ck_quorum.reached((order, digest)):
            # the quorum had formed before our own snapshot arrived
            self._declare_stable(order, digest)

    def _on_checkpoint(self, src: Address, checkpoint: Checkpoint) -> None:
        if checkpoint.order <= self.stable_ck_order:
            return
        if not self._verify_checkpoint(checkpoint):
            return
        key = checkpoint.agreement_key()
        if self._ck_quorum.add(key, checkpoint.replica, checkpoint):
            own = self._own_ck_digests.get(checkpoint.order)
            if own == checkpoint.state_digest:
                self._declare_stable(checkpoint.order, checkpoint.state_digest)
            else:
                # a quorum advanced without us: remember it and fetch state
                # if our own execution does not catch up in time
                certificate = tuple(self._ck_quorum.payloads(key))
                self._remote_stable[checkpoint.order] = (checkpoint.replica, certificate)
                self.set_timer(self.config.fill_gap_timeout_ns, self._check_fallen_behind, checkpoint.order)

    def _verify_checkpoint(self, checkpoint: Checkpoint) -> bool:
        certificate = checkpoint.certificate
        if certificate is None or not certificate.is_trusted_mac:
            return False
        if certificate.counter != self.config.mac_counter:
            return False
        expected_issuer = self.config.trinx_instance_id(
            checkpoint.replica, self.config.checkpoint_pillar(checkpoint.order)
        )
        if certificate.issuer != expected_issuer:
            return False
        return self.trinx.verify(certificate, checkpoint.digestible(), size_hint=checkpoint.wire_size())

    def _declare_stable(self, order: int, digest: bytes) -> None:
        certificate = tuple(self._ck_quorum.payloads((order, digest)))
        self._remote_stable.pop(order, None)
        announcement = CkStable(order, certificate)
        for address in self._local_stage_addresses():
            self.send(address, announcement)
        self._apply_stable_checkpoint(order, certificate)

    def _check_fallen_behind(self, order: int) -> None:
        """A quorum checkpointed ``order`` but we never matched it: catch up."""
        entry = self._remote_stable.pop(order, None)
        if entry is None or order <= self.stable_ck_order:
            return  # the checkpoint became stable locally in the meantime
        source, _certificate = entry
        if self.coordinator_address is not None:
            self.send(self.coordinator_address, RequestState(order, source))

    def _apply_stable_checkpoint(self, order: int, certificate: tuple[Checkpoint, ...]) -> None:
        if order <= self.stable_ck_order:
            return
        self.stable_ck_order = order
        self.trace("checkpoint-stable", order)
        self.stable_ck_cert = certificate
        self.log.advance(order)
        for lane in range(self.config.num_lanes):
            self.lane_next[lane] = max(self.lane_next[lane], self._first_lane_order_after(lane, order))
        for buffered in [o for o in self._buffered_prepares if o <= order]:
            del self._buffered_prepares[buffered]
        for key, proposed_order in list(self._proposed_keys.items()):
            if proposed_order <= order:
                del self._proposed_keys[key]
        for ck_order in [o for o in self._own_ck_digests if o <= order]:
            del self._own_ck_digests[ck_order]
        self._ck_quorum.discard_below((order + 1, b""))
        if self.coordinator is not None:
            self.coordinator.note_checkpoint(order, certificate)
        self._advance()

    def _local_stage_addresses(self) -> list[Address]:
        node = self.endpoint.node
        addresses = [
            (node, f"pillar{i}") for i in range(self.config.num_pillars) if i != self.index
        ]
        if self.exec_address is not None:
            addresses.append(self.exec_address)
        return addresses

    # ------------------------------------------------------------------
    # View change: pillar-local duties
    # ------------------------------------------------------------------
    def _on_prepare_vc(self, message: PrepareVc) -> None:
        prepares = tuple(self.log.prepares_in_window(self.index, self.config.num_pillars))
        self.send(
            self.coordinator_address,
            UnitVc(self.index, message.v_to, self.stable_ck_order, prepares),
        )

    def _on_vc_ready(self, message: VcReady) -> None:
        self.view = message.v_to
        self.view_stable = False
        self._own_inflight = 0
        self._buffered_prepares.clear()
        bare = ViewChange(
            replica=self.me,
            v_from=message.v_from,
            v_to=message.v_to,
            checkpoint_order=message.checkpoint_order,
            checkpoint_certificate=message.checkpoint_certificate,
            prepares=message.prepares_by_pillar[self.index],
            pillar=self.index,
            num_parts=self.config.num_pillars,
        )
        sealed = self._flatten(message.v_to, 0)
        if self.config.num_lanes == 1:
            certificate = self.trinx.create_continuing(
                self.config.ordering_counter(0), sealed, bare.digestible(), size_hint=bare.wire_size()
            )
            part = replace(bare, certificate=certificate)
        else:
            multi = self.trinx.create_multi_continuing(
                {self.config.ordering_counter(lane): sealed for lane in range(self.config.num_lanes)},
                bare.digestible(),
                size_hint=bare.wire_size(),
            )
            part = replace(bare, multi_certificate=multi)
        self._cached_vc_parts[message.v_to] = part
        self.broadcast(list(self.peer_addresses.values()), part)
        self.send(self.coordinator_address, ForwardVc(part))

    def _on_view_change_part(self, src: Address, part: ViewChange) -> None:
        if part.pillar != self.index or part.num_parts != self.config.num_pillars:
            return
        if part.replica == self.me:
            return
        if not self._verify_vc_part(part):
            return
        self.send(self.coordinator_address, ForwardVc(part))

    def _verify_vc_part(self, part: ViewChange) -> bool:
        """Full validation of one VIEW-CHANGE part (certificate, completeness)."""
        sealed = self._flatten(part.v_to, 0)
        expected_issuer = self.config.trinx_instance_id(part.replica, self.index)
        lane_previous: dict[int, int] = {}
        if self.config.num_lanes == 1:
            certificate = part.certificate
            if certificate is None or certificate.previous_value is None:
                return False
            if certificate.issuer != expected_issuer or certificate.counter != 0:
                return False
            if certificate.new_value != sealed:
                return False
            if not self.trinx.verify(certificate, part.digestible(), size_hint=part.wire_size()):
                return False
            lane_previous[0] = certificate.previous_value
        else:
            multi = part.multi_certificate
            if multi is None or multi.issuer != expected_issuer:
                return False
            covered_counters = {entry[0] for entry in multi.entries}
            if covered_counters != set(range(self.config.num_lanes)):
                return False
            for counter, new_value, previous in multi.entries:
                if new_value != sealed or previous is None:
                    return False
                lane_previous[counter] = previous
            if not self.trinx.verify_multi(multi, part.digestible(), size_hint=part.wire_size()):
                return False
        if not self._verify_checkpoint_certificate(part.checkpoint_order, part.checkpoint_certificate):
            return False
        # Completeness: each lane's unforgeable previous counter value
        # reveals the last instance the sender actively participated in;
        # every lane order between its checkpoint and that instance must be
        # covered by an included PREPARE.
        covered = {prepare.order for prepare in part.prepares}
        for lane, previous in lane_previous.items():
            prev_view, prev_order = unflatten(previous, self.config.order_bits)
            if prev_order <= part.checkpoint_order:
                continue
            order = self._class_order_at_or_after(
                part.checkpoint_order + 1, self.index, self.config.num_pillars
            )
            while order <= prev_order:
                if self.config.lane_of(prev_view, order) == lane and order not in covered:
                    return False
                order += self.config.num_pillars
        for prepare in part.prepares:
            if self.config.pillar_of_order(prepare.order) != self.index:
                return False
            if not self._verify_foreign_prepare(prepare):
                return False
        return True

    def _verify_foreign_prepare(self, prepare: Prepare) -> bool:
        """Verify a PREPARE from an arbitrary (earlier) view."""
        certificate = prepare.certificate
        if certificate is None or certificate.previous_value is not None:
            return False
        if prepare.reproposal:
            proposer = self.config.primary_of_view(prepare.view)
            expected_counter = self.config.ordering_counter(
                self.config.index_of(proposer) if self.config.rotation else 0
            )
        else:
            proposer = self.config.proposer_of(prepare.view, prepare.order)
            expected_counter = self.config.ordering_counter(
                self.config.lane_of(prepare.view, prepare.order)
            )
        if prepare.leader != proposer:
            return False
        expected_issuer = self.config.trinx_instance_id(proposer, self.config.pillar_of_order(prepare.order))
        if certificate.issuer != expected_issuer or certificate.counter != expected_counter:
            return False
        if certificate.new_value != self._flatten(prepare.view, prepare.order):
            return False
        return self._verify_batch_certificate(prepare)

    def _verify_checkpoint_certificate(self, order: int, certificate: tuple[Checkpoint, ...]) -> bool:
        if order <= 0:
            return len(certificate) == 0  # the genesis checkpoint needs no proof
        voters = set()
        for checkpoint in certificate:
            if checkpoint.order != order:
                return False
            if checkpoint.state_digest != certificate[0].state_digest:
                return False
            if not self._verify_checkpoint(checkpoint):
                return False
            voters.add(checkpoint.replica)
        return len(voters) >= self.config.quorum_size

    # ------------------------------------------------------------------
    # NEW-VIEW: creation (leader pillars) and verification (all pillars)
    # ------------------------------------------------------------------
    def _on_nv_ready(self, message: NvReady) -> None:
        self.view = message.v_to
        self.log.advance(message.checkpoint_order)
        reproposal_counter = self.config.ordering_counter(
            self.config.index_of(self.me) if self.config.rotation else 0
        )
        new_prepares = []
        floor = max(message.checkpoint_order, self.stable_ck_order)
        max_order = floor
        for order, batch in message.prepares_by_pillar[self.index]:
            if order <= floor:
                continue  # covered by a checkpoint reached meanwhile
            bare = Prepare(message.v_to, order, batch, self.me, reproposal=True)
            leaves = self.client_crypto.digest_batch(
                [request.digestible() for request in batch], size_hint_each=32
            )
            certificate = self.trinx.create_independent_batch(
                reproposal_counter,
                self._flatten(message.v_to, order),
                bare.certified_digestible(),
                leaves,
            )
            prepare = replace(bare, certificate=certificate, batch_digest=batch_root(leaves))
            new_prepares.append(prepare)
            instance = self.log.instance(order)
            instance.view = message.v_to
            instance.prepare = prepare
            instance.proposal_digest = free_digest(prepare.proposal_digestible())
            instance.acknowledgments = {self.me}
            instance.committed = False
            instance.commits = {}
            instance.proposed_at_ns = self.now
            for request in batch:
                self._proposed_keys[request.key] = order
            max_order = max(max_order, order)
        self._reset_lanes(after=max_order)
        part = NewView(
            leader=self.me,
            v_to=message.v_to,
            base_view=message.base_view,
            checkpoint_order=message.checkpoint_order,
            checkpoint_certificate=message.checkpoint_certificate,
            view_changes=tuple(vc for vc in message.view_changes if vc.pillar == self.index),
            acks=tuple(ack for ack in message.acks if ack.pillar == self.index),
            prepares=tuple(new_prepares),
            pillar=self.index,
            num_parts=self.config.num_pillars,
        )
        self._cached_nv_parts[message.v_to] = part
        self.broadcast(list(self.peer_addresses.values()), part)
        self.send(self.coordinator_address, ForwardNv(part))

    def _on_new_view_part(self, src: Address, part: NewView) -> None:
        if part.pillar != self.index or part.num_parts != self.config.num_pillars:
            return
        if part.leader == self.me:
            return
        if part.leader != self.config.primary_of_view(part.v_to):
            return
        for prepare in part.prepares:
            if self.config.pillar_of_order(prepare.order) != self.index:
                return
            if prepare.view != part.v_to or prepare.leader != part.leader or not prepare.reproposal:
                return
            if not self._verify_foreign_prepare(prepare):
                return
        for view_change in part.view_changes:
            if view_change.v_to != part.v_to or view_change.pillar != self.index:
                return
            if view_change.replica != self.me and not self._verify_vc_part(view_change):
                return
        if not self._verify_checkpoint_certificate(part.checkpoint_order, part.checkpoint_certificate):
            return
        self.send(self.coordinator_address, ForwardNv(part))

    def _on_new_view_ack_part(self, src: Address, part: NewViewAck) -> None:
        if part.pillar != self.index or part.num_parts != self.config.num_pillars:
            return
        if part.replica == self.me:
            return
        for prepare in part.prepares:
            if self.config.pillar_of_order(prepare.order) != self.index:
                return
            if not self._verify_foreign_prepare(prepare):
                return
        self.send(self.coordinator_address, ForwardAck(part))

    # ------------------------------------------------------------------
    # Stable view installation
    # ------------------------------------------------------------------
    def _on_nv_stable(self, message: NvStable) -> None:
        self.view = message.v_to
        self.view_stable = True
        for stale in [v for v in self._higher_view_witnesses if v <= message.v_to]:
            del self._higher_view_witnesses[stale]
        # instances of aborted views that the NEW-VIEW did not re-propose
        # were provably never committed anywhere: discard them
        for order, instance in list(self.log._instances.items()):
            if instance.view < message.v_to and not instance.committed:
                del self.log._instances[order]
        if message.checkpoint_order > self.stable_ck_order:
            self.stable_ck_order = message.checkpoint_order
            self.stable_ck_cert = message.checkpoint_certificate
            self.log.advance(message.checkpoint_order)
        # skip re-proposals already covered by a checkpoint — the NEW-VIEW's
        # own, or a newer one we reached via state transfer in the meantime
        floor = max(message.checkpoint_order, self.stable_ck_order)
        max_order = floor
        for prepare in message.prepares_by_pillar[self.index]:
            if prepare.order <= floor:
                continue
            max_order = max(max_order, prepare.order)
            if prepare.leader == self.me:
                continue  # created by us in _on_nv_ready
            self._accept_reproposal(prepare)
        self._reset_lanes(after=max(max_order, self.stable_ck_order))
        self._advance()

    def _accept_reproposal(self, prepare: Prepare) -> None:
        """Acknowledge a NEW-VIEW re-proposal (already verified on receipt)."""
        instance = self.log.instance(prepare.order)
        instance.view = prepare.view
        instance.prepare = prepare
        instance.proposal_digest = free_digest(prepare.proposal_digestible())
        instance.committed = False
        instance.commits = {}
        instance.proposed_at_ns = self.now
        lane = self.config.lane_of(prepare.view, prepare.order)
        bare = Commit(prepare.view, prepare.order, self.me, instance.proposal_digest)
        certificate = self.trinx.create_independent(
            self.config.ordering_counter(lane),
            self._flatten(prepare.view, prepare.order),
            bare.digestible(),
            size_hint=bare.wire_size(),
        )
        commit = replace(bare, certificate=certificate)
        instance.own_commit = commit
        instance.acknowledgments = {prepare.leader, self.me}
        self.commits_sent += 1
        self.trace("counter-cert", (certificate.counter, certificate.new_value))
        self.broadcast(list(self.peer_addresses.values()), commit)
        self._check_committed(instance)

    def _on_ack_ready(self, message: AckReady) -> None:
        part = NewViewAck(
            replica=self.me,
            view=message.view,
            prepares=message.prepares_by_pillar[self.index],
            pillar=self.index,
            num_parts=self.config.num_pillars,
        )
        self.broadcast(list(self.peer_addresses.values()), part)

    # ------------------------------------------------------------------
    # Retransmission of view-change artifacts
    # ------------------------------------------------------------------
    def _on_resend_vc(self, message: ResendVc) -> None:
        part = self._cached_vc_parts.get(message.v_to)
        if part is not None:
            self.broadcast(list(self.peer_addresses.values()), part)

    def _on_resend_nv(self, message: ResendNv) -> None:
        part = self._cached_nv_parts.get(message.v_to)
        if part is not None and message.target in self.peer_addresses:
            self.send(self.peer_addresses[message.target], part)
