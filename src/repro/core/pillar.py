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

The window, lanes, batching, no-op rotation, gap filling and the
retransmission of its own proposals come from the ordering skeleton it
shares with PBFTcop (:mod:`repro.core.ordering`); this module supplies
Hybster's certification (TrInX), its two phases and its follow rule.

The pillar also runs its share of the checkpointing protocol (the k-th
checkpoint is coordinated by pillar ``k mod P``) and the pillar-local
side of the distributed view change: creating its part of split
VIEW-CHANGE / NEW-VIEW / NEW-VIEW-ACK messages on the coordinator's
instruction and verifying incoming parts before forwarding them to the
coordinator (see :mod:`repro.core.viewchange`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.core.checkpoint import Checkpoints, forget_through, replica_stages
from repro.core.config import ReplicaGroupConfig
from repro.core.log import InstanceState
from repro.core.ordering import OrderingStage
from repro.core.seqnum import flatten, unflatten
from repro.crypto.costs import JAVA
from repro.crypto.digests import digest as free_digest
from repro.messages.checkpointing import Checkpoint
from repro.messages.client import Request
from repro.messages.internal import (
    AckReady,
    CkReached,
    CkStable,
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
from repro.sim.process import Address, Endpoint
from repro.sim.resources import SimThread
from repro.trinx.trinx import TrInX, batch_root


class Pillar(OrderingStage):
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
        super().__init__(endpoint, thread, config, replica_id, index, crypto_profile)
        self.trinx = trinx
        self._seen_ahead = 0  # highest proposal order observed from peers
        self._gap_timer_armed = False

        self.checkpoints = Checkpoints(
            self,
            config.quorum_size,
            Checkpoint,
            certify=self._certify_checkpoint,
            verify=self._verify_checkpoint,
            advance=self._on_checkpoint_stable,
            announce_to=lambda: replica_stages(self),
            fetch=self._fetch_state,
        )

        self._cached_vc_parts: dict[int, ViewChange] = {}
        self._cached_nv_parts: dict[int, NewView] = {}
        self._higher_view_witnesses: dict[int, set[str]] = {}
        self._reported_higher_view = 0

        self.coordinator = None  # ViewChangeCoordinator, set on pillar 0 only

        # Certificate verification switch.  Always True in production; the
        # scenario engine flips it off to demonstrate that, without TrInX
        # verification, equivocation slips through and the trace safety
        # checker catches the resulting divergence (repro.scenarios).
        self.verify_trinx = True

        self.coordinator_address: Address | None = None  # wired by the replica
        self.commits_sent = 0

    @property
    def stable_ck_cert(self) -> tuple[Checkpoint, ...]:
        return self.checkpoints.stable_cert

    def _flatten(self, view: int, order: int) -> int:
        return flatten(view, order, self.config.order_bits)

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
            self.checkpoints.receive(message)
        elif isinstance(message, CkReached):
            self.checkpoints.reached(message.order, message.state_digest)
        elif isinstance(message, CkStable):
            self.checkpoints.apply(message.order, message.certificate)
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
    def _proposal(self, order: int, batch: tuple[Request, ...]) -> InstanceState:
        lane = self.config.lane_of(self.view, order)
        instance = self._certify_proposal(Prepare(self.view, order, batch, self.me), lane)
        certificate = instance.prepare.certificate
        self.trace("propose", (self.view, order, len(batch)))
        self.trace("counter-cert", (certificate.counter, certificate.new_value))
        return instance

    def _certify_proposal(self, bare: Prepare, lane: int) -> InstanceState:
        """Certify our proposal on ``lane``'s counter and record its instance."""
        digestibles = [request.digestible() for request in bare.batch]
        if not bare.reproposal:
            # one vectorized MAC pass over the batch: the modelled cost of
            # verifying every client MAC (the result is not compared)
            self.client_crypto.compute_mac_batch(b"client-session", digestibles, size_hint_each=32)
        # leaf digests are computed outside the enclave; TrInX certifies
        # the fixed-size header plus the root over the ordered leaves
        leaves = self.client_crypto.digest_batch(digestibles, size_hint_each=32)
        certificate = self.trinx.create_independent_batch(
            self.config.ordering_counter(lane),
            self._flatten(bare.view, bare.order),
            bare.certified_digestible(),
            leaves,
        )
        prepare = replace(bare, certificate=certificate, batch_digest=batch_root(leaves))
        return self._record(prepare, {self.me})

    def _record(self, prepare: Prepare, acknowledgments: set[str]) -> InstanceState:
        """Make ``prepare`` the proposal of its instance."""
        instance = self.log.instance(prepare.order)
        instance.view = prepare.view
        instance.prepare = prepare
        instance.proposal_digest = free_digest(prepare.proposal_digestible())
        instance.acknowledgments = acknowledgments
        instance.proposed_at_ns = self.now
        if prepare.reproposal:
            # a NEW-VIEW re-proposal replaces what the aborted view left
            instance.committed = False
            instance.commits = {}
        for sender, commit in instance.commits.items():
            if commit.view == prepare.view and commit.proposal_digest == instance.proposal_digest:
                instance.acknowledgments.add(sender)  # it arrived before the PREPARE
        return instance

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
                self._buffered.setdefault(order, prepare)
            self._note_gap()
            return
        if not self.view_stable:
            # the view matches but is not yet stable (NEW-VIEW still in
            # flight): keep the proposal for when the view settles, and
            # nudge the coordinator — live ordering traffic means the view
            # established without us, so our VIEW-CHANGE may need resending
            self._buffered.setdefault(order, prepare)
            self._nudge_unstable()
            return
        lane = self.config.lane_of(self.view, order)
        if order < self.lane_next[lane]:
            self._re_acknowledge(prepare)
            return
        if order > self.lane_next[lane]:
            self._buffered.setdefault(order, prepare)
            self._note_gap()
            return
        if not self._verify_prepare(prepare):
            return
        self._acknowledge(prepare)
        self._advance()

    def _replay(self, prepare: Prepare) -> bool:
        if prepare.view != self.view:
            return False  # stale buffered proposal from an aborted view
        if not self._verify_prepare(prepare):
            return False  # buffered before its turn, so never checked
        self._acknowledge(prepare)
        return True

    def _verify_prepare(self, prepare: Prepare, in_view_change: bool = False) -> bool:
        """Validate a PREPARE's independent counter certificate.

        Inside a VIEW-CHANGE, NEW-VIEW or NEW-VIEW-ACK (``in_view_change``)
        a re-proposal is valid and ``verify_trinx`` does not apply.
        """
        if self.config.pillar_of_order(prepare.order) != self.index:
            return False
        if prepare.reproposal:
            if not in_view_change:
                return False  # re-proposals only arrive inside NEW-VIEW messages
            proposer = self.config.primary_of_view(prepare.view)
            lane = self._reproposal_lane(proposer)
        else:
            proposer = self.config.proposer_of(prepare.view, prepare.order)
            lane = self.config.lane_of(prepare.view, prepare.order)
        if prepare.leader != proposer:
            return False
        if not self._certificate_fields_match(prepare, proposer, lane):
            return False
        if not self.verify_trinx and not in_view_change:
            return True
        return self._verify_batch_certificate(prepare)

    def _certificate_fields_match(self, message: Prepare | Commit, sender: str, lane: int) -> bool:
        """An independent certificate by ``sender``, on ``lane``'s counter, for ``[view|order]``."""
        certificate = message.certificate
        return (
            certificate is not None
            and certificate.previous_value is None
            and certificate.issuer == self.config.trinx_instance_id(sender, self.index)
            and certificate.counter == self.config.ordering_counter(lane)
            and certificate.new_value == self._flatten(message.view, message.order)
        )

    def _reproposal_lane(self, primary: str) -> int:
        """A new primary re-proposes on its own lane's counter."""
        return self.config.index_of(primary) if self.config.rotation else 0

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

    def _acknowledge(self, prepare: Prepare) -> None:
        """Accept a verified PREPARE (or NEW-VIEW re-proposal) and send our COMMIT."""
        if not prepare.reproposal:
            # followers pay the modelled cost of verifying the client MACs of
            # proposed requests too (the computed MACs are not compared)
            self.client_crypto.compute_mac_batch(
                b"client-session",
                [request.digestible() for request in prepare.batch],
                size_hint_each=32,
            )
        order = prepare.order
        lane = self.config.lane_of(prepare.view, order)
        instance = self._record(prepare, {prepare.leader, self.me})
        bare = Commit(prepare.view, order, self.me, instance.proposal_digest)
        certificate = self.trinx.create_independent(
            self.config.ordering_counter(lane),
            self._flatten(prepare.view, order),
            bare.digestible(),
            size_hint=bare.wire_size(),
        )
        commit = replace(bare, certificate=certificate)
        instance.own_commit = commit
        self.commits_sent += 1
        self.trace("counter-cert", (certificate.counter, certificate.new_value))
        self._advance_lane(lane, order)
        self.broadcast(self.peers, commit)
        self._check_committed(instance)

    def _re_acknowledge(self, prepare: Prepare) -> None:
        """The proposer retransmitted: resend our COMMIT if we have one."""
        instance = self.log.peek(prepare.order)
        if instance is not None and instance.own_commit is not None and instance.view == prepare.view:
            self.broadcast(self.peers, instance.own_commit)

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
        lane = self.config.lane_of(commit.view, commit.order)
        if not self._certificate_fields_match(commit, commit.replica, lane):
            return False
        if not self.verify_trinx:
            return True
        return self.trinx.verify(commit.certificate, commit.digestible(), size_hint=commit.wire_size())

    def _check_committed(self, instance) -> None:
        if instance.committed or instance.prepare is None:
            return
        if len(instance.acknowledgments) < self.config.quorum_size:
            return
        self._committed(instance)

    _last_unstable_nudge_ns = -1_000_000_000

    def _nudge_unstable(self) -> None:
        if self.coordinator_address is None:
            return
        if self.now - self._last_unstable_nudge_ns < self.config.viewchange_timeout_ns // 2:
            return
        self._last_unstable_nudge_ns = self.now
        self._suspect("ordering traffic while view is unstable", resend_only=True)

    def _suspect(self, reason: str, resend_only: bool = False) -> None:
        """Ask the coordinator for a view change (``resend_only``: a VIEW-CHANGE resend)."""
        if self.coordinator_address is not None:
            self.send(
                self.coordinator_address,
                RequestVc(reason=reason, suspected_view=self.view, resend_only=resend_only),
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
            self._suspect(f"ordering traffic for higher view {view}")

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
            and order not in self._buffered
        ]
        for order in missing:
            self.broadcast(self.peers, InstanceFetch(order, self.view))
        if missing:
            self._note_gap()  # keep probing until the holes close

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

    def _check_progress(self, oldest_age_ns: int) -> None:
        if oldest_age_ns > self.config.viewchange_timeout_ns:
            self._suspect(f"pillar {self.index}: instance without quorum for {oldest_age_ns} ns")

    # ------------------------------------------------------------------
    # Checkpointing (shared: this pillar runs checkpoints k with k mod P == index)
    # ------------------------------------------------------------------
    def _certify_checkpoint(self, order: int, digest: bytes) -> Checkpoint:
        bare = Checkpoint(order, self.me, digest)
        certificate = self.trinx.create_trusted_mac(
            self.config.mac_counter, bare.digestible(), size_hint=bare.wire_size()
        )
        return replace(bare, certificate=certificate)

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

    def _fetch_state(self, order: int, source: str) -> None:
        """A quorum checkpointed ``order`` but we never matched it: catch up."""
        if self.coordinator_address is not None:
            self.send(self.coordinator_address, RequestState(order, source))

    def _window_advanced(self, order: int) -> None:
        self.trace("checkpoint-stable", order)
        if self.coordinator is not None:
            self.coordinator.note_checkpoint(order, self.stable_ck_cert)

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
        self._buffered.clear()
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
        self.broadcast(self.peers, part)
        self.send(self.coordinator_address, ForwardVc(part))

    def _from_peer(self, part: ViewChange | NewView | NewViewAck, sender: str) -> bool:
        """``part`` is this pillar's share of a peer's split message."""
        return part.pillar == self.index and part.num_parts == self.config.num_pillars and sender != self.me

    def _on_view_change_part(self, src: Address, part: ViewChange) -> None:
        if self._from_peer(part, part.replica) and self._verify_vc_part(part):
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
        if not self.checkpoints.verify_certificate(part.checkpoint_order, part.checkpoint_certificate):
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
        return all(self._verify_prepare(prepare, in_view_change=True) for prepare in part.prepares)

    # ------------------------------------------------------------------
    # NEW-VIEW: creation (leader pillars) and verification (all pillars)
    # ------------------------------------------------------------------
    def _on_nv_ready(self, message: NvReady) -> None:
        self.view = message.v_to
        self.log.advance(message.checkpoint_order)
        lane = self._reproposal_lane(self.me)
        new_prepares = []
        floor = max(message.checkpoint_order, self.stable_ck_order)
        max_order = floor
        for order, batch in message.prepares_by_pillar[self.index]:
            if order <= floor:
                continue  # covered by a checkpoint reached meanwhile
            bare = Prepare(message.v_to, order, batch, self.me, reproposal=True)
            self._claim(batch, order)
            new_prepares.append(self._certify_proposal(bare, lane).prepare)
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
        self.broadcast(self.peers, part)
        self.send(self.coordinator_address, ForwardNv(part))

    def _on_new_view_part(self, src: Address, part: NewView) -> None:
        if not self._from_peer(part, part.leader) or part.leader != self.config.primary_of_view(part.v_to):
            return
        if not all(
            prepare.view == part.v_to and prepare.leader == part.leader and prepare.reproposal
            and self._verify_prepare(prepare, in_view_change=True)
            for prepare in part.prepares
        ):
            return
        for view_change in part.view_changes:
            if view_change.v_to != part.v_to or view_change.pillar != self.index:
                return
            if view_change.replica != self.me and not self._verify_vc_part(view_change):
                return
        if not self.checkpoints.verify_certificate(part.checkpoint_order, part.checkpoint_certificate):
            return
        self.send(self.coordinator_address, ForwardNv(part))

    def _on_new_view_ack_part(self, src: Address, part: NewViewAck) -> None:
        if self._from_peer(part, part.replica) and all(
            self._verify_prepare(prepare, in_view_change=True) for prepare in part.prepares
        ):
            self.send(self.coordinator_address, ForwardAck(part))

    # ------------------------------------------------------------------
    # Stable view installation
    # ------------------------------------------------------------------
    def _on_nv_stable(self, message: NvStable) -> None:
        self.view = message.v_to
        self.view_stable = True
        forget_through(self._higher_view_witnesses, message.v_to)
        # instances of aborted views that the NEW-VIEW did not re-propose
        # were provably never committed anywhere: discard them
        self.log.discard_uncommitted_before(message.v_to)
        if self.checkpoints.adopt(message.checkpoint_order, message.checkpoint_certificate):
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
            self._acknowledge(prepare)  # verified on receipt
        self._reset_lanes(after=max(max_order, self.stable_ck_order))
        self._advance()

    def _on_ack_ready(self, message: AckReady) -> None:
        part = NewViewAck(
            replica=self.me,
            view=message.view,
            prepares=message.prepares_by_pillar[self.index],
            pillar=self.index,
            num_parts=self.config.num_pillars,
        )
        self.broadcast(self.peers, part)

    # ------------------------------------------------------------------
    # Retransmission of view-change artifacts
    # ------------------------------------------------------------------
    def _on_resend_vc(self, message: ResendVc) -> None:
        part = self._cached_vc_parts.get(message.v_to)
        if part is not None:
            self.broadcast(self.peers, part)

    def _on_resend_nv(self, message: ResendNv) -> None:
        part = self._cached_nv_parts.get(message.v_to)
        if part is not None and message.target in self.peer_addresses:
            self.send(self.peer_addresses[message.target], part)
