"""The view-change coordinator (paper §5.2.3, §5.3.3).

One pillar per replica (pillar 0 in this implementation; the paper lets
any pillar coordinate) runs the replica-wide view-change state machine on
*combined* messages, i.e. after all per-pillar parts of a split
VIEW-CHANGE / NEW-VIEW / NEW-VIEW-ACK have arrived and been verified.

The three safety mechanisms of Hybster's relaxed view change live here:

1. **Continuing counter certificates** — enforced at the pillars: a
   VIEW-CHANGE's unforgeable previous counter value reveals the last
   instance its sender participated in, so concealment of potentially
   committed proposals is impossible (while *harmless* history, like the
   cleaned counter of a faulty replica that never shows an intermediate
   certificate, may legitimately disappear).
2. **View-change certificates** — a replica that followed a leader of
   view ``v`` supports a leader of ``v* > v+1`` only once it holds a
   quorum of VIEW-CHANGEs for ``v*-1``; the quorum is guaranteed to
   contain every relevant PREPARE, which the coordinator absorbs into
   ``known_prepares`` and propagates in later VIEW-CHANGEs.
3. **New-view acknowledgments** — a NEW-VIEW for ``w`` based on view
   ``b`` needs f+1 confirmations that ``b`` was properly established:
   VIEW-CHANGEs with ``v_from == b`` or explicit NEW-VIEW-ACKs sent by
   replicas that accepted the NEW-VIEW for ``b`` after aborting it.

Unbounded histories never arise: all stored artifacts are bounded by the
ordering window and the number of replicas, and state transfer (not
message logs) covers replicas that fell arbitrarily far behind.
"""

from __future__ import annotations

from typing import Any

from repro.core.config import ReplicaGroupConfig
from repro.crypto.digests import digest as free_digest
from repro.messages.checkpointing import Checkpoint
from repro.messages.internal import (
    AckReady,
    CkStable,
    ForwardAck,
    ForwardNv,
    ForwardVc,
    NvReady,
    NvStable,
    PrepareVc,
    RequestState,
    RequestVc,
    ResendNv,
    ResendVc,
    StateInstall,
    StateInstalled,
    UnitVc,
    VcReady,
    ViewInstalled,
)
from repro.messages.ordering import Prepare
from repro.messages.statetransfer import StateRequest, StateResponse
from repro.messages.viewchange import NewView, NewViewAck, ViewChange

_COORDINATOR_MESSAGES = (
    RequestVc,
    UnitVc,
    ForwardVc,
    ForwardNv,
    ForwardAck,
    RequestState,
    StateInstalled,
    StateResponse,
)


class _Combined:
    """Accumulates the per-pillar parts of one split external message."""

    def __init__(self, num_parts: int):
        self.num_parts = num_parts
        self.parts: dict[int, Any] = {}

    def add(self, part: Any) -> bool:
        """Store a part; True when the message just became complete."""
        if part.pillar in self.parts:
            return False
        self.parts[part.pillar] = part
        return len(self.parts) == self.num_parts

    @property
    def complete(self) -> bool:
        return len(self.parts) == self.num_parts

    def all_parts(self) -> list[Any]:
        return [self.parts[i] for i in sorted(self.parts)]

    def all_prepares(self) -> list[Prepare]:
        return [prepare for part in self.parts.values() for prepare in part.prepares]


class ViewChangeCoordinator:
    """Replica-wide view-change logic, hosted on pillar 0."""

    def __init__(self, host) -> None:  # host: repro.core.pillar.Pillar
        self.host = host
        self.config: ReplicaGroupConfig = host.config

        self.stable_view = 0
        self.pending_view: int | None = None
        self.last_accepted_view = 0  # the v_from of our next VIEW-CHANGE
        self._attempts = 0
        self._vc_timer = None
        self._last_resend_ns = 0

        self._collecting: tuple[int, dict[int, UnitVc]] | None = None
        self._vc_store: dict[tuple[int, str], _Combined] = {}  # (v_to, replica)
        self._combined_vcs: dict[int, dict[str, _Combined]] = {}
        self.vc_certificates: set[int] = set()
        self._nv_store: dict[int, _Combined] = {}  # v_to -> combined NEW-VIEW
        self._ack_store: dict[tuple[int, str], _Combined] = {}
        self._combined_acks: dict[int, dict[str, _Combined]] = {}
        self._processed_new_views: set[int] = set()  # NEW-VIEWs accepted/installed
        self._nv_built: set[int] = set()  # views whose NEW-VIEW we issued as leader

        self.known_prepares: dict[int, Prepare] = {}
        self.checkpoint_order = 0  # 0 = the genesis checkpoint
        self.checkpoint_certificate: tuple[Checkpoint, ...] = ()

        self._transfer_in_flight: int | None = None
        self._pending_checkpoint_cert: tuple[int, tuple[Checkpoint, ...]] | None = None
        self._stalled_vcs: list[_Combined] = []
        self._stalled_nvs: list[_Combined] = []

        self.peer_exec_addresses: dict[str, Any] = {
            rid: (rid, "exec") for rid in self.config.replica_ids if rid != host.replica_id
        }
        # Wired by the replica.
        self.local_pillar_addresses: list = []
        self.exec_address = None
        self.handler_address = None

        self.view_changes_completed = 0

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def me(self) -> str:
        return self.host.replica_id

    def handles(self, message: Any) -> bool:
        return isinstance(message, _COORDINATOR_MESSAGES)

    def on_message(self, src, message: Any) -> None:
        if isinstance(message, RequestVc):
            self._on_request_vc(message)
        elif isinstance(message, UnitVc):
            self._on_unit_vc(message)
        elif isinstance(message, ForwardVc):
            self._on_forward_vc(message.part)
        elif isinstance(message, ForwardNv):
            self._on_forward_nv(message.part)
        elif isinstance(message, ForwardAck):
            self._on_forward_ack(message.part)
        elif isinstance(message, RequestState):
            self._start_state_transfer(message.checkpoint_order, message.source)
        elif isinstance(message, StateInstalled):
            self._on_state_installed(message)
        elif isinstance(message, StateResponse):
            self._on_state_response(message)

    def _send_to_pillars(self, message: Any) -> None:
        for address in self.local_pillar_addresses:
            self.host.send(address, message)

    def note_checkpoint(self, order: int, certificate: tuple[Checkpoint, ...]) -> None:
        """Pillar 0 observed a stable checkpoint (called synchronously)."""
        if order <= self.checkpoint_order:
            return
        self.checkpoint_order = order
        self.checkpoint_certificate = certificate
        for stale in [o for o in self.known_prepares if o <= order]:
            del self.known_prepares[stale]

    # ------------------------------------------------------------------
    # Aborting a view
    # ------------------------------------------------------------------
    def _current_target(self) -> int:
        return self.pending_view if self.pending_view is not None else self.stable_view

    def _allowed(self, v_to: int) -> bool:
        """The view-change certificate rule (safety mechanism 2)."""
        if v_to <= self._current_target():
            return False
        return v_to == self.stable_view + 1 or (v_to - 1) in self.vc_certificates

    def _on_request_vc(self, message: RequestVc) -> None:
        if message.suspected_view < self.stable_view:
            return  # stale suspicion from before the last view change
        if self.pending_view is not None:
            # a view change is already in progress; if peers show signs of
            # life in our pending view, re-multicast our VIEW-CHANGE so a
            # recovered connection can complete it (rate-limited)
            now = self.host.now
            if now - self._last_resend_ns >= self.config.viewchange_timeout_ns // 2:
                self._last_resend_ns = now
                self._send_to_pillars(ResendVc(self.pending_view))
            return
        if message.resend_only:
            return  # a nudge never starts a fresh view change
        self._abort_to(self.stable_view + 1)

    def _abort_to(self, v_to: int) -> None:
        if not self._allowed(v_to):
            return
        if self._collecting is not None and self._collecting[0] >= v_to:
            return
        self._collecting = (v_to, {})
        self._send_to_pillars(PrepareVc(v_to))

    def _on_unit_vc(self, message: UnitVc) -> None:
        if self._collecting is None or self._collecting[0] != message.v_to:
            return
        v_to, units = self._collecting
        units[message.pillar] = message
        if len(units) < self.config.num_pillars:
            return
        self._collecting = None
        if v_to <= self._current_target() and self.pending_view is None:
            # the view established itself while we were collecting (a
            # NEW-VIEW arrived and was installed): the abort is obsolete,
            # and issuing it now would regress the pillars' counters
            return
        # merge what the pillars know with what earlier view-change
        # certificates taught us, newest view per order number winning
        merged: dict[int, Prepare] = {}
        for unit in units.values():
            for prepare in unit.prepares:
                self._consider_prepare(merged, prepare)
        for prepare in self.known_prepares.values():
            self._consider_prepare(merged, prepare)
        prepares_by_pillar = self._split_by_pillar(
            [merged[order] for order in sorted(merged) if order > self.checkpoint_order]
        )
        self.pending_view = v_to
        self._send_to_pillars(
            VcReady(
                v_from=self.last_accepted_view,
                v_to=v_to,
                checkpoint_order=self.checkpoint_order,
                checkpoint_certificate=self.checkpoint_certificate,
                prepares_by_pillar=prepares_by_pillar,
            )
        )
        self._restart_vc_timer()

    def _consider_prepare(self, table: dict[int, Prepare], prepare: Prepare) -> None:
        if prepare.order <= self.checkpoint_order:
            return
        current = table.get(prepare.order)
        if current is None or prepare.view > current.view:
            table[prepare.order] = prepare

    def _split_by_pillar(self, prepares: list[Prepare]) -> tuple[tuple[Prepare, ...], ...]:
        buckets: list[list[Prepare]] = [[] for _ in range(self.config.num_pillars)]
        for prepare in prepares:
            buckets[self.config.pillar_of_order(prepare.order)].append(prepare)
        return tuple(tuple(bucket) for bucket in buckets)

    def _restart_vc_timer(self) -> None:
        if self._vc_timer is not None:
            self.host.cancel_timer(self._vc_timer)
        # exponential backoff, capped: the partially synchronous model only
        # needs timeouts to eventually exceed the (finite) message delay
        duration = self.config.viewchange_timeout_ns * (2 ** min(self._attempts, 3))
        self._attempts += 1
        self._vc_timer = self.host.set_timer(duration, self._on_vc_timeout)

    def _on_vc_timeout(self) -> None:
        self._vc_timer = None
        if self.pending_view is None:
            return
        next_view = self.pending_view + 1
        if self._allowed(next_view):
            self._abort_to(next_view)
        else:
            # cannot move on without a view-change certificate: re-multicast
            # our VIEW-CHANGE so slow/recovered replicas can complete it
            self._send_to_pillars(ResendVc(self.pending_view))
            self._restart_vc_timer()

    # ------------------------------------------------------------------
    # Collecting VIEW-CHANGEs
    # ------------------------------------------------------------------
    def _on_forward_vc(self, part: ViewChange) -> None:
        key = (part.v_to, part.replica)
        combined = self._vc_store.get(key)
        if combined is None:
            combined = self._vc_store[key] = _Combined(self.config.num_pillars)
        if not combined.add(part):
            return
        parts = combined.all_parts()
        if len({(p.v_from, p.checkpoint_order) for p in parts}) != 1:
            del self._vc_store[key]  # inconsistent parts: Byzantine sender
            return
        self._consider_combined_vc(combined)

    def _consider_combined_vc(self, combined: _Combined) -> None:
        part0 = combined.all_parts()[0]
        v_to, replica = part0.v_to, part0.replica
        if v_to <= self.stable_view:
            self._help_lagging_replica(v_to, replica)
            return
        if part0.checkpoint_order > self.checkpoint_order:
            # adapt our own window first (state transfer), as §5.2.3 requires
            self._stalled_vcs.append(combined)
            self._start_state_transfer(part0.checkpoint_order, replica)
            return
        self._combined_vcs.setdefault(v_to, {})[replica] = combined
        if len(self._combined_vcs[v_to]) >= self.config.quorum_size:
            if v_to not in self.vc_certificates:
                self.vc_certificates.add(v_to)
                for peer_combined in self._combined_vcs[v_to].values():
                    self._absorb_prepares(peer_combined.all_prepares())
            self._try_build_new_view(v_to)
        self._consider_joining()

    def _absorb_prepares(self, prepares: list[Prepare]) -> None:
        for prepare in prepares:
            self._consider_prepare(self.known_prepares, prepare)

    def _consider_joining(self) -> None:
        """Join a higher view once >= f other replicas evidence it."""
        target = self._current_target()
        evidence: dict[int, set[str]] = {}
        for (v_to, replica), combined in self._vc_store.items():
            if v_to > target and replica != self.me:
                evidence.setdefault(v_to, set()).add(replica)
        for v_to in sorted(evidence, reverse=True):
            if len(evidence[v_to]) >= max(1, self.config.f):
                if self._allowed(v_to):
                    self._abort_to(v_to)
                    return
                if self.pending_view is None and v_to > self.stable_view + 1:
                    # we cannot jump without certificates; start moving
                    self._abort_to(self.stable_view + 1)
                    return

    def _help_lagging_replica(self, v_to: int, replica: str) -> None:
        """A peer is view-changing into a view we already passed."""
        if self.config.primary_of_view(v_to) == self.me and v_to in self._nv_built:
            self._send_to_pillars(ResendNv(v_to, replica))
        elif self.config.primary_of_view(self.stable_view) == self.me and self.stable_view in self._nv_built:
            self._send_to_pillars(ResendNv(self.stable_view, replica))

    # ------------------------------------------------------------------
    # Building a NEW-VIEW (as designated leader)
    # ------------------------------------------------------------------
    def _try_build_new_view(self, v_to: int) -> None:
        if self.config.primary_of_view(v_to) != self.me:
            return
        if self.pending_view != v_to or v_to in self._nv_built:
            return
        combined = self._combined_vcs.get(v_to, {})
        if len(combined) < self.config.quorum_size:
            return
        parts0 = {replica: c.all_parts()[0] for replica, c in combined.items()}
        base_view = max(part.v_from for part in parts0.values())
        if not self._base_view_confirmed(base_view, parts0):
            return
        max_checkpoint = max(part.checkpoint_order for part in parts0.values())
        if max_checkpoint > self.checkpoint_order:
            return  # state transfer still in progress; retried on install

        assignments: dict[int, Prepare] = {}
        for peer_combined in combined.values():
            for prepare in peer_combined.all_prepares():
                self._consider_prepare(assignments, prepare)
        for order, prepare in self.known_prepares.items():
            self._consider_prepare(assignments, prepare)

        top = max(assignments, default=self.checkpoint_order)
        self._nv_built.add(v_to)
        reproposals: list[tuple[int, tuple]] = []
        for order in range(self.checkpoint_order + 1, top + 1):
            prepare = assignments.get(order)
            reproposals.append((order, prepare.batch if prepare is not None else ()))
        by_pillar: list[list[tuple[int, tuple]]] = [[] for _ in range(self.config.num_pillars)]
        for order, batch in reproposals:
            by_pillar[self.config.pillar_of_order(order)].append((order, batch))

        all_vc_parts = tuple(
            part for peer_combined in combined.values() for part in peer_combined.all_parts()
        )
        ack_parts = tuple(
            part
            for peer_combined in self._combined_acks.get(base_view, {}).values()
            for part in peer_combined.all_parts()
        )
        self._send_to_pillars(
            NvReady(
                v_to=v_to,
                base_view=base_view,
                checkpoint_order=self.checkpoint_order,
                checkpoint_certificate=self.checkpoint_certificate,
                view_changes=all_vc_parts,
                acks=ack_parts,
                prepares_by_pillar=tuple(tuple(bucket) for bucket in by_pillar),
            )
        )

    def _base_view_confirmed(self, base_view: int, parts0: dict[str, ViewChange]) -> bool:
        """Safety mechanism 3: f+1 witnesses that base_view was established."""
        if base_view == 0:
            return True  # view 0 is established by definition
        witnesses = {replica for replica, part in parts0.items() if part.v_from == base_view}
        witnesses |= set(self._combined_acks.get(base_view, ()))
        if base_view == self.stable_view or base_view in self._processed_new_views:
            witnesses.add(self.me)
        return len(witnesses) >= self.config.f + 1

    # ------------------------------------------------------------------
    # Processing NEW-VIEWs
    # ------------------------------------------------------------------
    def _on_forward_nv(self, part: NewView) -> None:
        combined = self._nv_store.get(part.v_to)
        if combined is None:
            combined = self._nv_store[part.v_to] = _Combined(self.config.num_pillars)
        if not combined.add(part):
            return
        parts = combined.all_parts()
        if len({(p.leader, p.base_view, p.checkpoint_order) for p in parts}) != 1:
            del self._nv_store[part.v_to]
            return
        self._consider_new_view(combined)

    def _consider_new_view(self, combined: _Combined) -> None:
        part0 = combined.all_parts()[0]
        v_to = part0.v_to
        if v_to in self._processed_new_views or v_to < self.stable_view:
            return
        if part0.leader != self.me and not self._validate_new_view(combined):
            return
        if part0.checkpoint_order > self.checkpoint_order:
            self._stalled_nvs.append(combined)
            self._start_state_transfer(part0.checkpoint_order, part0.leader)
            return
        self._processed_new_views.add(v_to)
        if self.pending_view is not None and self.pending_view > v_to:
            # we already support a later view: acknowledge and propagate
            self.last_accepted_view = max(self.last_accepted_view, v_to)
            self._absorb_prepares(combined.all_prepares())
            self._send_to_pillars(
                AckReady(v_to, self._split_by_pillar(sorted_prepares(combined)))
            )
            return
        self._install_new_view(v_to, combined)

    def _validate_new_view(self, combined: _Combined) -> bool:
        """Check the new-view certificate and the re-proposal set."""
        parts = combined.all_parts()
        part0 = parts[0]
        nested: dict[str, list[ViewChange]] = {}
        for part in parts:
            for view_change in part.view_changes:
                if view_change.v_to != part0.v_to:
                    return False
                nested.setdefault(view_change.replica, []).append(view_change)
        complete = {
            replica: vc_parts
            for replica, vc_parts in nested.items()
            if len({p.pillar for p in vc_parts}) == self.config.num_pillars
            and len({(p.v_from, p.checkpoint_order) for p in vc_parts}) == 1
        }
        if len(complete) < self.config.quorum_size:
            return False
        base_view = part0.base_view
        if max(parts_list[0].v_from for parts_list in complete.values()) > base_view:
            return False
        if base_view > 0:
            witnesses = {
                replica
                for replica, vc_parts in complete.items()
                if vc_parts[0].v_from == base_view
            }
            ack_replicas: dict[str, set[int]] = {}
            for part in parts:
                for ack in part.acks:
                    if ack.view == base_view:
                        ack_replicas.setdefault(ack.replica, set()).add(ack.pillar)
            witnesses |= {
                replica
                for replica, pillars in ack_replicas.items()
                if len(pillars) == self.config.num_pillars
            }
            if base_view == self.stable_view or base_view in self._processed_new_views:
                witnesses.add(self.me)
            if len(witnesses) < self.config.f + 1:
                return False
        # the re-proposals must reflect exactly the newest assignment per
        # order found in the certificate (no concealment, no invention)
        expected: dict[int, Prepare] = {}
        for vc_parts in complete.values():
            for view_change in vc_parts:
                for prepare in view_change.prepares:
                    if prepare.order > part0.checkpoint_order:
                        current = expected.get(prepare.order)
                        if current is None or prepare.view > current.view:
                            expected[prepare.order] = prepare
        included = {prepare.order: prepare for part in parts for prepare in part.prepares}
        top = max(expected, default=part0.checkpoint_order)
        for order in range(part0.checkpoint_order + 1, top + 1):
            new_prepare = included.get(order)
            if new_prepare is None:
                return False
            want = expected.get(order)
            want_digest = (
                free_digest(("proposal-content", tuple(r.digestible() for r in want.batch)))
                if want is not None
                else free_digest(("proposal-content", ()))
            )
            have_digest = free_digest(
                ("proposal-content", tuple(r.digestible() for r in new_prepare.batch))
            )
            if want_digest != have_digest:
                return False
        return True

    def _install_new_view(self, v_to: int, combined: _Combined) -> None:
        part0 = combined.all_parts()[0]
        self.stable_view = v_to
        self.last_accepted_view = v_to
        self.pending_view = None
        self._attempts = 0
        if self._vc_timer is not None:
            self.host.cancel_timer(self._vc_timer)
            self._vc_timer = None
        self._absorb_prepares(combined.all_prepares())
        self.note_checkpoint(part0.checkpoint_order, part0.checkpoint_certificate)
        prepares = sorted_prepares(combined)
        self._send_to_pillars(
            NvStable(
                v_to=v_to,
                checkpoint_order=part0.checkpoint_order,
                checkpoint_certificate=part0.checkpoint_certificate,
                prepares_by_pillar=self._split_by_pillar(prepares),
            )
        )
        self.host.send(
            self.exec_address,
            NvStable(v_to, part0.checkpoint_order, part0.checkpoint_certificate, ()),
        )
        covered = tuple(
            request.key for prepare in prepares for request in prepare.batch
        )
        self.host.send(self.handler_address, ViewInstalled(v_to, covered))
        self.host.trace("view-installed", v_to)
        self.view_changes_completed += 1
        self._garbage_collect(v_to)

    def _garbage_collect(self, installed_view: int) -> None:
        """Bounded state: drop view-change artifacts for superseded views."""
        for key in [k for k in self._vc_store if k[0] < installed_view]:
            del self._vc_store[key]
        for view in [v for v in self._combined_vcs if v < installed_view]:
            del self._combined_vcs[view]
        for view in [v for v in self._nv_store if v < installed_view]:
            del self._nv_store[view]
        for key in [k for k in self._ack_store if k[0] < installed_view]:
            del self._ack_store[key]
        for view in [v for v in self._combined_acks if v < installed_view]:
            del self._combined_acks[view]

    # ------------------------------------------------------------------
    # NEW-VIEW-ACKs
    # ------------------------------------------------------------------
    def _on_forward_ack(self, part: NewViewAck) -> None:
        key = (part.view, part.replica)
        combined = self._ack_store.get(key)
        if combined is None:
            combined = self._ack_store[key] = _Combined(self.config.num_pillars)
        if not combined.add(part):
            return
        self._combined_acks.setdefault(part.view, {})[part.replica] = combined
        self._absorb_prepares(combined.all_prepares())
        if self.pending_view is not None:
            self._try_build_new_view(self.pending_view)

    # ------------------------------------------------------------------
    # State transfer
    # ------------------------------------------------------------------
    def _start_state_transfer(self, checkpoint_order: int, source: str) -> None:
        if checkpoint_order <= self.checkpoint_order:
            return
        if self._transfer_in_flight is not None and self._transfer_in_flight >= checkpoint_order:
            return
        self._transfer_in_flight = checkpoint_order
        target = self.peer_exec_addresses.get(source)
        if target is None:
            self._transfer_in_flight = None
            return
        self.host.send(target, StateRequest(self.me, checkpoint_order))

    def _on_state_response(self, response: StateResponse) -> None:
        if response.checkpoint_order <= self.checkpoint_order:
            self._transfer_in_flight = None
            return
        if not self.host._verify_checkpoint_certificate(
            response.checkpoint_order, response.checkpoint_certificate
        ):
            self._transfer_in_flight = None
            return
        snapshot, reply_vector = response.snapshot
        expected_digest = response.checkpoint_certificate[0].state_digest
        self.host.send(
            self.exec_address,
            StateInstall(response.checkpoint_order, snapshot, reply_vector, expected_digest),
        )
        self._pending_checkpoint_cert = (response.checkpoint_order, response.checkpoint_certificate)

    def _on_state_installed(self, message: StateInstalled) -> None:
        self._transfer_in_flight = None
        if not message.success:
            return
        cert = self._pending_checkpoint_cert
        if cert is not None and cert[0] == message.checkpoint_order:
            self._pending_checkpoint_cert = None
            self._send_to_pillars(CkStable(cert[0], cert[1]))
            self.note_checkpoint(cert[0], cert[1])
        stalled_vcs, self._stalled_vcs = self._stalled_vcs, []
        for combined in stalled_vcs:
            self._consider_combined_vc(combined)
        stalled_nvs, self._stalled_nvs = self._stalled_nvs, []
        for combined in stalled_nvs:
            self._consider_new_view(combined)
        if self.pending_view is not None:
            self._try_build_new_view(self.pending_view)


def sorted_prepares(combined: _Combined) -> list[Prepare]:
    return sorted(combined.all_prepares(), key=lambda prepare: prepare.order)
