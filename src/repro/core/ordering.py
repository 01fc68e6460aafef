"""The ordering skeleton shared by Hybster's and PBFTcop's pillars.

Both protocols run the same consensus-oriented parallelization (paper
§5.2.1, §6): a pillar owns the order numbers ``o mod P == index`` and
splits them into *lanes*, one per proposer (a single lane under a fixed
leader, one per replica under a rotating leader).  A replica proposes on
its own lanes strictly ascending and follows the others.

This stage owns what the two protocols share: the window
(:class:`~repro.core.log.OrderingLog`), the lane pointers, the pending
queue and the keys of proposed requests, adaptive batching with linger,
the rotation no-op timer, the bookkeeping of a committed instance, gap
filling, the retransmission of the replica's own uncommitted proposals,
and the shared half of advancing the window at a stable checkpoint.

A protocol supplies its certification and phases (``_proposal`` and
``_check_committed``), its follow rule (``_replay`` for a buffered
proposal whose lane turn came, ``_window_advanced`` for what the window
move releases), its instance-fetch reply and its re-acknowledgement of a
duplicate proposal.  Every instance it records carries ``view``,
``prepare`` (the proposal), ``committed`` and ``proposed_at_ns``.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.core.checkpoint import forget_through
from repro.core.config import ReplicaGroupConfig
from repro.core.log import InstanceState, OrderingLog
from repro.crypto.costs import JAVA
from repro.crypto.provider import CryptoProvider
from repro.messages.client import Request
from repro.messages.internal import ExecRequest, FillGap, OrderRequest
from repro.messages.ordering import InstanceFetch
from repro.sim.process import Address, Endpoint, Stage
from repro.sim.resources import SimThread


class OrderingStage(Stage):
    """One ordering pillar: the window, lanes, batching and liveness helpers."""

    def __init__(
        self,
        endpoint: Endpoint,
        thread: SimThread,
        config: ReplicaGroupConfig,
        replica_id: str,
        index: int,
        crypto_profile=JAVA,
        instance_type: type = InstanceState,
    ):
        super().__init__(endpoint, thread, f"pillar{index}")
        self.config = config
        self.replica_id = replica_id
        self.index = index
        # client-session MACs are verified here, on the pillar's core
        self.client_crypto = CryptoProvider(crypto_profile, charge=endpoint.sim.charge)

        self.view = 0
        # only Hybster's view change clears this (while a NEW-VIEW is pending)
        self.view_stable = True
        self.log = OrderingLog(config.window_size, instance_type=instance_type)
        # per-lane pointer to the next class order to process, ascending
        self.lane_next: dict[int, int] = {}
        self._reset_lanes(after=0)
        self.pending: deque[Request] = deque()
        self._own_inflight = 0  # own proposals not yet committed (batch pacing)
        self._linger_deadline: int | None = None  # batch linger window end
        self._proposed_keys: dict[tuple[str, int], int] = {}  # request key -> order
        # proposals kept until their turn: ahead of the window, or of their lane
        self._buffered: dict[int, Any] = {}
        self._noop_timer = None
        self._timers_started = False

        # replica id -> the same-index pillar of every peer
        self.peer_addresses: dict[str, Address] = {
            rid: (rid, self.name) for rid in config.replica_ids if rid != replica_id
        }
        self.peers = list(self.peer_addresses.values())
        self.exec_address: Address | None = None  # wired by the replica

        self.proposals = 0
        self.instances_committed = 0

    # ------------------------------------------------------------------
    # Identity and lane helpers
    # ------------------------------------------------------------------
    @property
    def me(self) -> str:
        return self.replica_id

    @property
    def stable_ck_order(self) -> int:
        return self.checkpoints.stable_order

    @staticmethod
    def _class_order_at_or_after(candidate: int, index: int, num_pillars: int) -> int:
        return candidate + (index - candidate) % num_pillars

    def _first_lane_order_after(self, lane: int, order: int) -> int:
        """Smallest class order of ``lane`` strictly above ``order`` (current view)."""
        candidate = self._class_order_at_or_after(order + 1, self.index, self.config.num_pillars)
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
    # Proposing
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
                    proposal = self._buffered.pop(order, None)
                    if proposal is not None and self._replay(proposal):
                        progressed = True

    def _arm_noop_timer(self, order: int) -> None:
        if self._noop_timer is not None:
            return
        self._noop_timer = self.set_timer(self.config.noop_delay_ns, self._noop_tick, order)

    def _noop_tick(self, order: int) -> None:
        self._noop_timer = None
        if self.view_stable:
            self._fill_own_slot(order)

    def _fill_own_slot(self, order: int) -> None:
        """Propose at ``order``, empty if need be, if it is our lane's next slot."""
        lane = self.config.lane_of(self.view, order)
        if (
            order == self.lane_next.get(lane)
            and self.config.proposer_of(self.view, order) == self.me
            and self.log.in_window(order)
        ):
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

    def _claim(self, batch: tuple[Request, ...], order: int) -> None:
        """Record that ``batch`` is proposed at ``order`` (never propose it twice)."""
        for request in batch:
            self._proposed_keys[request.key] = order

    def _propose(self, order: int, allow_empty: bool = False) -> None:
        batch = self._take_batch()
        self._linger_deadline = None
        if not batch and not allow_empty:
            return
        self._claim(batch, order)
        instance = self._proposal(order, batch)
        self.proposals += 1
        self._own_inflight += 1
        self._advance_lane(self.config.lane_of(self.view, order), order)
        self.broadcast(self.peers, instance.prepare)
        self._check_committed(instance)

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    def _proposal(self, order: int, batch: tuple[Request, ...]) -> Any:
        """Certify our proposal of ``batch`` at ``order`` and record its instance."""
        raise NotImplementedError

    def _check_committed(self, instance: Any) -> None:
        """Call :meth:`_committed` once ``instance`` has its commit quorum."""
        raise NotImplementedError

    def _replay(self, proposal: Any) -> bool:
        """A buffered proposal's lane turn came: True if it was accepted."""
        raise NotImplementedError

    def _window_advanced(self, order: int) -> None:
        """The window moved past the stable checkpoint ``order``."""

    def _check_progress(self, oldest_age_ns: int) -> None:
        """The oldest uncommitted instance of this view was proposed that long ago."""

    # ------------------------------------------------------------------
    # Committing, gap filling and retransmission
    # ------------------------------------------------------------------
    def _committed(self, instance: Any) -> None:
        """``instance`` has its quorum: hand it to execution."""
        instance.committed = True
        self.instances_committed += 1
        if instance.prepare.leader == self.me:
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

    def _on_fill_gap(self, message: FillGap) -> None:
        order = message.order
        if not self.view_stable:
            return
        if self.config.proposer_of(self.view, order) == self.me:
            self._fill_own_slot(order)
            return
        # not ours: the instance stalls locally (lost proposal or votes) —
        # ask the peers to retransmit their ordering messages for it
        self.broadcast(self.peers, InstanceFetch(order, self.view))

    def _on_retransmit_tick(self) -> None:
        """Rebroadcast our own proposals that have waited a whole interval."""
        if self.view_stable:
            now = self.now
            oldest_age = 0
            for instance in self.log.uncommitted():
                if instance.view != self.view:
                    continue  # stale leftovers of an aborted view
                age = now - instance.proposed_at_ns
                oldest_age = max(oldest_age, age)
                if instance.prepare.leader == self.me and age > self.config.retransmit_interval_ns:
                    self.broadcast(self.peers, instance.prepare)
            self._check_progress(oldest_age)
        self.set_timer(self.config.retransmit_interval_ns, self._on_retransmit_tick)

    # ------------------------------------------------------------------
    # Window
    # ------------------------------------------------------------------
    def _on_checkpoint_stable(self, order: int) -> None:
        self.log.advance(order)
        for lane in range(self.config.num_lanes):
            self.lane_next[lane] = max(self.lane_next[lane], self._first_lane_order_after(lane, order))
        forget_through(self._buffered, order)
        self._proposed_keys = {key: o for key, o in self._proposed_keys.items() if o > order}
        self._window_advanced(order)
        self._advance()
