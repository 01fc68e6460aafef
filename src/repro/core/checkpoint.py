"""The checkpoint protocol, shared by Hybster, PBFTcop and MinBFT.

Every ``checkpoint_interval`` orders a replica multicasts a signed
CHECKPOINT for ``(order, state digest)``.  A quorum of matching ones
that includes the replica's own makes the checkpoint stable: the window
advances past it.  Under COP the k-th checkpoint is run by pillar
``k mod P`` (paper §5.2.2), which tells its sibling stages.  A quorum
without a matching own digest means the replica has fallen behind; if
it does not catch up within ``fill_gap_timeout_ns`` it fetches the state.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.quorum import MatchingQuorum
from repro.messages.internal import CkStable, StateInstall
from repro.messages.statetransfer import StateResponse
from repro.sim.process import Address, Stage


def forget_through(table: dict[int, Any], order: int) -> None:
    """Drop every entry of ``table`` keyed at or below ``order``."""
    for key in [key for key in table if key <= order]:
        del table[key]


def replica_stages(pillar: Stage, with_exec: bool = True) -> list[Address]:
    """The other pillars of ``pillar``'s replica, then its execution stage."""
    node = pillar.endpoint.node
    stages = [(node, f"pillar{i}") for i in range(pillar.config.num_pillars) if i != pillar.index]
    if with_exec and pillar.exec_address is not None:
        stages.append(pillar.exec_address)
    return stages


class Checkpoints:
    """One stage's side of the checkpoint protocol.

    The protocol supplies ``certify(order, digest)`` -> its signed
    CHECKPOINT, ``verify(checkpoint)``, ``advance(order)`` to move its
    window, ``announce_to()`` -> the local stages told of a checkpoint
    this stage completed, and ``fetch(order, source)`` to catch up
    (``None``: the protocol never fetches state).
    """

    def __init__(
        self,
        stage: Stage,
        quorum_size: int,
        message_type: type,
        certify: Callable[[int, bytes], Any],
        verify: Callable[[Any], bool],
        advance: Callable[[int], None],
        announce_to: Callable[[], Iterable[Address]] = tuple,
        fetch: Callable[[int, str], None] | None = None,
    ):
        self.stage = stage
        self.message_type = message_type
        self.certify = certify
        self.verify = verify
        self.advance = advance
        self.announce_to = announce_to
        self.fetch = fetch
        self.stable_order = 0  # 0 = the genesis checkpoint
        self.stable_cert: tuple = ()
        self.quorum = MatchingQuorum(quorum_size)
        self._own_ck_digests: dict[int, bytes] = {}
        self._remote_stable: dict[int, str] = {}  # order -> a replica that has it

    def reached(self, order: int, digest: bytes) -> None:
        """Our own state at ``order`` hashes to ``digest``: vote for it."""
        if order <= self.stable_order:
            return
        self._own_ck_digests[order] = digest
        checkpoint = self.certify(order, digest)
        self.stage.broadcast(self.stage.peers, checkpoint)
        # the quorum may have formed before our own snapshot arrived
        self.quorum.add((order, digest), self.stage.me, checkpoint)
        if self.quorum.reached((order, digest)):
            self._declare(order, digest)

    def receive(self, checkpoint: Any) -> None:
        """A peer's CHECKPOINT."""
        if checkpoint.order <= self.stable_order or not self.verify(checkpoint):
            return
        if not self.quorum.add(checkpoint.agreement_key(), checkpoint.replica, checkpoint):
            return
        if self._own_ck_digests.get(checkpoint.order) == checkpoint.state_digest:
            self._declare(checkpoint.order, checkpoint.state_digest)
        elif self.fetch is not None:
            # a quorum advanced without us: fetch the state if our own
            # execution does not catch up in time
            self._remote_stable[checkpoint.order] = checkpoint.replica
            self.stage.set_timer(
                self.stage.config.fill_gap_timeout_ns, self._check_fallen_behind, checkpoint.order
            )

    def _check_fallen_behind(self, order: int) -> None:
        source = self._remote_stable.pop(order, None)
        if source is None or order <= self.stable_order:
            return  # the checkpoint became stable locally in the meantime
        self.fetch(order, source)

    def _declare(self, order: int, digest: bytes) -> None:
        certificate = tuple(self.quorum.payloads((order, digest)))
        announcement = CkStable(order, certificate)
        for address in self.announce_to():
            self.stage.send(address, announcement)
        self.apply(order, certificate)

    def apply(self, order: int, certificate: tuple) -> None:
        """``order`` is stable with ``certificate``: advance the window."""
        if self.adopt(order, certificate):
            self.advance(order)

    def adopt(self, order: int, certificate: tuple) -> bool:
        """Record a stable checkpoint above ours; False if it is not newer."""
        if order <= self.stable_order:
            return False
        self.stable_order = order
        self.stable_cert = certificate
        forget_through(self._own_ck_digests, order)
        forget_through(self._remote_stable, order)
        self.quorum.discard_below((order + 1, b""))
        return True

    def install(self, response: StateResponse, floor: int, exec_address: Address | None) -> bool:
        """Hand a fetched state above ``floor`` to execution if its certificate holds."""
        order, certificate = response.checkpoint_order, response.checkpoint_certificate
        if order <= floor or not self.verify_certificate(order, certificate):
            return False
        snapshot, reply_vector = response.snapshot
        if exec_address is not None:
            self.stage.send(
                exec_address, StateInstall(order, snapshot, reply_vector, certificate[0].state_digest)
            )
        return True

    def verify_certificate(self, order: int, certificate: tuple) -> bool:
        """Is ``certificate`` a quorum of valid, matching CHECKPOINTs for ``order``?"""
        if order <= 0:
            return len(certificate) == 0  # the genesis checkpoint needs no proof
        voters = set()
        for checkpoint in certificate:
            if not (
                isinstance(checkpoint, self.message_type)
                and checkpoint.order == order
                and checkpoint.state_digest == certificate[0].state_digest
                and self.verify(checkpoint)
            ):
                return False
            voters.add(checkpoint.replica)
        return len(voters) >= self.quorum.quorum_size
