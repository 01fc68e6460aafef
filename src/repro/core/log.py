"""The ordering log: per-instance state inside a sliding window.

Replicas keep ordering messages for the consensus instances between the
low and high water marks.  The window advances when a checkpoint becomes
stable (low = checkpoint order, high = low + window size) and old entries
are garbage-collected.  Hybster *strictly* adheres to this window — even
during view changes a replica never processes instances beyond its high
mark, which is what bounds its memory (§5.2.2, "Strict Ordering Window").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import WindowViolationError
from repro.messages.ordering import Commit, Prepare


@dataclass
class InstanceState:
    """Everything a replica knows about consensus instance ``(view, order)``."""

    order: int
    view: int = -1
    prepare: Prepare | None = None
    proposal_digest: bytes | None = None
    acknowledgments: set[str] = field(default_factory=set)
    commits: dict[str, Commit] = field(default_factory=dict)
    committed: bool = False
    own_commit: Commit | None = None
    proposed_at_ns: int = 0


class OrderingLog:
    """Window-bounded map from order number to per-instance state.

    ``instance_type(order)`` makes a fresh instance; its state must carry
    ``view``, ``prepare`` (the proposal), ``committed`` and
    ``proposed_at_ns``, as :class:`InstanceState` does.
    """

    def __init__(self, window_size: int, low: int = 0, instance_type: Callable = InstanceState):
        self.window_size = window_size
        self.instance_type = instance_type
        # ``low`` is the last checkpointed order (0 = the genesis checkpoint;
        # order numbers start at 1); the window covers (low, low + window_size].
        self.low = low
        self._instances: dict[int, InstanceState] = {}

    @property
    def high(self) -> int:
        """Highest order number this replica participates in."""
        return self.low + self.window_size

    def in_window(self, order: int) -> bool:
        return self.low < order <= self.high

    def instance(self, order: int) -> InstanceState:
        """Get-or-create the state of an in-window instance."""
        if not self.in_window(order):
            raise WindowViolationError(
                f"order {order} outside window ({self.low}, {self.high}]"
            )
        state = self._instances.get(order)
        if state is None:
            state = self.instance_type(order)
            self._instances[order] = state
        return state

    def peek(self, order: int) -> InstanceState | None:
        return self._instances.get(order)

    def advance(self, checkpoint_order: int) -> None:
        """Move the window after a stable checkpoint at ``checkpoint_order``."""
        if checkpoint_order <= self.low:
            return
        self.low = checkpoint_order
        stale = [order for order in self._instances if order <= checkpoint_order]
        for order in stale:
            del self._instances[order]

    def discard_uncommitted_before(self, view: int) -> None:
        """Forget instances of views before ``view`` that never committed."""
        for order, state in list(self._instances.items()):
            if state.view < view and not state.committed:
                del self._instances[order]

    def uncommitted(self) -> list[InstanceState]:
        """Instances with a proposal but no committed certificate yet."""
        return sorted(
            (state for state in self._instances.values() if state.prepare and not state.committed),
            key=lambda state: state.order,
        )

    def prepares_in_window(self, pillar: int = 0, num_pillars: int = 1) -> list[Prepare]:
        """All known PREPAREs for this pillar's share of the window."""
        return [
            state.prepare
            for order, state in sorted(self._instances.items())
            if state.prepare is not None and order % num_pillars == pillar
        ]

    def __len__(self) -> int:
        return len(self._instances)
