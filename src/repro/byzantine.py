"""Byzantine replica behaviours for fault-injection experiments.

The hybrid fault model constrains a faulty replica in exactly one way: it
cannot subvert its trusted subsystem.  Everything else — lying, staying
silent, censoring clients, splicing valid certificates onto tampered
messages — is fair game.  The classes here implement those behaviours
*through* the regular replica code (they subclass the real pillar and
handler), so experiments exercise the same code paths correct replicas
run, and the trusted-counter API mechanically limits what the attacker
can produce.

Usage: build a group with :func:`build_group_with_byzantine`, naming one
replica and the behaviour it should exhibit.

These doubles are part of the library (not the test suite) so downstream
users can reproduce the paper's fault scenarios in their own setups.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.handler import ClientHandler
from repro.core.pillar import Pillar
from repro.core.replica import HybsterReplica, MESSAGE_BASE_COST_NS
from repro.messages.client import Request
from repro.messages.ordering import Prepare

BEHAVIOURS = ("correct", "mute", "equivocate", "censor")


class MutePillar(Pillar):
    """Fail-silent from ``mute_after_ns`` on: processes but never sends.

    Distinct from a network partition: the replica keeps *receiving* and
    updating local state, it just stops participating — the classic
    fail-silent Byzantine behaviour the paper's timeouts must catch.
    """

    mute_after_ns = 0

    def send(self, dst, message, size=None):
        if self.now >= self.mute_after_ns and dst[0] != self.endpoint.node:
            return  # swallow all external output
        super().send(dst, message, size)


class EquivocatingPillar(Pillar):
    """Attempts classic equivocation on every proposal.

    For each PREPARE it creates (with its genuine TrInX instance — the
    only certificate it can get), it sends the honest proposal to half
    the peers and a tampered copy, carrying the same certificate, to the
    other half.  Hybster's independent counter certificates make the
    tampered copy verifiably invalid, so the attack degrades into a
    partial omission at worst.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.equivocation_attempts = 0

    def broadcast(self, dsts, message, size=None):
        if not isinstance(message, Prepare) or message.certificate is None or not dsts:
            super().broadcast(dsts, message, size)
            return
        self.equivocation_attempts += 1
        evil_request = Request("attacker:x", self.equivocation_attempts, "injected")
        forged = replace(message, batch=(evil_request,))
        victims = dsts[: len(dsts) // 2 + 1]
        others = dsts[len(victims):]
        for dst in victims:
            self.send(dst, forged, size)
        for dst in others:
            self.send(dst, message, size)


class CensoringHandler(ClientHandler):
    """A leader that silently drops requests from selected clients.

    Censored clients never get their requests proposed; their retries
    eventually reach the followers, whose suspicion timers force a view
    change that replaces the censor (paper §5.2.3, Figure 3 step 3).
    """

    censored_prefixes: tuple[str, ...] = ()

    def _on_request(self, request, groups=None) -> None:
        if any(request.client_id.startswith(prefix) for prefix in self.censored_prefixes):
            return  # drop silently
        super()._on_request(request, groups)


class ByzantineHybsterReplica(HybsterReplica):
    """A replica wired with one of the faulty behaviours above."""

    def __init__(self, *args, behaviour: str = "correct", behaviour_config: dict | None = None, **kwargs):
        if behaviour not in BEHAVIOURS:
            raise ValueError(f"unknown behaviour {behaviour!r}; expected one of {BEHAVIOURS}")
        self._behaviour = behaviour
        self._behaviour_config = behaviour_config or {}
        super().__init__(*args, **kwargs)
        self._apply_behaviour()

    def _apply_behaviour(self) -> None:
        if self._behaviour == "mute":
            mute_after = self._behaviour_config.get("mute_after_ns", 0)
            for pillar in self.pillars:
                pillar.__class__ = MutePillar
                pillar.mute_after_ns = mute_after
        elif self._behaviour == "equivocate":
            for pillar in self.pillars:
                pillar.__class__ = EquivocatingPillar
                pillar.equivocation_attempts = 0
        elif self._behaviour == "censor":
            prefixes = tuple(self._behaviour_config.get("censored_prefixes", ()))
            self.handler.__class__ = CensoringHandler
            self.handler.censored_prefixes = prefixes


def build_group_with_byzantine(
    sim,
    network,
    machines,
    config,
    service_factory,
    byzantine_replica: str,
    behaviour: str,
    behaviour_config: dict | None = None,
    **kwargs,
):
    """Like :func:`repro.core.replica.build_group`, with one faulty member."""
    replicas = []
    for machine, replica_id in zip(machines, config.replica_ids):
        if replica_id == byzantine_replica:
            replica = ByzantineHybsterReplica(
                sim, network, machine, config, replica_id, service_factory(),
                behaviour=behaviour, behaviour_config=behaviour_config,
                message_base_cost_ns=kwargs.get("message_base_cost_ns", MESSAGE_BASE_COST_NS),
            )
        else:
            replica = HybsterReplica(
                sim, network, machine, config, replica_id, service_factory(),
                message_base_cost_ns=kwargs.get("message_base_cost_ns", MESSAGE_BASE_COST_NS),
            )
        replicas.append(replica)
    for replica in replicas:
        replica.start()
    return replicas
