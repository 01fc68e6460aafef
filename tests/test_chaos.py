"""Tests for the transport-agnostic chaos filter library."""

from __future__ import annotations

import pytest

from repro.chaos import (
    DELIVER,
    ChaosPlan,
    CrashWindows,
    Equivocate,
    FilterDecision,
    LossRate,
    Partition,
    Reorder,
)
from repro.messages.client import Request
from repro.messages.ordering import Commit, Prepare
from repro.sim.process import Envelope
from repro.sim.rand import derive_seed
from repro.trinx.certificates import CounterCertificate

REQUEST = Request("clients0:c0", 3, ("put", "k", 1), 0, b"\x22" * 32)
CERT = CounterCertificate(issuer="r0p0", counter=0, new_value=11, previous_value=None, mac=b"\x01" * 32)
PREPARE = Prepare(view=0, order=11, batch=(REQUEST,), leader="r0", certificate=CERT)


# ----------------------------------------------------------------------
# Decision plumbing
# ----------------------------------------------------------------------
def test_deliver_is_the_neutral_decision():
    assert not DELIVER.drop
    assert DELIVER.extra_delay_ns == 0
    assert DELIVER.replace is None


def test_chaos_plan_drop_wins_over_everything():
    plan = ChaosPlan([LossRate(0.0), LossRate(1.0), LossRate(0.0)])
    decision = plan.decide("a", "b", REQUEST, 64, 0)
    assert decision.drop


def test_chaos_plan_accumulates_delays():
    from repro.chaos import ExtraDelay

    plan = ChaosPlan([ExtraDelay(1_000), ExtraDelay(2_000)])
    decision = plan.decide("a", "b", REQUEST, 64, 0)
    assert not decision.drop
    assert decision.extra_delay_ns == 3_000


def test_chaos_plan_threads_replacements_through_later_filters():
    seen = []

    class Tag:
        def decide(self, src, dst, message, size, now):
            seen.append(message)
            return DELIVER

    class Swap:
        def decide(self, src, dst, message, size, now):
            return FilterDecision(replace="swapped")

    plan = ChaosPlan([Swap(), Tag()])
    decision = plan.decide("a", "b", "original", 64, 0)
    assert decision.replace == "swapped"
    assert seen == ["swapped"]  # the later filter saw the replacement


# ----------------------------------------------------------------------
# Individual filters
# ----------------------------------------------------------------------
def test_loss_rate_is_deterministic_per_seed():
    def outcomes(seed):
        loss = LossRate(0.5, seed=seed)
        return [loss.decide("a", "b", None, 0, 0).drop for _ in range(64)]

    assert outcomes(1) == outcomes(1)
    assert outcomes(1) != outcomes(2)
    assert any(outcomes(1)) and not all(outcomes(1))


def test_partition_cuts_only_cross_partition_traffic_in_window():
    partition = Partition(["r2"], start_ns=100, end_ns=200)
    assert not partition.decide("r0", "r2", None, 0, 50).drop  # before
    assert partition.decide("r0", "r2", None, 0, 150).drop  # inside, crossing
    assert partition.decide("r2", "r0", None, 0, 150).drop  # both directions
    assert not partition.decide("r0", "r1", None, 0, 150).drop  # same side
    assert not partition.decide("r0", "r2", None, 0, 250).drop  # healed


def test_reorder_delays_a_fraction_and_counts():
    reorder = Reorder(0.5, delay_ns=10_000, seed=3)
    decisions = [reorder.decide("a", "b", None, 0, 0) for _ in range(100)]
    delayed = [d for d in decisions if d.extra_delay_ns > 0]
    assert reorder.reordered == len(delayed)
    assert 20 <= len(delayed) <= 80  # ~half, seeded
    assert all(d.extra_delay_ns == 10_000 for d in delayed)
    assert not any(d.drop for d in decisions)


def test_crash_windows_silence_node_then_recover():
    crash = CrashWindows("r1", [(100, 200), (400, None)])
    assert not crash.crashed(50)
    assert crash.decide("r1", "r0", None, 0, 150).drop  # outbound while down
    assert crash.decide("r0", "r1", None, 0, 150).drop  # inbound while down
    assert not crash.decide("r0", "r1", None, 0, 300).drop  # recovered
    assert crash.decide("r0", "r1", None, 0, 500).drop  # second window, open-ended
    assert not crash.decide("r0", "r2", None, 0, 150).drop  # bystanders unaffected
    assert crash.dropped == 3


# ----------------------------------------------------------------------
# Equivocation
# ----------------------------------------------------------------------
def test_equivocate_forges_prepare_batch_but_keeps_certificate():
    attack = Equivocate("r0", ["r1"], forged_operation=("put", "poison", 999))
    envelope = Envelope(("r0", "pillar0"), "pillar0", PREPARE)
    decision = attack.decide("r0", "r1", envelope, 256, 0)
    assert decision.replace is not None
    forged = decision.replace.message
    assert forged.certificate is PREPARE.certificate  # genuine certificate kept
    assert forged.batch[0].operation == ("put", "poison", 999)
    assert forged.batch[0].client_id == REQUEST.client_id
    assert forged.batch[0].request_id == REQUEST.request_id
    assert attack.attempts == 1


def test_equivocate_spares_non_victims_and_non_prepares():
    attack = Equivocate("r0", ["r1"])
    envelope = Envelope(("r0", "pillar0"), "pillar0", PREPARE)
    assert attack.decide("r0", "r2", envelope, 256, 0) is DELIVER  # not a victim
    assert attack.decide("r1", "r1", envelope, 256, 0) is DELIVER  # wrong source
    commit = Commit(view=0, order=11, replica="r0", proposal_digest=b"d", certificate=CERT)
    commit_env = Envelope(("r0", "pillar0"), "pillar0", commit)
    assert attack.decide("r0", "r1", commit_env, 256, 0) is DELIVER  # not a PREPARE
    assert attack.attempts == 0


def test_equivocate_respects_max_attempts_and_window():
    attack = Equivocate("r0", ["r1"], start_ns=100, end_ns=300, max_attempts=2)
    envelope = Envelope(("r0", "pillar0"), "pillar0", PREPARE)
    assert attack.decide("r0", "r1", envelope, 256, 50) is DELIVER  # too early
    assert attack.decide("r0", "r1", envelope, 256, 150).replace is not None
    assert attack.decide("r0", "r1", envelope, 256, 160).replace is not None
    assert attack.decide("r0", "r1", envelope, 256, 170) is DELIVER  # attempts spent
    assert attack.attempts == 2


# ----------------------------------------------------------------------
# Seed derivation
# ----------------------------------------------------------------------
def test_derive_seed_is_stable_and_discriminating():
    assert derive_seed(42, "fault", 0) == derive_seed(42, "fault", 0)
    assert derive_seed(42, "fault", 0) != derive_seed(42, "fault", 1)
    assert derive_seed(42, "fault", 0) != derive_seed(43, "fault", 0)
    assert 0 <= derive_seed(0) <= 0x7FFFFFFF


def test_filter_decision_rejects_unknown_fields():
    with pytest.raises(TypeError):
        FilterDecision(bogus=True)
