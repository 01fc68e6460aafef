"""The PREPARE check on its two paths: ordinary ordering and view change.

Ordinary PREPAREs reach a pillar through ``_on_prepare``; PREPAREs from
earlier views and a new primary's re-proposals reach it inside NEW-VIEW
and NEW-VIEW-ACK parts.  Both paths apply the same certificate check,
with two differences: a re-proposal (certified on the primary's own
counter) is valid only inside a NEW-VIEW, and the scenario-only
``verify_trinx`` switch relaxes only the ordinary path.
"""

from dataclasses import replace

import pytest

from repro.core.seqnum import flatten
from repro.crypto.mac import digest_many
from repro.messages.client import Request
from repro.messages.internal import ForwardAck, ForwardNv
from repro.messages.ordering import Prepare
from repro.messages.viewchange import NewView, NewViewAck
from repro.trinx.enclave import EnclavePlatform
from repro.trinx.trinx import TrInX, batch_root
from tests.conftest import Harness

# r2 verifies; r0 leads view 0 and r1 leads view 1 (fixed leader, one pillar)
VERIFIER = 2


def trinx_of(harness: Harness, replica_id: str) -> TrInX:
    """The sender's own genuine TrInX instance (two counters, so a wrong one exists)."""
    config = harness.config
    return TrInX(
        EnclavePlatform(), config.trinx_instance_id(replica_id, 0), config.group_secret, num_counters=2
    )


def certify(
    trinx: TrInX,
    view: int,
    order: int,
    leader: str,
    reproposal: bool = False,
    counter: int = 0,
    value: tuple[int, int] | None = None,
    splice: bool = False,
) -> Prepare:
    request = Request("clients:c9", order, "A")
    bare = Prepare(view, order, (request,), leader, reproposal=reproposal)
    leaves = digest_many([request.digestible()])
    certified_view, certified_order = value if value is not None else (view, order)
    certificate = trinx.create_independent_batch(
        counter, flatten(certified_view, certified_order), bare.certified_digestible(), leaves
    )
    prepare = replace(bare, certificate=certificate, batch_digest=batch_root(leaves))
    if splice:
        # another request under the same certificate, root honestly recomputed
        other = Request("clients:c9", order, "B")
        prepare = replace(
            prepare, batch=(other,), batch_digest=batch_root(digest_many([other.digestible()]))
        )
    return prepare


class _Probe:
    """The verifying pillar, with its sends to the coordinator captured."""

    def __init__(self, verify_trinx: bool = True):
        self.harness = Harness()
        self.pillar = self.harness.replicas[VERIFIER].pillars[0]
        self.pillar.verify_trinx = verify_trinx
        self.sent: list = []
        self.pillar.send = lambda address, message: self.sent.append(message)

    def ordinary(self, prepare: Prepare) -> bool:
        return self.pillar._verify_prepare(prepare)

    def in_new_view(self, prepare: Prepare) -> bool:
        """Is the re-proposal accepted inside a NEW-VIEW part for view 1?"""
        part = NewView(
            leader="r1", v_to=1, base_view=0, checkpoint_order=0, checkpoint_certificate=(),
            view_changes=(), acks=(), prepares=(prepare,),
        )
        self.sent.clear()
        self.pillar._on_new_view_part(("r1", "pillar0"), part)
        return any(isinstance(message, ForwardNv) for message in self.sent)

    def in_ack(self, prepare: Prepare) -> bool:
        """Is the earlier-view PREPARE accepted inside a NEW-VIEW-ACK part?"""
        part = NewViewAck(replica="r1", view=1, prepares=(prepare,))
        self.sent.clear()
        self.pillar._on_new_view_ack_part(("r1", "pillar0"), part)
        return any(isinstance(message, ForwardAck) for message in self.sent)


@pytest.fixture
def probe() -> _Probe:
    return _Probe()


def test_valid_prepares_pass_their_paths(probe):
    ordinary = certify(trinx_of(probe.harness, "r0"), 0, 5, "r0")
    reproposal = certify(trinx_of(probe.harness, "r1"), 1, 5, "r1", reproposal=True)
    assert probe.ordinary(ordinary)
    assert probe.in_ack(ordinary)
    assert probe.in_new_view(reproposal)


def test_reproposal_refused_on_the_ordinary_path(probe):
    reproposal = certify(trinx_of(probe.harness, "r1"), 1, 5, "r1", reproposal=True)
    assert not probe.ordinary(reproposal)
    assert probe.in_new_view(reproposal)


# (issuer, counter, certified [view|order], spliced batch), each wrong once;
# the ordinary PREPARE is r0's for (0, 5), the re-proposal r1's for (1, 5)
DEFECTS = {
    "issuer": (dict(issuer="r2"), dict(issuer="r2")),
    "counter": (dict(counter=1), dict(counter=1)),
    "order": (dict(value=(0, 6)), dict(value=(1, 6))),
    "view": (dict(value=(1, 5)), dict(value=(2, 5))),
    "spliced-batch": (dict(splice=True), dict(splice=True)),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_defects_refused_on_both_paths(probe, defect):
    ordinary_defect, reproposal_defect = (dict(d) for d in DEFECTS[defect])
    ordinary = certify(
        trinx_of(probe.harness, ordinary_defect.pop("issuer", "r0")), 0, 5, "r0", **ordinary_defect
    )
    assert not probe.ordinary(ordinary)
    assert not probe.in_ack(ordinary)
    reproposal = certify(
        trinx_of(probe.harness, reproposal_defect.pop("issuer", "r1")),
        1, 5, "r1", reproposal=True, **reproposal_defect,
    )
    assert not probe.in_new_view(reproposal)


def test_verify_trinx_off_relaxes_only_the_ordinary_path():
    probe = _Probe(verify_trinx=False)
    spliced = certify(trinx_of(probe.harness, "r0"), 0, 5, "r0", splice=True)
    assert probe.ordinary(spliced)
    assert not probe.in_ack(spliced)
    spliced_reproposal = certify(
        trinx_of(probe.harness, "r1"), 1, 5, "r1", reproposal=True, splice=True
    )
    assert not probe.in_new_view(spliced_reproposal)
    # the certificate's fields are still checked with verification off
    wrong_issuer = certify(trinx_of(probe.harness, "r2"), 0, 5, "r0")
    assert not probe.ordinary(wrong_issuer)
