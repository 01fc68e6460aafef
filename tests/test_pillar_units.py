"""Unit tests for pillar-level mechanics: lanes, gaps, fetch, retransmit."""

from repro.messages.internal import ExecRequest, FillGap, OrderRequest
from repro.messages.client import Request
from repro.messages.ordering import Commit, InstanceFetch, Prepare
from repro.chaos import TargetedDrop
from tests.conftest import Harness


def leader_pillar(harness, index=0):
    return harness.replicas[0].pillars[index]


class TestLaneBookkeeping:
    def test_fixed_leader_single_lane_pointers(self):
        harness = Harness(num_pillars=2)
        p0, p1 = harness.replicas[0].pillars
        assert p0.lane_next == {0: 2}
        assert p1.lane_next == {0: 1}

    def test_rotation_lane_pointers_cover_all_lanes(self):
        harness = Harness(num_pillars=2, rotation=True)
        pillar = harness.replicas[0].pillars[0]
        assert set(pillar.lane_next) == {0, 1, 2}
        for lane, order in pillar.lane_next.items():
            assert order % 2 == 0  # pillar 0's class
            assert harness.config.lane_of(0, order) == lane

    def test_lane_pointers_advance_by_stride(self):
        harness = Harness(num_pillars=2)
        harness.add_client(window=4)
        harness.start_clients()
        harness.run(50)
        pillar = leader_pillar(harness)
        assert pillar.lane_next[0] > 2
        assert pillar.lane_next[0] % 2 == 0

    def test_proposals_respect_window(self):
        harness = Harness(num_pillars=1, checkpoint_interval=8, window_size=16)
        # flood with more requests than the window admits
        for _ in range(4):
            harness.add_client(window=16)
        harness.start_clients()
        harness.run(2)  # too short for any checkpoint
        pillar = leader_pillar(harness)
        assert pillar.lane_next[0] <= pillar.log.high + 1


class TestInstanceFetch:
    def test_proposer_answers_fetch_with_prepare(self):
        harness = Harness()
        harness.add_client(window=2)
        harness.start_clients()
        harness.run(50)
        pillar = leader_pillar(harness)
        some_order = max(pillar.log._instances)
        received = []
        follower = harness.replicas[1].pillars[0]
        original = follower.on_message

        def spy(src, message):
            received.append(message)
            return original(src, message)

        follower.on_message = spy
        pillar._enqueue(("r1", "pillar0"), InstanceFetch(some_order, 0))
        harness.run(10)
        assert any(
            isinstance(m, Prepare) and m.order == some_order for m in received
        )

    def test_follower_answers_fetch_with_commit(self):
        harness = Harness()
        harness.add_client(window=2)
        harness.start_clients()
        harness.run(50)
        follower = harness.replicas[1].pillars[0]
        some_order = max(
            o for o, inst in follower.log._instances.items() if inst.own_commit is not None
        )
        received = []
        asker = harness.replicas[2].pillars[0]
        original = asker.on_message

        def spy(src, message):
            received.append(message)
            return original(src, message)

        asker.on_message = spy
        follower._enqueue(("r2", "pillar0"), InstanceFetch(some_order, 0))
        harness.run(10)
        assert any(isinstance(m, Commit) and m.order == some_order for m in received)

    def test_lost_commit_repaired_via_fetch(self):
        harness = Harness()
        # drop the first 30 COMMIT messages from r1 to r2 to create a gap
        dropped = {"count": 0}

        def drop_commits(src, dst, msg):
            inner = getattr(msg, "message", None)
            if src == "r0" and dst == "r2" and isinstance(inner, Prepare) and dropped["count"] < 10:
                dropped["count"] += 1
                return True
            return False

        harness.network.add_filter(TargetedDrop(drop_commits))
        harness.add_client(window=2)
        harness.start_clients()
        harness.run(400)
        harness.drain()
        assert dropped["count"] >= 1
        # r2 recovered the lost instances (fetch, retransmission, or state
        # transfer) and is executing at the head again
        progress = [replica.execution.next_order for replica in harness.replicas]
        assert progress[0] - progress[2] <= harness.config.window_size
        states = [str(s) for s in harness.service_states()]
        assert states[0] == states[1] == states[2]


class TestRetransmission:
    def test_leader_retransmits_unacknowledged_prepares(self):
        harness = Harness()
        # r1 and r2 never receive anything: nothing can commit, the leader
        # must retransmit (and eventually suspect, which we ignore here)
        prepares_seen = {"count": 0}

        def count_and_drop(src, dst, msg):
            inner = getattr(msg, "message", None)
            if isinstance(inner, Prepare):
                prepares_seen["count"] += 1
            return src == "r0" and dst in ("r1", "r2")

        harness.network.add_filter(TargetedDrop(count_and_drop))
        harness.add_client(window=1)
        harness.start_clients()
        harness.run(140)
        # initial multicast (2) + at least one retransmission round
        assert prepares_seen["count"] >= 4


class TestNoopFilling:
    def test_fill_gap_produces_noop_for_own_slot(self):
        harness = Harness(num_pillars=2)
        pillar = leader_pillar(harness, index=1)  # owns order 1
        exec_requests = []
        execution = harness.replicas[0].execution
        original = execution.on_message

        def spy(src, message):
            if isinstance(message, ExecRequest):
                exec_requests.append(message)
            return original(src, message)

        execution.on_message = spy
        pillar._enqueue(("r0", "exec"), FillGap(1))
        harness.run(20)
        noops = [m for m in exec_requests if m.order == 1 and m.batch == ()]
        assert noops

    def test_fill_gap_for_foreign_slot_broadcasts_fetch(self):
        harness = Harness()
        follower = harness.replicas[1].pillars[0]
        fetches = []
        leader = harness.replicas[0].pillars[0]
        original = leader.on_message

        def spy(src, message):
            if isinstance(message, InstanceFetch):
                fetches.append(message)
            return original(src, message)

        leader.on_message = spy
        follower._enqueue(("r1", "exec"), FillGap(1))
        harness.run(10)
        assert fetches and fetches[0].order == 1


class TestAdaptiveBatching:
    def test_partial_batch_released_when_pipeline_idle(self):
        harness = Harness(batch_size=8)
        client = harness.add_client(window=1)
        harness.start_clients()
        harness.run(50)
        # a single client with window 1 never fills a batch of 8, yet its
        # requests must not wait forever
        assert client.completed > 5

    def test_batches_fill_under_load(self):
        harness = Harness(batch_size=8)
        for _ in range(6):
            harness.add_client(window=8)
        harness.start_clients()
        harness.run(150)
        harness.drain()
        stats = harness.replicas[0].stats()
        assert stats["executed_requests"] / max(1, stats["executed_instances"]) > 2.0

    def test_dedup_prevents_double_proposal(self):
        harness = Harness()
        pillar = leader_pillar(harness)
        request = Request("clients:c0", 1, None)
        pillar._enqueue(("r0", "handler"), OrderRequest((request,)))
        pillar._enqueue(("r0", "handler"), OrderRequest((request,)))
        harness.run(10)
        assert pillar.proposals == 1
