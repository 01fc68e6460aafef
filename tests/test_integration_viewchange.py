"""Integration tests: view changes under crash faults and partitions."""

import pytest

from repro.chaos import Partition
from tests.conftest import MS, Harness


def crash(harness: Harness, replica_id: str, at=None, until=None):
    start = at if at is not None else harness.sim.now
    harness.network.add_filter(Partition({replica_id}, start_ns=start, end_ns=until))


class TestLeaderCrash:
    def test_view_change_restores_progress(self, harness):
        harness.add_client(window=2)
        harness.add_client(window=2)
        harness.start_clients()
        harness.run(200)
        before = harness.completed
        crash(harness, "r0")
        harness.run(3000)
        after = harness.completed
        assert after > before + 50, "no progress after the leader crash"
        assert harness.replicas[1].current_view >= 1
        assert harness.replicas[2].current_view >= 1
        harness.drain(300)
        live = [str(s) for s in harness.service_states()[1:]]
        assert live[0] == live[1]

    def test_new_leader_is_the_next_primary(self, harness):
        harness.add_client(window=2)
        harness.start_clients()
        harness.run(100)
        crash(harness, "r0")
        harness.run(3000)
        view = harness.replicas[1].current_view
        assert harness.config.primary_of_view(view) in ("r1", "r2")
        # proposals in the new view come from its primary
        primary = harness.config.primary_of_view(view)
        primary_replica = next(r for r in harness.replicas if r.replica_id == primary)
        assert primary_replica.stats()["proposals"] > 0

    def test_parallel_pillars_view_change(self):
        harness = Harness(num_pillars=3)
        harness.add_client(window=4)
        harness.start_clients()
        harness.run(200)
        before = harness.completed
        crash(harness, "r0")
        harness.run(3000)
        assert harness.completed > before + 50
        live = harness.replicas[1:]
        assert all(replica.current_view >= 1 for replica in live)
        # all pillars of the live replicas returned to stable ordering
        for replica in live:
            assert all(pillar.view_stable for pillar in replica.pillars)
        harness.drain(300)
        states = {str(replica.service.state_digestible()) for replica in live}
        assert len(states) == 1

    def test_successive_leader_crashes(self):
        harness = Harness(n=5)  # f = 2: tolerate two crashed leaders
        harness.add_client(window=2)
        harness.add_client(window=2)
        harness.start_clients()
        harness.run(100)
        crash(harness, "r0")
        harness.run(2500)
        first_view = max(harness.views())
        assert first_view >= 1
        before = harness.completed
        crash(harness, harness.config.primary_of_view(first_view))
        harness.run(4000)
        assert harness.completed > before + 20
        live = [r for r in harness.replicas
                if r.replica_id not in ("r0", harness.config.primary_of_view(first_view))]
        states = {str(replica.service.state_digestible()) for replica in live}
        assert len(states) == 1

    def test_view_change_with_rotation(self):
        harness = Harness(num_pillars=2, rotation=True)
        for _ in range(4):
            harness.add_client(window=2)
        harness.start_clients()
        harness.run(200)
        before = harness.completed
        crash(harness, "r0")
        harness.run(4000)
        assert harness.completed > before + 20
        live = harness.replicas[1:]
        assert all(replica.current_view >= 1 for replica in live)
        states = {str(replica.service.state_digestible()) for replica in live}
        assert len(states) == 1


class TestRecovery:
    def test_crashed_leader_rejoins_current_view(self, harness):
        harness.add_client(window=2)
        harness.start_clients()
        harness.run(200)
        crash(harness, "r0", until=harness.sim.now + 2000 * MS)
        harness.run(5000)
        harness.drain(200)
        assert harness.replicas[0].current_view >= 1
        assert harness.views()[0] == harness.views()[1] == harness.views()[2]

    def test_committed_requests_survive_the_view_change(self):
        """No request a client accepted may ever be lost (§5.2.3's goal)."""
        from repro.services.kvstore import KeyValueStore
        from repro.clients.workload import Workload

        class Puts(Workload):
            def next_operation(self, request_index):
                return ("put", f"key{request_index}", request_index), 0

        harness = Harness(service_factory=KeyValueStore)
        client = harness.add_client(Puts(), window=2)
        harness.start_clients()
        harness.run(200)
        completed_before_crash = client.completed
        crash(harness, "r0")
        harness.run(3000)
        harness.drain(500)
        store = harness.replicas[1].service
        for index in range(completed_before_crash):
            assert store.execute(("get", f"key{index}"), "test") == index, (
                f"request {index}, accepted by the client before the crash, "
                "is missing from the new view's state"
            )

    def test_no_duplicate_execution_across_view_change(self):
        from repro.clients.workload import Workload

        class AddOnes(Workload):
            def next_operation(self, request_index):
                return ("add", 1), 0

        harness = Harness()
        client = harness.add_client(AddOnes(), window=1)
        harness.start_clients()
        harness.run(200)
        crash(harness, "r0")
        harness.run(3000)
        harness.drain(500)
        # exactly-once: the counter equals the number of accepted requests
        # (window=1 keeps acceptance sequential; retries must not double-add)
        value = harness.replicas[1].service.value
        assert value == client.completed


class TestPartitionTolerance:
    def test_follower_partition_does_not_stop_progress(self, harness):
        harness.add_client(window=2)
        harness.start_clients()
        harness.run(100)
        before = harness.completed
        crash(harness, "r2")  # a follower, not the leader
        harness.run(500)
        assert harness.completed > before
        assert harness.replicas[0].current_view == 0  # no view change needed

    def test_short_glitch_no_view_change(self, harness):
        harness.add_client(window=2)
        harness.start_clients()
        harness.run(100)
        # a 20ms leader glitch: far below the 150ms suspicion timeout
        crash(harness, "r0", until=harness.sim.now + 20 * MS)
        harness.run(500)
        assert all(view == 0 for view in harness.views())
        harness.drain()
        harness.assert_replicas_consistent()
