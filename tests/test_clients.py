"""Unit/integration tests for clients, workloads, and latency statistics."""

import pytest

from repro.clients.stats import LatencyStats
from repro.clients.workload import CoordinationWorkload, KeyValueWorkload, NullWorkload
from repro.chaos import TargetedDrop
from repro.messages.client import Reply
from tests.conftest import Harness


class TestLatencyStats:
    def test_basic_aggregation(self):
        stats = LatencyStats()
        for sample in (100, 200, 300):
            stats.record(sample)
        assert stats.count == 3
        assert stats.mean_ns == 200
        assert stats.min_ns == 100
        assert stats.max_ns == 300

    def test_empty_stats(self):
        stats = LatencyStats()
        assert stats.mean_ns == 0.0
        assert stats.percentile_ns(50) == 0.0

    def test_percentiles_from_reservoir(self):
        stats = LatencyStats()
        for sample in range(1, 101):
            stats.record(sample)
        assert 40 <= stats.percentile_ns(50) <= 60
        assert stats.percentile_ns(99) >= 90

    def test_reservoir_bounded(self):
        stats = LatencyStats(reservoir_size=64)
        for sample in range(10_000):
            stats.record(sample)
        assert len(stats._reservoir) == 64
        assert stats.count == 10_000

    def test_merge(self):
        a, b = LatencyStats(), LatencyStats()
        a.record(100)
        b.record(300)
        a.merge(b)
        assert a.count == 2
        assert a.min_ns == 100 and a.max_ns == 300

    def test_mean_ms_conversion(self):
        stats = LatencyStats()
        stats.record(2_000_000)
        assert stats.mean_ms == 2.0


class TestWorkloads:
    def test_null_workload(self):
        workload = NullWorkload(payload_size=128)
        assert workload.next_operation(0) == (None, 128)
        assert workload.setup_operations() == []

    def test_kv_workload_deterministic(self):
        a = KeyValueWorkload("c0", seed=7)
        b = KeyValueWorkload("c0", seed=7)
        assert [a.next_operation(i) for i in range(20)] == [b.next_operation(i) for i in range(20)]

    def test_kv_workload_keys_scoped_to_client(self):
        workload = KeyValueWorkload("c9", seed=1)
        operation, _size = workload.next_operation(0)
        assert "c9/" in operation[1]

    def test_coordination_workload_setup_creates_subtree(self):
        workload = CoordinationWorkload("cl:c0", read_fraction=0.5, nodes=4)
        setup = workload.setup_operations()
        assert setup[0][0][0] == "create"
        assert len(setup) == 5  # root + 4 nodes

    def test_coordination_read_fraction_extremes(self):
        reads_only = CoordinationWorkload("c0", read_fraction=1.0)
        writes_only = CoordinationWorkload("c1", read_fraction=0.0)
        assert all(reads_only.next_operation(i)[0][0] == "get" for i in range(20))
        assert all(writes_only.next_operation(i)[0][0] == "set" for i in range(20))

    def test_coordination_invalid_fraction(self):
        with pytest.raises(ValueError):
            CoordinationWorkload("c0", read_fraction=1.5)

    def test_reply_payload_average(self):
        workload = CoordinationWorkload("c0", read_fraction=0.5, node_size=128)
        assert workload.reply_payload_size() == 64


class TestClientBehavior:
    def test_window_respected(self, harness):
        client = harness.add_client(window=3)
        harness.start_clients()
        harness.run(0.01)  # before any reply can arrive
        assert len(client.outstanding) == 3

    def test_window_refills_after_completion(self, harness):
        client = harness.add_client(window=2)
        harness.start_clients()
        harness.run(100)
        assert client.completed > 2
        assert len(client.outstanding) <= 2

    def test_needs_f_plus_one_matching_replies(self, harness):
        client = harness.add_client(window=1)
        # drop every reply from r1 and r2: only the leader answers, which is
        # below the f+1 threshold, so nothing completes
        harness.network.add_filter(
            TargetedDrop(lambda src, dst, msg: src in ("r1", "r2")
                         and isinstance(getattr(msg, "message", None), Reply))
        )
        harness.start_clients()
        harness.run(100)
        assert client.completed == 0

    def test_client_retries_when_ignored(self, harness):
        client = harness.add_client(window=1)
        # all requests into the void
        harness.network.add_filter(
            TargetedDrop(lambda src, dst, msg: src == "clients")
        )
        harness.start_clients()
        harness.run(900)
        assert client.retries >= 2
        assert client.completed == 0

    def test_retry_multicasts_to_all_replicas(self, harness):
        client = harness.add_client(window=1)
        seen = set()
        original_send = client.send

        def spy(dst, message, size=None):
            seen.add(dst[0])
            return original_send(dst, message, size)

        client.send = spy
        harness.network.add_filter(
            TargetedDrop(lambda src, dst, msg: src == "clients")
        )
        harness.start_clients()
        harness.run(500)
        assert seen == {"r0", "r1", "r2"}

    def test_duplicate_replies_do_not_double_complete(self, harness):
        client = harness.add_client(window=1)
        harness.start_clients()
        harness.run(50)
        completed = client.completed
        # replay a stale reply for an already-completed request
        reply = Reply("r0", client.client_id, 0, 0, None)
        client.on_message(("r0", "exec"), reply)
        assert client.completed == completed

    def test_setup_operations_run_first_and_in_order(self):
        from repro.clients.workload import Workload
        from repro.services.kvstore import KeyValueStore

        class SetupThenRead(Workload):
            def setup_operations(self):
                return [(("put", "a", 1), 0), (("put", "b", 2), 0)]

            def next_operation(self, request_index):
                return ("get", "b"), 0

        harness = Harness(service_factory=KeyValueStore)
        client = harness.add_client(SetupThenRead(), window=4)
        harness.start_clients()
        harness.run(50)
        assert client.last_result == 2

    def test_client_follows_the_view(self, harness):
        from repro.chaos import Partition

        client = harness.add_client(window=1)
        harness.start_clients()
        harness.run(100)
        harness.network.add_filter(Partition({"r0"}, start_ns=harness.sim.now))
        harness.run(3000)
        assert client.current_view >= 1
        assert client.completed > 0
