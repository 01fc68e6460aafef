"""Integration tests: checkpointing, garbage collection, state transfer."""

from repro.chaos import Partition
from tests.conftest import Harness


class TestCheckpointing:
    def test_checkpoints_become_stable(self, harness):
        harness.add_client(window=4)
        harness.start_clients()
        harness.run(100)
        harness.drain()
        for replica in harness.replicas:
            assert replica.pillars[0].stable_ck_order > 0
            assert replica.pillars[0].stable_ck_order % harness.config.checkpoint_interval == 0

    def test_log_garbage_collected_behind_checkpoint(self, harness):
        harness.add_client(window=4)
        harness.start_clients()
        harness.run(200)
        harness.drain()
        for replica in harness.replicas:
            pillar = replica.pillars[0]
            stable = pillar.stable_ck_order
            assert stable > harness.config.checkpoint_interval  # several checkpoints
            assert all(order > stable for order in pillar.log._instances)

    def test_window_advances_with_checkpoints(self, harness):
        harness.add_client(window=4)
        harness.start_clients()
        harness.run(200)
        harness.drain()
        pillar = harness.replicas[0].pillars[0]
        assert pillar.log.low == pillar.stable_ck_order
        assert pillar.log.high == pillar.stable_ck_order + harness.config.window_size

    def test_checkpoint_certificates_are_quorums(self, harness):
        harness.add_client(window=4)
        harness.start_clients()
        harness.run(100)
        harness.drain()
        pillar = harness.replicas[0].pillars[0]
        assert len({c.replica for c in pillar.stable_ck_cert}) >= harness.config.quorum_size
        digests = {c.state_digest for c in pillar.stable_ck_cert}
        assert len(digests) == 1

    def test_shared_checkpointing_rotates_across_pillars(self):
        harness = Harness(num_pillars=2, checkpoint_interval=4, window_size=8)
        harness.add_client(window=4)
        harness.start_clients()
        harness.run(150)
        harness.drain()
        # CkReached is routed by checkpoint number mod P; both pillars must
        # have issued checkpoint messages over a long run
        leader = harness.replicas[0]
        issued = [pillar.trinx.certificates_issued for pillar in leader.pillars]
        assert all(count > 0 for count in issued)

    def test_execution_keeps_stable_snapshot(self, harness):
        harness.add_client(window=4)
        harness.start_clients()
        harness.run(100)
        harness.drain()
        execution = harness.replicas[0].execution
        order = execution.stable_checkpoint_order
        assert order > 0
        assert order <= execution.next_order - 1


class TestStateTransfer:
    def test_lagging_replica_catches_up_via_state_transfer(self):
        harness = Harness(checkpoint_interval=8, window_size=16)
        harness.add_client(window=4)
        harness.add_client(window=4)
        harness.start_clients()
        harness.run(50)
        # cut off the follower r2 long enough to fall behind many windows
        partition = Partition({"r2"}, start_ns=harness.sim.now, end_ns=harness.sim.now + 400_000_000)
        harness.network.add_filter(partition)
        harness.run(400)
        lag_before = (
            harness.replicas[0].execution.next_order - harness.replicas[2].execution.next_order
        )
        assert lag_before > harness.config.window_size  # genuinely fell behind
        harness.run(600)
        harness.drain()
        lag_after = (
            harness.replicas[0].execution.next_order - harness.replicas[2].execution.next_order
        )
        assert lag_after <= harness.config.window_size
        # the recovered replica's service really holds the transferred state
        live = [str(s) for s in harness.service_states()]
        assert live[0] == live[1]

    def test_state_transfer_preserves_reply_capability(self):
        harness = Harness(checkpoint_interval=8, window_size=16)
        client = harness.add_client(window=2)
        harness.start_clients()
        harness.run(50)
        harness.network.add_filter(
            Partition({"r2"}, start_ns=harness.sim.now, end_ns=harness.sim.now + 300_000_000)
        )
        harness.run(1000)
        harness.drain()
        # r2 must have installed snapshots including the reply vector
        r2_exec = harness.replicas[2].execution
        assert r2_exec.reply_cache_entry(client.client_id) is not None
