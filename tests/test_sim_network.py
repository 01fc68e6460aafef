"""Unit tests for the network model: latency, bandwidth, fault filters."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.chaos import ChaosPlan, ExtraDelay, LossRate, Partition, TargetedDrop
from repro.sim.kernel import Simulator
from repro.sim.network import Network, NetworkInterface


def make_net(latency_ns=1_000, bandwidth=1_000_000_000):
    sim = Simulator()
    net = Network(sim, latency_ns=latency_ns, default_bandwidth=bandwidth)
    inboxes = {name: [] for name in ("a", "b", "c")}
    for name in inboxes:
        net.register(name, lambda src, msg, _n=name: inboxes[_n].append((src, msg, sim.now)))
    return sim, net, inboxes


class TestNetworkDelivery:
    def test_latency_and_transmission_delay(self):
        # 1000 bytes at 1 GB/s = 1000ns egress + 1000ns ingress + 1000ns latency
        sim, net, inboxes = make_net()
        net.send("a", "b", "hello", 1_000)
        sim.run()
        assert inboxes["b"] == [("a", "hello", 3_000)]

    def test_egress_serializes_back_to_back_sends(self):
        sim, net, inboxes = make_net()
        net.send("a", "b", "m1", 1_000)
        net.send("a", "c", "m2", 1_000)
        sim.run()
        # second message waits 1000ns for the egress NIC
        assert inboxes["b"][0][2] == 3_000
        assert inboxes["c"][0][2] == 4_000

    def test_ingress_contention_incast(self):
        sim, net, inboxes = make_net()
        net.send("a", "c", "m1", 1_000)
        net.send("b", "c", "m2", 1_000)
        sim.run()
        times = sorted(t for (_, _, t) in inboxes["c"])
        assert times == [3_000, 4_000]  # second arrival queues behind the first

    def test_zero_size_message_is_latency_only(self):
        sim, net, inboxes = make_net()
        net.send("a", "b", "tiny", 0)
        sim.run()
        assert inboxes["b"][0][2] == 1_000

    def test_multicast_sends_separate_copies(self):
        sim, net, inboxes = make_net()
        net.multicast("a", ["b", "c"], "m", 1_000)
        sim.run()
        assert len(inboxes["b"]) == 1
        assert len(inboxes["c"]) == 1
        assert net.messages_sent == 2

    def test_byte_accounting(self):
        sim, net, _ = make_net()
        net.send("a", "b", "m", 500)
        sim.run()
        assert net.interface("a").bytes_sent == 500
        assert net.interface("b").bytes_received == 500

    def test_unknown_nodes_rejected(self):
        sim, net, _ = make_net()
        with pytest.raises(SimulationError):
            net.send("nope", "b", "m", 10)
        with pytest.raises(SimulationError):
            net.send("a", "nope", "m", 10)

    def test_duplicate_registration_rejected(self):
        sim, net, _ = make_net()
        with pytest.raises(ConfigurationError):
            net.register("a", lambda s, m: None)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkInterface("x", egress_bandwidth=0, ingress_bandwidth=1)


class TestFaultFilters:
    def test_loss_rate_one_drops_everything(self):
        sim, net, inboxes = make_net()
        net.add_filter(LossRate(1.0))
        net.send("a", "b", "m", 10)
        sim.run()
        assert inboxes["b"] == []
        assert net.chaos_dropped == 1

    def test_loss_rate_zero_drops_nothing(self):
        sim, net, inboxes = make_net()
        net.add_filter(LossRate(0.0))
        net.send("a", "b", "m", 10)
        sim.run()
        assert len(inboxes["b"]) == 1

    def test_loss_rate_is_deterministic(self):
        outcomes = []
        for _ in range(2):
            sim, net, inboxes = make_net()
            net.add_filter(LossRate(0.5, seed=7))
            for i in range(50):
                net.send("a", "b", i, 10)
            sim.run()
            outcomes.append([m for (_, m, _) in inboxes["b"]])
        assert outcomes[0] == outcomes[1]
        assert 0 < len(outcomes[0]) < 50

    def test_loss_rate_scoped_to_pairs(self):
        sim, net, inboxes = make_net()
        net.add_filter(LossRate(1.0, pairs={("a", "b")}))
        net.send("a", "b", "m", 10)
        net.send("a", "c", "m", 10)
        sim.run()
        assert inboxes["b"] == []
        assert len(inboxes["c"]) == 1

    def test_partition_blocks_both_directions(self):
        sim, net, inboxes = make_net()
        net.add_filter(Partition({"b"}, start_ns=0, end_ns=None))
        net.send("a", "b", "in", 10)
        net.send("b", "a", "out", 10)
        net.send("a", "c", "bypass", 10)
        sim.run()
        assert inboxes["b"] == []
        assert inboxes["a"] == []
        assert len(inboxes["c"]) == 1

    def test_partition_window_heals(self):
        sim, net, inboxes = make_net()
        net.add_filter(Partition({"b"}, start_ns=0, end_ns=5_000))
        net.send("a", "b", "blocked", 10)
        sim.schedule(10_000, lambda: net.send("a", "b", "healed", 10))
        sim.run()
        assert [m for (_, m, _) in inboxes["b"]] == ["healed"]

    def test_partition_internal_traffic_unaffected(self):
        sim, net, inboxes = make_net()
        net.add_filter(Partition({"a", "b"}))
        net.send("a", "b", "inside", 10)
        sim.run()
        assert len(inboxes["b"]) == 1

    def test_targeted_drop_counts(self):
        sim, net, inboxes = make_net()
        drop = TargetedDrop(lambda src, dst, msg: msg == "victim")
        net.add_filter(drop)
        net.send("a", "b", "victim", 10)
        net.send("a", "b", "ok", 10)
        sim.run()
        assert [m for (_, m, _) in inboxes["b"]] == ["ok"]
        assert drop.dropped == 1

    def test_extra_delay_shifts_arrival(self):
        sim, net, inboxes = make_net()
        net.add_filter(ExtraDelay(delay_ns=50_000))
        net.send("a", "b", "m", 0)
        sim.run()
        assert inboxes["b"][0][2] == 51_000

    def test_remove_filter_restores_traffic(self):
        sim, net, inboxes = make_net()
        block = LossRate(1.0)
        net.add_filter(block)
        net.send("a", "b", "lost", 10)
        sim.run()
        net.remove_filter(block)
        net.send("a", "b", "found", 10)
        sim.run()
        assert [m for (_, m, _) in inboxes["b"]] == ["found"]

    def test_fault_plan_composes(self):
        plan = ChaosPlan([ExtraDelay(1_000), ExtraDelay(2_000)])
        decision = plan.decide("a", "b", "m", 10, 0)
        assert decision.extra_delay_ns == 3_000
        plan.add(LossRate(1.0))
        assert plan.decide("a", "b", "m", 10, 0).drop

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            LossRate(1.5)
        with pytest.raises(ValueError):
            ExtraDelay(-1)
