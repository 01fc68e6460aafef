"""Tests for the comparison systems: PBFTcop, HybridPBFT, MinBFT, CASH."""

import pytest

from repro.baselines.cash import CashSubsystem
from repro.baselines.minbft import build_minbft_group
from repro.baselines.pbft import AUTHENTICATORS, TRUSTED_MACS, build_pbft_group
from repro.baselines.usig import Usig
from repro.clients.client import Client
from repro.clients.workload import NullWorkload
from repro.core.config import ReplicaGroupConfig
from repro.errors import ConfigurationError
from repro.services.counter import CounterService
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.process import Endpoint
from repro.sim.resources import Machine
from repro.trinx.enclave import EnclavePlatform

SECRET = b"baseline-group-secret-000000000!"


def build_cluster(kind: str, num_pillars=2, rotation=False, batch_size=1, clients=2):
    sim = Simulator()
    network = Network(sim)
    if kind == "minbft":
        ids, pillars = ("r0", "r1", "r2"), 1
    else:
        ids, pillars = ("r0", "r1", "r2", "r3"), num_pillars
    config = ReplicaGroupConfig(
        replica_ids=ids, num_pillars=pillars, rotation=rotation,
        checkpoint_interval=8, window_size=16, batch_size=batch_size,
    )
    machines = [Machine(sim, rid, cores=4) for rid in ids]
    if kind == "minbft":
        replicas = build_minbft_group(sim, network, machines, config, CounterService)
    else:
        mode = TRUSTED_MACS if kind == "hybrid" else AUTHENTICATORS
        replicas = build_pbft_group(sim, network, machines, config, CounterService, cert_mode=mode)
    client_machine = Machine(sim, "cl", cores=4)
    endpoint = Endpoint(sim, network, "cl")
    client_objects = [
        Client(endpoint, client_machine.allocate_thread(f"c{i}"), config, f"c{i}",
               NullWorkload(), window=2)
        for i in range(clients)
    ]
    for client in client_objects:
        client.start()
    return sim, network, replicas, client_objects


class TestPbftCop:
    @pytest.mark.parametrize("kind", ["pbft", "hybrid"])
    def test_fault_free_ordering(self, kind):
        sim, _net, replicas, clients = build_cluster(kind)
        sim.run(until=200_000_000)
        completed = sum(client.completed for client in clients)
        assert completed > 50
        applied = [replica.service.operations_applied for replica in replicas]
        assert max(applied) - min(applied) <= 8  # replicas track each other

    def test_needs_3f_plus_1_replicas(self):
        sim = Simulator()
        network = Network(sim)
        config = ReplicaGroupConfig(replica_ids=("a", "b", "c"), checkpoint_interval=8, window_size=16)
        machines = [Machine(sim, rid, cores=2) for rid in config.replica_ids]
        with pytest.raises(ConfigurationError):
            build_pbft_group(sim, network, machines, config, CounterService)

    def test_checkpoints_garbage_collect(self):
        sim, _net, replicas, clients = build_cluster("pbft", clients=4)
        sim.run(until=400_000_000)
        for replica in replicas:
            pillar = replica.pillars[0]
            assert pillar.stable_ck_order > 0
            assert all(order > pillar.stable_ck_order for order in pillar.log._instances)

    def test_rotation_balances_proposals(self):
        sim, _net, replicas, clients = build_cluster("pbft", rotation=True, clients=8)
        sim.run(until=300_000_000)
        proposals = [replica.stats()["proposals"] for replica in replicas]
        assert all(count > 0 for count in proposals)

    def test_survives_one_follower_crash(self):
        from repro.chaos import Partition

        sim, network, replicas, clients = build_cluster("pbft", clients=2)
        sim.run(until=100_000_000)
        before = sum(client.completed for client in clients)
        network.add_filter(Partition({"r3"}, start_ns=sim.now))
        sim.run(until=400_000_000)
        assert sum(client.completed for client in clients) > before

    def test_hybrid_uses_fewer_crypto_ops_for_large_groups(self):
        # at n = 4 an authenticator needs 3 MACs per outgoing message; a
        # trusted MAC needs a single enclave call regardless of group size
        sim_a, _n1, replicas_a, clients_a = build_cluster("pbft")
        sim_b, _n2, replicas_b, clients_b = build_cluster("hybrid")
        sim_a.run(until=100_000_000)
        sim_b.run(until=100_000_000)
        assert sum(c.completed for c in clients_a) > 0
        assert sum(c.completed for c in clients_b) > 0


class TestMinBft:
    def test_fault_free_ordering(self):
        sim, _net, replicas, clients = build_cluster("minbft")
        sim.run(until=200_000_000)
        assert sum(client.completed for client in clients) > 50
        applied = [replica.service.operations_applied for replica in replicas]
        assert max(applied) - min(applied) <= 4

    def test_checkpoints_and_gc(self):
        sim, _net, replicas, clients = build_cluster("minbft", clients=4)
        sim.run(until=400_000_000)
        for replica in replicas:
            assert replica.low_mark > 0
            assert all(order > replica.low_mark for order in replica._instances)

    def test_sequential_pillar_restriction(self):
        sim = Simulator()
        network = Network(sim)
        config = ReplicaGroupConfig(
            replica_ids=("a", "b", "c"), num_pillars=2, checkpoint_interval=8, window_size=16
        )
        machines = [Machine(sim, rid, cores=2) for rid in config.replica_ids]
        with pytest.raises(ConfigurationError):
            build_minbft_group(sim, network, machines, config, CounterService)

    def test_ui_sequence_enforced(self):
        sim, _net, replicas, clients = build_cluster("minbft")
        sim.run(until=100_000_000)
        # followers track the leader's UI values gaplessly
        follower = replicas[1]
        assert follower._last_leader_ui > 0


class TestUsig:
    def test_implicit_increment(self):
        usig = Usig(EnclavePlatform(), "u0", SECRET)
        ui1 = usig.create_ui("a")
        ui2 = usig.create_ui("b")
        assert (ui1.value, ui2.value) == (1, 2)

    def test_verify_cross_instance(self):
        a = Usig(EnclavePlatform(), "u0", SECRET)
        b = Usig(EnclavePlatform(), "u1", SECRET)
        ui = a.create_ui("m")
        assert b.verify_ui(ui, "m")
        assert not b.verify_ui(ui, "tampered")

    def test_wrong_secret_rejected(self):
        a = Usig(EnclavePlatform(), "u0", SECRET)
        b = Usig(EnclavePlatform(), "u0", b"other-secret-0000000000000000!!!")
        ui = a.create_ui("m")
        assert not b.verify_ui(ui, "m")

    def test_each_ui_is_an_enclave_call(self):
        platform = EnclavePlatform()
        usig = Usig(platform, "u0", SECRET)
        usig.create_ui("a")
        usig.create_ui("b")
        assert platform.calls == 2


class TestCash:
    def test_counters_monotone(self):
        cash = CashSubsystem(None, "cash0", SECRET)
        cash.create_certificate(0, 5, "m")
        with pytest.raises(ValueError):
            cash.create_certificate(0, 4, "m")

    def test_certificates_verify(self):
        cash = CashSubsystem(None, "cash0", SECRET)
        mac = cash.create_certificate(0, 5, "m")
        assert cash.verify_certificate("cash0", 0, 5, "m", mac)
        assert not cash.verify_certificate("cash0", 0, 5, "tampered", mac)

    def test_single_channel_serializes(self):
        sim = Simulator()
        machine = Machine(sim, "m", cores=2)
        cash = CashSubsystem(sim, "cash0", SECRET)
        finish = {}
        t0 = machine.allocate_thread("a")
        t1 = machine.allocate_thread("b")
        t0.submit(lambda _: cash.create_certificate(0, 1, "x"))
        t1.submit(lambda _: cash.create_certificate(1, 1, "y"))
        t0.submit(lambda _: finish.setdefault("a", sim.now))
        t1.submit(lambda _: finish.setdefault("b", sim.now))
        sim.run()
        # both threads issued one certificate, but the channel processed
        # them back to back: the second finisher waited ~2x the latency
        assert max(finish.values()) >= 2 * 57_000


class TestProposedKeysPruned:
    """A proposer's request-key table is pruned at each stable checkpoint.

    Retries of executed requests are caught by the handler's watermark
    (Hybster, PBFTcop) or MinBFT's reply cache, so the table only needs
    the keys of orders inside the window.
    """

    @pytest.mark.parametrize("protocol", ["hybster-s", "pbft", "hybrid-pbft", "minbft"])
    def test_table_stays_within_one_window(self, protocol):
        from repro.runtime.deployment import DeploymentSpec, build_deployment
        from repro.runtime.run import run

        spec = DeploymentSpec(
            protocol=protocol, cores=2 if "pbft" in protocol else 1,
            num_clients=8, client_window=4, checkpoint_interval=16, window_size=64,
        )
        deployment = build_deployment(spec)
        result = run(deployment, duration_ns=60_000_000)
        assert result.completed > 2 * spec.window_size  # the window advanced several times
        proposers = [
            stage for replica in deployment.replicas for stage in getattr(replica, "pillars", [replica])
        ]
        assert max(len(stage._proposed_keys) for stage in proposers) <= spec.window_size * spec.batch_size


class TestBatchLinger:
    """``batch_linger_ns`` holds a partial batch on an idle pipeline."""

    LINGER_NS = 5_000_000

    @pytest.mark.parametrize("protocol", ["hybster-s", "pbft", "hybrid-pbft"])
    def test_lone_request_waits_for_the_linger_window(self, protocol):
        from repro.runtime.deployment import DeploymentSpec, build_deployment

        spec = DeploymentSpec(
            protocol=protocol, cores=1, num_clients=1, client_window=1, client_machines=1,
            batch_size=8, batch_linger_ns=self.LINGER_NS,
        )
        deployment = build_deployment(spec)
        pillars = [pillar for replica in deployment.replicas for pillar in replica.pillars]
        deployment.start_clients()
        deployment.sim.run(until=self.LINGER_NS // 2)
        # the request reached the proposer, which holds it instead of proposing
        assert sum(pillar.proposals for pillar in pillars) == 0
        assert sum(len(pillar.pending) for pillar in pillars) == 1
        deployment.sim.run(until=4 * self.LINGER_NS)
        assert sum(pillar.proposals for pillar in pillars) >= 1
        assert deployment.clients[0].completed >= 1

    def test_minbft_rejects_linger(self):
        from repro.runtime.deployment import DeploymentSpec, build_deployment

        with pytest.raises(ConfigurationError):
            build_deployment(DeploymentSpec(protocol="minbft", batch_linger_ns=self.LINGER_NS))
