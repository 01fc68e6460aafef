#!/usr/bin/env python3
"""The §6.4 scenario: a replicated, ZooKeeper-inspired coordination service.

A group of clients uses the hierarchical namespace to implement a simple
coordination pattern — registering ephemeral-style worker entries under
a common parent and discovering each other — while the replication layer
(HybsterX) keeps every replica's namespace identical.

Run with::

    python examples/coordination_service.py
"""

from repro.clients.client import Client
from repro.clients.workload import Workload
from repro.core.config import ReplicaGroupConfig
from repro.core.replica import build_group
from repro.services.coordination import CoordinationService
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.process import Endpoint
from repro.sim.resources import Machine


class WorkerRegistration(Workload):
    """Each worker registers itself, then watches the group membership."""

    def __init__(self, worker_name: str):
        self.worker_name = worker_name

    def setup_operations(self):
        return [(("create", f"/workers/{self.worker_name}", 64), 64)]

    def next_operation(self, request_index):
        if request_index % 3 == 0:
            return ("children", "/workers"), 0
        if request_index % 3 == 1:
            return ("set", f"/workers/{self.worker_name}", 64), 64
        return ("get", f"/workers/{self.worker_name}"), 0


def main():
    sim = Simulator()
    network = Network(sim)
    config = ReplicaGroupConfig(
        replica_ids=("r0", "r1", "r2"),
        num_pillars=4,
        batch_size=8,
        checkpoint_interval=32,
        window_size=64,
    )
    machines = [Machine(sim, rid, cores=4) for rid in config.replica_ids]
    replicas = build_group(sim, network, machines, config, CoordinationService)

    client_machine = Machine(sim, "workers", cores=4)
    endpoint = Endpoint(sim, network, "workers")

    # bootstrap the parent node with a dedicated administrative client
    class MakeRoot(Workload):
        def setup_operations(self):
            return [(("create", "/workers", 0), 0)]

        def next_operation(self, request_index):
            return ("exists", "/workers"), 0

    admin = Client(endpoint, client_machine.allocate_thread("admin"), config, "admin", MakeRoot(), window=1)
    admin.start()
    # the parent must exist before any worker registers under it
    while not admin.completed:
        sim.run(until=sim.now + 1_000_000)

    workers = []
    for i in range(6):
        workload = WorkerRegistration(f"worker-{i}")
        worker = Client(
            endpoint, client_machine.allocate_thread(f"w{i}"), config, f"w{i}", workload, window=2
        )
        workers.append(worker)
        worker.start()

    sim.run(until=80_000_000)

    # stop issuing, let every request in flight complete, then give the
    # replicas time to apply the last instances before comparing them
    clients = [admin, *workers]
    for client in clients:
        client.stop()
    while any(client.outstanding for client in clients):
        sim.run(until=sim.now + 1_000_000)
    sim.run(until=sim.now + 50_000_000)

    total = sum(worker.completed for worker in workers)
    print(f"{len(workers)} workers completed {total} coordination operations")
    for worker in workers[:3]:
        print(f"  {worker.client_id}: {worker.completed} ops, "
              f"mean latency {worker.stats.mean_ms:.3f} ms")

    states = {str(replica.service.state_digestible()) for replica in replicas}
    assert len(states) == 1, "replicas diverged!"
    print("all replicas hold the identical namespace.")

    # read the membership from r0's namespace snapshot, without executing
    # an operation; every node is (data size, version, ((name, child), ...))
    root, _applied = replicas[0].service.snapshot()
    membership = [name for name, _node in dict(root[2])["workers"][2]]
    print(f"\nregistered workers (from r0's state machine): {membership}")
    assert membership == [f"worker-{i}" for i in range(6)], "a worker failed to register"

if __name__ == "__main__":
    main()
