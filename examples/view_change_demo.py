#!/usr/bin/env python3
"""Fault-tolerance demo: crash the leader, watch the view change.

Runs a HybsterX group under client load, partitions the leader replica
away mid-run, and shows the group electing a new leader (view 1) and
resuming service; after the partition heals, the old leader rejoins the
current view and catches up via state transfer.

Run with::

    python examples/view_change_demo.py
"""

from repro.clients.client import Client
from repro.clients.workload import NullWorkload
from repro.core.config import ReplicaGroupConfig
from repro.core.replica import build_group
from repro.services.counter import CounterService
from repro.chaos import Partition
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.process import Endpoint
from repro.sim.resources import Machine

MS = 1_000_000


def snapshot(label, replicas, clients):
    completed = sum(client.completed for client in clients)
    views = [replica.current_view for replica in replicas]
    progress = [replica.execution.next_order - 1 for replica in replicas]
    print(f"{label:>28}: completed={completed:6d} views={views} executed={progress}")
    return completed


def main():
    sim = Simulator()
    network = Network(sim)
    config = ReplicaGroupConfig(
        replica_ids=("r0", "r1", "r2"),
        num_pillars=2,
        checkpoint_interval=16,
        window_size=32,
    )
    machines = [Machine(sim, rid, cores=4) for rid in config.replica_ids]
    replicas = build_group(sim, network, machines, config, CounterService)

    client_machine = Machine(sim, "cl", cores=4)
    endpoint = Endpoint(sim, network, "cl")
    clients = [
        Client(endpoint, client_machine.allocate_thread(f"c{i}"), config, f"c{i}",
               NullWorkload(), window=2)
        for i in range(4)
    ]
    for client in clients:
        client.start()

    sim.run(until=300 * MS)
    before = snapshot("normal operation (t=300ms)", replicas, clients)

    print("\n*** crashing the leader r0 (network partition) ***\n")
    network.add_filter(Partition({"r0"}, start_ns=sim.now, end_ns=3_000 * MS))

    sim.run(until=2_000 * MS)
    after_crash = snapshot("after view change (t=2s)", replicas, clients)
    assert after_crash > before, "no progress after the view change!"
    assert any(replica.current_view >= 1 for replica in replicas[1:])

    print("\n*** partition heals at t=3s; r0 rejoins ***\n")
    sim.run(until=5_000 * MS)
    snapshot("after recovery (t=5s)", replicas, clients)

    # stop the load and let in-flight instances drain before comparing state
    for client in clients:
        client.stop()
    sim.run(until=6_000 * MS)

    r0 = replicas[0]
    print(f"\nr0 rejoined view {r0.current_view} "
          f"(view changes completed group-wide: "
          f"{[r.coordinator.view_changes_completed for r in replicas]})")
    assert r0.current_view >= 1, "the recovered replica never rejoined the view"
    live_states = {str(r.service.state_digestible()) for r in replicas[1:]}
    assert len(live_states) == 1, "live replicas diverged!"
    print("the two live replicas stayed consistent throughout; "
          "service never required r0.")


if __name__ == "__main__":
    main()
