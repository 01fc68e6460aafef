#!/usr/bin/env python3
"""Live quickstart: replicate a key-value store over real sockets.

The live twin of ``examples/quickstart.py``: the same three-replica
Hybster group and the same scripted key-value workload, but instead of
the discrete-event simulator, every replica and the client run as asyncio
tasks in this process and exchange codec-framed messages over localhost
TCP connections.

Run with::

    PYTHONPATH=src python examples/live_quickstart.py
"""

from repro.clients.workload import Workload
from repro.runtime.deployment import SERVICES, DeploymentSpec
from repro.runtime.live import build_live_deployment
from repro.runtime.run import run


class ScriptedWorkload(Workload):
    """Issues a fixed list of operations, then repeats reads."""

    def __init__(self, operations):
        self.operations = operations

    def next_operation(self, request_index):
        if request_index < len(self.operations):
            return self.operations[request_index], 0
        return ("get", "greeting"), 0


def main():
    # --- the cluster, from the same spec a benchmark would use -------------
    script = [
        ("put", "greeting", "hello, hybrid world"),
        ("put", "answer", 42),
        ("get", "answer"),
        ("keys",),
        ("get", "greeting"),
    ]
    spec = DeploymentSpec(
        protocol="hybster-x",
        cores=2,
        service="kv",
        num_clients=1,
        client_window=1,
        client_machines=1,
        checkpoint_interval=8,
        window_size=16,
        workload_factory=lambda client_id, index: ScriptedWorkload(script),
    )
    assert spec.service in SERVICES
    deployment = build_live_deployment(spec)  # base_port=0: OS-assigned ports

    # --- run: at most 10 s, stop once 20 requests completed ------------------
    result = run(deployment, duration_ns=10_000_000_000, requests=20)

    client = deployment.clients[0]
    print(f"client completed {result.completed} requests over TCP")
    print(f"last result: {client.last_result!r}")
    print(f"mean latency: {result.latency_ms:.3f} ms")
    print()
    print("replica agreement:")
    for replica in deployment.replicas:
        digest = replica.service.state_digestible()
        print(f"  {replica.replica_id}: view={replica.current_view} state={digest}")
    assert not result.diverged, "replicas diverged!"
    print(f"\nall replicas hold identical state — {result.bytes_sent} bytes crossed real sockets.")


if __name__ == "__main__":
    main()
