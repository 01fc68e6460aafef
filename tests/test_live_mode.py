"""End-to-end live mode: a real Hybster group over localhost TCP.

This is the acceptance test for the live transport stack: three
``hybster-s`` replicas plus clients run as asyncio tasks in this process,
every inter-node message crosses a real socket as a codec frame, and at
least 100 requests complete with correct, matching replies.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.clients.workload import Workload
from repro.errors import ConfigurationError
from repro.runtime.deployment import DeploymentSpec
from repro.runtime.live import LiveKernel, build_live_deployment, live_directory
from repro.runtime.run import run

SECOND = 1_000_000_000


def test_live_hybster_s_completes_100_requests():
    spec = DeploymentSpec(
        protocol="hybster-s",
        cores=2,
        service="counter",
        num_clients=4,
        client_window=8,
        client_machines=1,
    )
    result = run(build_live_deployment(spec), duration_ns=30 * SECOND, requests=100)
    assert result.completed >= 100
    # counter replies are correct: every replica executed the same adds
    assert len(set(result.state_digests)) == 1
    executed = {stats["executed_requests"] for stats in result.replica_stats}
    assert min(executed) >= 100
    # messages genuinely crossed sockets
    assert result.bytes_sent > result.completed
    assert result.latency.count == result.completed
    assert result.latency.mean_ns > 0


def test_live_hybster_x_multiple_pillars_agree():
    spec = DeploymentSpec(
        protocol="hybster-x",
        cores=2,
        service="kv",
        num_clients=2,
        client_window=4,
        client_machines=1,
        checkpoint_interval=16,
        window_size=64,
    )
    result = run(build_live_deployment(spec), duration_ns=30 * SECOND, requests=60)
    assert result.completed >= 60
    assert len(set(result.state_digests)) == 1


class AddOneWorkload(Workload):
    """Every request is ("add", 1): result n for the n-th executed add."""

    def next_operation(self, request_index):
        return ("add", 1), 0


def test_live_counter_results_are_correct():
    """The reply the client accepts is the actual service result."""
    spec = DeploymentSpec(
        protocol="hybster-s",
        cores=2,
        service="counter",
        num_clients=1,
        client_window=1,
        client_machines=1,
        workload_factory=lambda client_id, index: AddOneWorkload(),
    )
    deployment = build_live_deployment(spec)
    run(deployment, duration_ns=20 * SECOND, requests=20)
    client = deployment.clients[0]
    assert client.completed >= 20
    # single client, window 1, counter service: results are 1, 2, 3, ...
    assert client.last_result == client.completed


def test_live_mode_rejects_simulator_only_protocols():
    with pytest.raises(ConfigurationError):
        build_live_deployment(DeploymentSpec(protocol="pbft"))


def test_live_directory_is_deterministic_across_processes():
    spec = DeploymentSpec(protocol="hybster-s", client_machines=2)
    first = live_directory(spec, base_port=47000)
    second = live_directory(spec, base_port=47000)
    assert first == second
    assert first["r0"] == ("127.0.0.1", 47000)
    assert first["r2"] == ("127.0.0.1", 47002)
    assert first["clients1"] == ("127.0.0.1", 47065)


def test_partial_deployment_builds_only_local_nodes():
    spec = DeploymentSpec(protocol="hybster-s", num_clients=2, client_machines=1)
    deployment = build_live_deployment(spec, base_port=47800, local_nodes=["r1"])
    assert [replica.replica_id for replica in deployment.replicas] == ["r1"]
    assert deployment.clients == []
    with pytest.raises(ConfigurationError):
        build_live_deployment(spec, local_nodes=["r9"])


def test_live_kernel_timers_fire_and_cancel():
    async def scenario():
        kernel = LiveKernel()
        fired = []
        kernel.schedule(1_000_000, fired.append, "a")  # 1 ms
        victim = kernel.schedule(2_000_000, fired.append, "b")
        kernel.cancel(victim)
        await asyncio.sleep(0.05)
        assert fired == ["a"]
        assert kernel.now > 0
        kernel.cancel_all()

    asyncio.run(scenario())
