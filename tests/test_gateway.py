"""The gateway tier end to end: sim determinism, backpressure, leases,
live TCP, and the scenario-engine integrations it rides on.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.errors import ConfigurationError
from repro.gateway.config import GatewayConfig
from repro.runtime.deployment import DeploymentSpec, build_deployment
from repro.runtime.live import build_live_deployment
from repro.runtime.run import RunResult, run
from repro.sim.tracing import NULL_TRACER, Tracer

MS = 1_000_000
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec(**overrides) -> DeploymentSpec:
    gateway_fields = {
        f: overrides.pop(f)
        for f in (
            "sessions", "arrivals", "rate_ops", "on_ms", "off_ms",
            "queue_capacity", "max_outstanding", "request_timeout_ms",
            "max_retries", "read_lease_ms", "gateways",
        )
        if f in overrides
    }
    defaults = dict(
        protocol="hybster-x",
        cores=2,
        service="counter",
        num_clients=0,
        client_machines=1,
        seed=9,
    )
    defaults.update(overrides)
    return DeploymentSpec(
        gateway=GatewayConfig(
            sessions=gateway_fields.pop("sessions", 24),
            rate_ops=gateway_fields.pop("rate_ops", 2000.0),
            **gateway_fields,
        ),
        **defaults,
    )


def sim_run(spec: DeploymentSpec, duration_ms: int, tracer: Tracer = NULL_TRACER) -> RunResult:
    return run(build_deployment(spec, tracer=tracer), duration_ns=duration_ms * MS)


def live_run(spec: DeploymentSpec, duration_s: float) -> RunResult:
    deployment = build_live_deployment(spec)
    return run(deployment, duration_ns=int(duration_s * 1e9))


# ----------------------------------------------------------------------
# Sim end-to-end
# ----------------------------------------------------------------------
def test_sim_gateway_completes_and_replicas_agree():
    result = sim_run(_spec(), duration_ms=300)
    assert result.slo.completed > 100
    assert result.slo.failed == 0
    assert len(set(result.state_digests)) == 1
    # open loop: offered arrivals are independent of completions
    assert result.slo.offered >= result.slo.completed
    assert result.slo.latency.count == result.slo.completed


def test_sim_gateway_is_deterministic_under_seed():
    a = sim_run(_spec(seed=77), duration_ms=300)
    b = sim_run(_spec(seed=77), duration_ms=300)
    assert a.to_json() == b.to_json()
    c = sim_run(_spec(seed=78), duration_ms=300)
    assert a.to_json() != c.to_json()


def test_sim_gateway_latency_includes_queueing():
    # saturate a small window: latency must grow well past the
    # unloaded round trip because arrivals wait in the admission queue
    fast = sim_run(_spec(rate_ops=500.0), duration_ms=300)
    slow = sim_run(
        _spec(rate_ops=20000.0, max_outstanding=8, queue_capacity=4096),
        duration_ms=300,
    )
    assert slow.slo.latency.percentile_ms(50) > 3 * fast.slo.latency.percentile_ms(50)


def test_sim_gateway_sheds_at_saturation_but_stays_safe():
    result = sim_run(
        _spec(rate_ops=50000.0, queue_capacity=16, max_outstanding=8),
        duration_ms=300,
    )
    assert result.slo.shed > 0
    assert result.slo.shed_fraction > 0.5
    # everything admitted is accounted for; nothing vanished silently
    assert result.slo.offered == result.slo.admitted + result.slo.shed
    assert len(set(result.state_digests)) == 1


def test_sim_gateway_sessions_have_distinct_client_ids():
    spec = _spec(sessions=8)
    deployment = build_deployment(spec)
    gateway = deployment.gateways[0]
    ids = {session.client_id for session in gateway.sessions}
    assert len(ids) == 8
    assert all(id_.startswith("gw0:gateway/s") for id_ in ids)


def test_multiple_gateways_split_the_offered_load():
    result = sim_run(_spec(gateways=2, rate_ops=1000.0), duration_ms=300)
    assert result.slo.sessions == 48  # 24 sessions per gateway node
    # two nodes at 1000 ops/s each
    assert result.slo.offered_rate_ops == pytest.approx(2000.0, rel=0.15)


# ----------------------------------------------------------------------
# Read leases
# ----------------------------------------------------------------------
def _coordination_spec(read_lease_ms: float) -> DeploymentSpec:
    from repro.clients.workload import CoordinationWorkload
    from repro.sim.rand import derive_seed

    spec = _spec(
        service="coordination",
        sessions=12,
        rate_ops=3000.0,
        read_lease_ms=read_lease_ms,
    )
    spec.workload_factory = lambda client_id, index: CoordinationWorkload(
        client_id, 0.9, nodes=4, seed=derive_seed(spec.seed, "workload", client_id)
    )
    return spec


def test_read_leases_serve_reads_locally():
    leased = sim_run(_coordination_spec(read_lease_ms=50.0), duration_ms=300)
    unleased = sim_run(_coordination_spec(read_lease_ms=0.0), duration_ms=300)
    assert leased.slo.leased_reads > 100
    assert unleased.slo.leased_reads == 0
    # local reads skip replication entirely: fewer bytes hit the wire
    assert leased.bytes_sent < unleased.bytes_sent
    assert leased.slo.latency.percentile_ms(50) < unleased.slo.latency.percentile_ms(50)


def test_leased_reads_are_traced_separately():
    tracer = Tracer(
        enabled=True, categories={"client-complete", "gateway-local-read"}
    )
    sim_run(_coordination_spec(read_lease_ms=50.0), duration_ms=200, tracer=tracer)
    categories = {record.category for record in tracer.records}
    assert "gateway-local-read" in categories
    assert "client-complete" in categories


# ----------------------------------------------------------------------
# Live TCP
# ----------------------------------------------------------------------
def test_live_gateway_open_loop_smoke():
    result = live_run(
        _spec(protocol="hybster-s", sessions=16, rate_ops=400.0), duration_s=2.0
    )
    assert result.slo.completed > 50
    assert len(set(result.state_digests)) == 1
    assert result.bytes_sent > result.slo.completed


def test_live_gateway_connection_pool():
    spec = _spec(protocol="hybster-s", sessions=16, rate_ops=400.0)
    spec.gateway = GatewayConfig(
        sessions=16, rate_ops=400.0, connection_pool=3
    )
    result = live_run(spec, duration_s=2.0)
    assert result.slo.completed > 50
    assert len(set(result.state_digests)) == 1


# ----------------------------------------------------------------------
# Scenario-engine integration
# ----------------------------------------------------------------------
def test_gateway_scenario_toml_round_trip(tmp_path):
    from repro.scenarios.spec import load_scenario

    path = tmp_path / "gw.toml"
    path.write_text(
        """
name = "gw-test"
mode = "sim"
[deployment]
protocol = "hybster-x"
service = "kv"
cores = 2
[workload]
kind = "gateway"
sessions = 16
arrivals = "bursty"
rate_ops = 1234.0
queue_capacity = 64
[workload.inner]
kind = "kv"
keys = 4
[run]
duration_ms = 100
seed = 3
[pass]
max_p99_ms = 500.0
max_shed_fraction = 0.5
"""
    )
    spec = load_scenario(str(path))
    deployment_spec = spec.deployment_spec()
    assert deployment_spec.num_clients == 0
    assert deployment_spec.gateway.sessions == 16
    assert deployment_spec.gateway.arrivals == "bursty"
    assert deployment_spec.gateway.rate_ops == 1234.0
    assert spec.criteria.max_p99_ms == 500.0
    assert spec.criteria.max_shed_fraction == 0.5
    # the inner workload drives sessions, not direct clients
    workload = deployment_spec.make_workload("gw0:gateway/s0", 0)
    assert type(workload).__name__ == "KeyValueWorkload"


def test_gateway_scenario_runs_and_reports_slo_fields():
    from repro.scenarios.engine import run_scenario
    from repro.scenarios.spec import load_scenario

    spec = load_scenario(
        os.path.join(REPO_ROOT, "scenarios", "sim-hybster-x-gateway-openloop.toml")
    )
    result = run_scenario(spec)
    assert result.passed, result.failures or result.error
    assert result.p99_ms is not None
    assert result.p999_ms is not None
    assert result.shed_fraction is not None
    payload = result.to_json()
    assert payload["p99_ms"] >= payload["p50_ms"]


def test_unknown_gateway_workload_key_rejected(tmp_path):
    from repro.scenarios.spec import load_scenario

    path = tmp_path / "bad.toml"
    path.write_text(
        """
name = "bad"
[workload]
kind = "gateway"
sesions = 16
"""
    )
    spec = load_scenario(str(path))
    with pytest.raises(ConfigurationError):
        spec.deployment_spec()


# ----------------------------------------------------------------------
# Process-per-node live scenarios (one OS process per node)
# ----------------------------------------------------------------------
def test_live_scenario_with_one_process_per_replica(tmp_path):
    from repro.scenarios.engine import run_scenario
    from repro.scenarios.spec import load_scenario

    src = os.path.join(REPO_ROOT, "scenarios", "live-hybster-s-processes-loss.toml")
    with open(src, encoding="utf-8") as fh:
        text = fh.read()
    # shrink the committed scenario to test scale; the completion floor
    # is generous because a loaded CI box slows child-process start-up
    text = text.replace("duration_ms = 15000", "duration_ms = 10000")
    text = text.replace("requests = 200", "requests = 60")
    text = text.replace("min_completed = 150", "min_completed = 20")
    path = tmp_path / "processes.toml"
    path.write_text(text)

    spec = load_scenario(str(path))
    assert spec.processes
    result = run_scenario(spec, trace_out=str(tmp_path / "trace.jsonl"))
    assert result.error is None
    assert result.passed, result.failures
    assert result.completed >= 20
    assert result.safety.ok
    # the merged trace really came from multiple processes
    merged = Tracer.load_jsonl(str(tmp_path / "trace.jsonl"))
    nodes = {
        record.node.split("/")[0]
        for record in merged.records
        if record.category == "execute"
    }
    assert nodes == {"r0", "r1", "r2"}


def test_livenode_cli_runs_one_node():
    # a replica-only child exits cleanly on SIGTERM and reports its state
    import signal
    import time

    from repro.scenarios.livenode import find_base_port
    from repro.scenarios.spec import load_scenario

    spec_path = os.path.join(
        REPO_ROOT, "scenarios", "live-hybster-s-processes-loss.toml"
    )
    base_port = find_base_port(load_scenario(spec_path).deployment_spec())
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    child = subprocess.Popen(
        [
            sys.executable, "-m", "repro.scenarios.livenode",
            "--spec", spec_path, "--node", "r0", "--base-port", str(base_port),
        ],
        stdout=subprocess.PIPE,
        env=env,
        cwd=REPO_ROOT,
    )
    time.sleep(1.5)
    child.send_signal(signal.SIGTERM)
    out, _ = child.communicate(timeout=15)
    assert child.returncode == 0
    report = json.loads(out.decode())
    assert report["node"] == "r0"
    assert report["completed"] == 0  # replicas host no workload
