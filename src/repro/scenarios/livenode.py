"""Process-per-node scenario execution.

The in-process live path hosts the whole group on one event loop, which
keeps things simple but means a Python-level stall in one replica stalls
them all.  This module runs a live scenario with **one OS process per
node**: the parent spawns a child per replica, client machine, and
gateway node, each child builds only its share of the deployment
(``local_nodes=[node]``) from the *same scenario file and seed*, and the
group talks over real localhost TCP.

Chaos still works: every child installs the scenario's full filter chain
on its own transport.  Filters decide on the *send* path and every
message is sent by exactly one process, so the *set* of chaos decisions
partitions cleanly across processes — each filter instance only ever
sees the traffic its process originates.  (Random filters draw from
per-process streams, so a multi-process run is not bit-identical to the
in-process one; the statistical fault load is the same.)

Each child runs its share with the one driver
(:func:`repro.runtime.run.run_async`) and prints its
:class:`~repro.runtime.run.RunResult` as JSON — latency reservoir
included, since percentiles do not compose — and the parent merges them.
Safety checking is unchanged: each child writes its trace shard, the
parent merges the shards — the checker orders records by content, not
wall clock — and the engine runs the same
:func:`~repro.scenarios.safety.check_safety` over the merged trace.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import signal
import socket
import sys
import tempfile

from repro.errors import ConfigurationError
from repro.runtime.deployment import _replica_ids
from repro.runtime.live import live_directory
from repro.runtime.run import MS, RunResult
from repro.sim.tracing import NULL_TRACER, Tracer

# Scan for a free, contiguous port block starting here; stride past the
# whole node layout (see live_directory) between candidates.
PORT_SCAN_START = 47200
PORT_SCAN_STRIDE = 128
PORT_SCAN_END = 60000
# Replicas serve until the parent signals them; if no signal comes, they
# stop by themselves this long after the scenario's duration.
REPLICA_GRACE_MS = 20_000


def find_base_port(spec) -> int:
    """First base port whose whole node layout binds cleanly right now."""
    for base in range(PORT_SCAN_START, PORT_SCAN_END, PORT_SCAN_STRIDE):
        if all(_bindable(port) for _, port in live_directory(spec, base_port=base).values()):
            return base
    raise ConfigurationError("no free port block found for a process-per-node run")


def _bindable(port: int) -> bool:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind(("127.0.0.1", port))
        except OSError:
            return False
    return True


# ----------------------------------------------------------------------
# Child: run one node of the scenario
# ----------------------------------------------------------------------
async def _child_amain(args: argparse.Namespace) -> int:
    from repro.runtime.live import build_live_deployment
    from repro.scenarios.engine import TRACE_CATEGORIES, run_live_scenario
    from repro.scenarios.spec import load_scenario

    spec = load_scenario(args.spec)
    seed = args.seed if args.seed is not None else spec.seed
    deployment_spec = spec.deployment_spec(seed)
    tracer = Tracer(enabled=True, categories=TRACE_CATEGORIES) if args.trace_out else NULL_TRACER
    deployment = build_live_deployment(
        deployment_spec,
        tracer=tracer,
        host=args.host,
        base_port=args.base_port,
        local_nodes=[args.node],
    )

    # the parent stops replica children with SIGTERM; the run then ends
    # normally, so the trace shard and the result still get written
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, stop.set)

    duration_ms = spec.duration_ms
    if not (deployment.clients or deployment.gateways):
        duration_ms += REPLICA_GRACE_MS
    result = await run_live_scenario(
        spec, deployment, seed, duration_ns=duration_ms * MS, stop=stop
    )
    if args.trace_out:
        tracer.write_jsonl(f"{args.trace_out}.{args.node}.jsonl")
    print(json.dumps({"node": args.node, **result.to_json()}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.scenarios.livenode",
        description="Run one node of a live scenario in this OS process",
    )
    parser.add_argument("--spec", required=True, help="scenario TOML file")
    parser.add_argument("--node", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--base-port", type=int, required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)
    return asyncio.run(_child_amain(args))


# ----------------------------------------------------------------------
# Parent: orchestrate the whole group
# ----------------------------------------------------------------------
async def run_scenario_processes(
    spec, seed_override: int | None = None
) -> tuple[RunResult, Tracer]:
    """Run a live scenario with one OS process per node.

    Returns the children's merged result and their merged trace; the
    engine evaluates them against the same pass criteria as in-process
    runs.
    """
    if not spec.path or not os.path.exists(spec.path):
        raise ConfigurationError(
            "process-per-node scenarios need the scenario file on disk "
            "(spec.path is how child processes rebuild the run)"
        )
    deployment_spec = spec.deployment_spec(seed_override)
    base_port = find_base_port(deployment_spec)
    replica_nodes = list(_replica_ids(deployment_spec.protocol))
    workload_nodes = [
        f"clients{j}"
        for j in range(deployment_spec.client_machines)
        if deployment_spec.num_clients
    ] + list(deployment_spec.gateway_nodes())
    seed = spec.seed if seed_override is None else seed_override
    result = RunResult(protocol=deployment_spec.protocol, mode="live")

    with tempfile.TemporaryDirectory(prefix="repro-scenario-") as tmpdir:
        trace_prefix = os.path.join(tmpdir, "trace")
        children: dict[str, asyncio.subprocess.Process] = {}
        reports: list[str] = []
        try:
            for node in replica_nodes + workload_nodes:
                children[node] = await asyncio.create_subprocess_exec(
                    sys.executable, "-m", "repro.scenarios.livenode",
                    "--spec", spec.path, "--node", node,
                    "--seed", str(seed), "--base-port", str(base_port),
                    "--trace-out", trace_prefix,
                    stdout=asyncio.subprocess.PIPE,
                )
            # workload children stop themselves at the duration / request
            # target; replicas serve until we signal them below
            for node in workload_nodes:
                raw, _ = await asyncio.wait_for(
                    children[node].communicate(),
                    timeout=spec.duration_ms / 1_000.0 + 15,
                )
                reports.append(raw.decode())
            for node in replica_nodes:
                if children[node].returncode is None:
                    children[node].terminate()
            for node in replica_nodes:
                raw, _ = await asyncio.wait_for(children[node].communicate(), timeout=10)
                reports.append(raw.decode())
        finally:
            for child in children.values():
                if child.returncode is None:
                    child.terminate()
            for child in children.values():
                if child.returncode is None:
                    try:
                        await asyncio.wait_for(child.wait(), timeout=5)
                    except asyncio.TimeoutError:
                        child.kill()

        for report in reports:
            if report.strip():
                result.merge(RunResult.from_json(json.loads(report)))
        shards = [
            Tracer.load_jsonl(f"{trace_prefix}.{node}.jsonl")
            for node in replica_nodes + workload_nodes
            if os.path.exists(f"{trace_prefix}.{node}.jsonl")
        ]
    return result, (Tracer.merge(*shards) if shards else Tracer(enabled=True))


if __name__ == "__main__":  # pragma: no cover - child-process entry
    sys.exit(main())
