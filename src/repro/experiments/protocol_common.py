"""Shared helpers for the protocol throughput/latency experiments."""

from __future__ import annotations

from repro.runtime.deployment import DeploymentSpec, build_deployment
from repro.runtime.run import RunResult, run
from repro.sim.tracing import NULL_TRACER, Tracer

MILLISECOND = 1_000_000

# Tracer every measure_point-built deployment emits into.  The experiments
# CLI installs a real tracer for --trace-out; default is the free no-op.
_trace_sink: Tracer = NULL_TRACER


def set_trace_sink(tracer: Tracer) -> None:
    """Route traces from subsequently built deployments to ``tracer``."""
    global _trace_sink
    _trace_sink = tracer

PROTOCOL_LABELS = {
    "hybster-x": "HybsterX",
    "hybster-s": "HybsterS",
    "hybrid-pbft": "HybridPBFT",
    "pbft": "PBFTcop",
    "minbft": "MinBFT",
}

# Saturation client counts per protocol, scaled by configuration.  The paper
# "configures a number of clients that saturates the system"; these were
# found empirically for the simulated testbed.
SATURATION_CLIENTS = {
    ("hybster-s", 1): (150, 8),
    ("hybster-x", 1): (400, 8),
    ("pbft", 1): (500, 8),
    ("hybrid-pbft", 1): (500, 8),
    ("minbft", 1): (150, 8),
    ("hybster-s", 16): (600, 16),
    ("hybster-x", 16): (2000, 32),
    ("pbft", 16): (2000, 32),
    ("hybrid-pbft", 16): (2000, 32),
    ("minbft", 16): (600, 16),
}


def measure_point(
    protocol: str,
    cores: int = 4,
    batch_size: int = 1,
    rotation: bool = True,
    num_clients: int | None = None,
    client_window: int | None = None,
    payload_size: int = 0,
    reply_payload_size: int = 0,
    service: str = "null",
    workload_factory=None,
    warmup_ns: int = 50 * MILLISECOND,
    measure_ns: int = 60 * MILLISECOND,
    load_factor: float = 1.0,
) -> RunResult:
    """Run one saturation (or fixed-load) benchmark point."""
    default_clients, default_window = SATURATION_CLIENTS[(protocol, 16 if batch_size > 1 else 1)]
    clients = num_clients if num_clients is not None else max(4, int(default_clients * load_factor))
    if client_window is not None:
        window = client_window
    else:
        # scale the per-client window with the load so low-load points are
        # genuinely low load (the paper's latency curves start near idle)
        window = max(1, int(round(default_window * min(1.0, load_factor * 2))))
    spec = DeploymentSpec(
        protocol=protocol,
        cores=cores,
        batch_size=batch_size,
        rotation=rotation,
        num_clients=clients,
        client_window=window,
        payload_size=payload_size,
        reply_payload_size=reply_payload_size,
        service=service,
        workload_factory=workload_factory,
    )
    deployment = build_deployment(spec, tracer=_trace_sink)
    return run(deployment, duration_ns=measure_ns, warmup_ns=warmup_ns)
