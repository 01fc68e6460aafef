"""``repro-gateway``: drive a gateway-fronted group with open-loop load.

Examples::

    # simulated: 1000 sessions, Poisson 5k ops/s, deterministic under --seed
    repro-gateway --mode sim --sessions 1000 --rate 5000 --duration-ms 500

    # live localhost TCP: coordination service, 90% reads, read leases on
    repro-gateway --mode live --service coordination --workload coordination \\
        --read-fraction 0.9 --read-lease-ms 50 --duration 5

    # bursty overload against a small admission queue (expect shedding)
    repro-gateway --mode sim --arrivals bursty --rate 20000 --queue 64

Prints the SLO report (goodput, p50/p99/p999 latency, shed/timeout
counts); ``--json`` additionally writes it to a file.  Exit status is 0
when the run completed work and met the optional ``--max-p99-ms`` bound.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.clients.workload import CoordinationWorkload, KeyValueWorkload
from repro.gateway.config import GatewayConfig
from repro.loadgen.arrivals import ARRIVAL_KINDS
from repro.runtime.deployment import CRYPTO_PROFILES, SERVICES, DeploymentSpec, build_deployment
from repro.runtime.live import LIVE_PROTOCOLS, build_live_deployment
from repro.runtime.run import MS, run
from repro.sim.rand import derive_seed

WORKLOADS = ("null", "kv", "coordination")


def _workload_factory(args: argparse.Namespace):
    if args.workload == "null":
        return None  # DeploymentSpec defaults to NullWorkload(payload_size)
    if args.workload == "kv":
        return lambda client_id, index: KeyValueWorkload(
            client_id,
            keys=args.keys,
            payload_size=args.payload_size,
            seed=derive_seed(args.seed, "workload", client_id),
        )
    return lambda client_id, index: CoordinationWorkload(
        client_id,
        args.read_fraction,
        node_size=args.node_size,
        nodes=args.nodes,
        seed=derive_seed(args.seed, "workload", client_id),
    )


def _spec_from_args(args: argparse.Namespace) -> DeploymentSpec:
    gateway = GatewayConfig(
        gateways=args.gateways,
        sessions=args.sessions,
        arrivals=args.arrivals,
        rate_ops=args.rate,
        on_ms=args.on_ms,
        off_ms=args.off_ms,
        period_ms=args.period_ms,
        peak_factor=args.peak_factor,
        queue_capacity=args.queue,
        max_outstanding=args.outstanding,
        request_timeout_ms=args.timeout_ms,
        max_retries=args.max_retries,
        read_lease_ms=args.read_lease_ms,
        sticky_pillars=not args.no_sticky_pillars,
        connection_pool=args.pool,
    )
    spec = DeploymentSpec(
        protocol=args.protocol,
        cores=args.cores,
        service=args.service,
        batch_size=args.batch_size,
        batch_linger_ns=args.batch_linger_us * 1_000,
        rotation=args.rotation,
        crypto_profile=args.crypto,
        num_clients=0,
        client_machines=1,
        payload_size=args.payload_size,
        checkpoint_interval=args.checkpoint_interval,
        window_size=args.window_size,
        seed=args.seed,
        gateway=gateway,
    )
    spec.workload_factory = _workload_factory(args)
    return spec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-gateway",
        description="Open-loop load through a client-multiplexing gateway tier",
    )
    parser.add_argument("--mode", choices=("sim", "live"), default="sim")
    parser.add_argument("--protocol", choices=LIVE_PROTOCOLS, default="hybster-x")
    parser.add_argument("--service", choices=sorted(SERVICES), default="counter")
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--batch-size", type=int, default=1)
    parser.add_argument("--batch-linger-us", type=int, default=0,
                        help="hold a partial batch this long under light load")
    parser.add_argument("--crypto", choices=CRYPTO_PROFILES, default="java",
                        help="crypto cost profile; 'real' times HMAC-SHA256 on this host")
    parser.add_argument("--rotation", action="store_true")
    parser.add_argument("--checkpoint-interval", type=int, default=128)
    parser.add_argument("--window-size", type=int, default=1024)
    # gateway tier
    parser.add_argument("--gateways", type=int, default=1)
    parser.add_argument("--sessions", type=int, default=200,
                        help="logical client sessions per gateway")
    parser.add_argument("--arrivals", choices=ARRIVAL_KINDS, default="poisson")
    parser.add_argument("--rate", type=float, default=2000.0,
                        help="aggregate arrival rate per gateway (ops/s)")
    parser.add_argument("--on-ms", type=float, default=50.0)
    parser.add_argument("--off-ms", type=float, default=50.0)
    parser.add_argument("--period-ms", type=float, default=1000.0)
    parser.add_argument("--peak-factor", type=float, default=3.0)
    parser.add_argument("--queue", type=int, default=1024,
                        help="admission queue capacity (overflow is shed)")
    parser.add_argument("--outstanding", type=int, default=64,
                        help="max in-flight requests toward the group")
    parser.add_argument("--timeout-ms", type=float, default=400.0)
    parser.add_argument("--max-retries", type=int, default=3)
    parser.add_argument("--read-lease-ms", type=float, default=0.0,
                        help="serve cached reads locally while the lease is fresh")
    parser.add_argument("--no-sticky-pillars", action="store_true",
                        help="disable per-session pillar affinity on the proposer")
    parser.add_argument("--pool", type=int, default=1,
                        help="live: parallel TCP connections per peer")
    # workload
    parser.add_argument("--workload", choices=WORKLOADS, default="null")
    parser.add_argument("--payload-size", type=int, default=0)
    parser.add_argument("--keys", type=int, default=16)
    parser.add_argument("--read-fraction", type=float, default=0.9)
    parser.add_argument("--node-size", type=int, default=128)
    parser.add_argument("--nodes", type=int, default=8)
    # run control
    parser.add_argument("--duration-ms", type=int, default=500,
                        help="sim: virtual-time run length")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="live: wall-clock run length in seconds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--base-port", type=int, default=0)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--json", default="", help="write the SLO report here")
    parser.add_argument("--min-completed", type=int, default=1)
    parser.add_argument("--max-p99-ms", type=float, default=None)
    args = parser.parse_args(argv)

    spec = _spec_from_args(args)
    if args.mode == "sim":
        result = run(build_deployment(spec), duration_ns=args.duration_ms * MS)
    else:
        deployment = build_live_deployment(spec, host=args.host, base_port=args.base_port)
        result = run(deployment, duration_ns=int(args.duration * 1e9))

    print(result)
    if args.json:
        report = {"protocol": result.protocol, "mode": result.mode,
                  "bytes_sent": result.bytes_sent, **result.slo.to_json()}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")

    if result.diverged:
        print("ERROR: replica states diverged", file=sys.stderr)
        return 2
    if result.slo.completed < args.min_completed:
        print(
            f"ERROR: only {result.slo.completed}/{args.min_completed} "
            "requests completed",
            file=sys.stderr,
        )
        return 1
    if args.max_p99_ms is not None and result.slo.latency.count:
        p99 = result.slo.latency.percentile_ms(99)
        if p99 > args.max_p99_ms:
            print(f"ERROR: p99 {p99:.3f} ms exceeds {args.max_p99_ms} ms", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
