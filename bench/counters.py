"""Group A of the per-layer ledger: the program's own public counters.

``snapshot`` reads them from a built deployment (simulated or live — the
attribute names are the same); the difference of two snapshots around a
window, divided by the requests completed in it, gives the per-request
numbers.  Thread busy time is wall-clock in live mode (``LiveThread``)
and modelled time in the simulator (``SimThread``), so the caller files
it under ``core.*`` or ``model.*`` accordingly.
"""

from __future__ import annotations

from typing import Any

STAGE_GROUPS = ("pillar", "handler", "exec", "replier", "clients", "gateway")


def _threads_by_group(deployment: Any) -> dict[str, list]:
    groups: dict[str, dict[int, Any]] = {group: {} for group in STAGE_GROUPS}
    for replica in deployment.replicas:
        for thread in replica.machine.threads:
            # "r0/pillar1" -> "pillar".  On an oversubscribed simulated
            # machine stages share threads and the time is filed under
            # the first stage placed there.
            group = thread.name.rsplit("/", 1)[-1].rstrip("0123456789")
            if group in groups:
                groups[group][id(thread)] = thread
    for client in deployment.clients:
        groups["clients"][id(client.thread)] = client.thread
    for gateway in deployment.gateways:
        groups["gateway"][id(gateway.thread)] = gateway.thread
    return {group: list(threads.values()) for group, threads in groups.items()}


def snapshot(deployment: Any) -> dict[str, float]:
    """Cumulative counters of ``deployment`` right now."""
    counters: dict[str, float] = {}
    handlers = errors = 0
    for group, threads in _threads_by_group(deployment).items():
        counters[f"busy_ns.{group}"] = sum(thread.busy_ns for thread in threads)
        handlers += sum(thread.handlers_run for thread in threads)
        errors += sum(getattr(thread, "handler_errors", 0) for thread in threads)
    counters["handlers_run"] = handlers
    counters["handler_errors"] = errors

    stats = [replica.stats() for replica in deployment.replicas]
    for key in ("executed_requests", "executed_instances", "enclave_calls"):
        counters[key] = sum(entry[key] for entry in stats)
    counters["view_changes"] = max(entry["view_changes_completed"] for entry in stats)
    counters["retries"] = sum(client.retries for client in deployment.clients)
    counters["completed"] = deployment.total_completed()

    transport = getattr(deployment, "transport", None) or deployment.network
    nodes = [replica.replica_id for replica in deployment.replicas]
    nodes += sorted({client.endpoint.node for client in deployment.clients})
    nodes += [gateway.endpoint.node for gateway in deployment.gateways]
    interfaces = [transport.interface(node) for node in nodes]
    counters["bytes_sent"] = sum(interface.bytes_sent for interface in interfaces)
    # per-node frame and error counters exist on the live transport only
    counters["frames_sent"] = sum(getattr(i, "messages_sent", 0) for i in interfaces)
    counters["send_queue_drops"] = sum(getattr(i, "send_queue_drops", 0) for i in interfaces)
    counters["decode_errors"] = sum(getattr(i, "decode_errors", 0) for i in interfaces)
    # The only non-public read of the benchmark: reconnect counts live on
    # the PeerConnection objects, which TcpTransport keeps in `_peers`.
    pools = getattr(transport, "_peers", {})
    counters["reconnects"] = sum(
        peer.stats.reconnects for pool in pools.values() for peer in pool
    )
    return counters


def delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before[key] for key in after}
