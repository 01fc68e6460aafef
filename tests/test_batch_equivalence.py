"""Batching must be invisible to clients and to the executed history.

The same seeded workload is run at ``batch_size`` 1 and 16, in the
simulator and over live localhost sockets.  Whatever the batch size and
runtime, the protocol must execute each client's requests in FIFO order
without loss or duplication, return the same reply values, and keep all
replicas agreed — batching changes *how many* requests share an order
number, never *what* gets executed.

Where a run is fully deterministic (the simulator; single-request
batches, whose per-order content does not depend on arrival timing) the
comparison is exact down to order numbers and batch digests.  Where it
cannot be (live batch assembly depends on wall-clock reply timing) the
comparison drops to the client-observable level: executed request
sequence and reply values.
"""

from __future__ import annotations

import pytest

from repro.clients.workload import KeyValueWorkload
from repro.runtime.deployment import DeploymentSpec, build_deployment
from repro.runtime.live import build_live_deployment
from repro.runtime.run import run
from repro.scenarios.engine import TRACE_CATEGORIES
from repro.scenarios.safety import check_safety
from repro.sim.tracing import Tracer

MS = 1_000_000


def _spec(batch_size: int) -> DeploymentSpec:
    return DeploymentSpec(
        protocol="hybster-s",
        cores=2,
        service="kv",
        batch_size=batch_size,
        num_clients=1,
        client_window=16,
        client_machines=1,
        checkpoint_interval=32,
        window_size=64,
        seed=7,
        workload_factory=lambda client_id, index: KeyValueWorkload(
            client_id, keys=8, seed=11
        ),
    )


def _run(build, batch_size: int, target: int, limit_ms: int) -> Tracer:
    tracer = Tracer(enabled=True, categories=TRACE_CATEGORIES)
    result = run(build(_spec(batch_size), tracer=tracer), duration_ns=limit_ms * MS, requests=target)
    assert result.completed >= target, f"{result.mode} run did not reach the target"
    assert not result.diverged
    return tracer


def _sim_trace(batch_size: int, target: int) -> Tracer:
    return _run(build_deployment, batch_size, target, limit_ms=5_000)


def _live_trace(batch_size: int, target: int) -> Tracer:
    return _run(build_live_deployment, batch_size, target, limit_ms=60_000)


# ----------------------------------------------------------------------
# Trace projections
# ----------------------------------------------------------------------
def _orders(trace: Tracer, replica: str) -> dict[int, tuple[str, tuple]]:
    """order -> (batch digest, executed request keys) for one replica."""
    orders: dict[int, tuple[str, tuple]] = {}
    for record in trace.select(category="execute"):
        if record.node.split("/", 1)[0] != replica:
            continue
        _view, order, digest, keys = record.detail
        orders[int(order)] = (digest, tuple(tuple(key) for key in keys))
    return orders


def _executed_requests(trace: Tracer, replica: str) -> list[tuple]:
    """Request keys in execution order (order-number sequence) on a replica."""
    orders = _orders(trace, replica)
    return [key for order in sorted(orders) for key in orders[order][1]]


def _results(trace: Tracer) -> dict[int, object]:
    """request_id -> accepted reply value for the (single) client."""
    results: dict[int, object] = {}
    for record in trace.select(category="client-complete"):
        _client, request_id, _operation, result = record.detail
        results[int(request_id)] = result
    return results


def _assert_fifo_no_loss_no_dupes(trace: Tracer) -> None:
    for replica in ("r0", "r1", "r2"):
        executed = _executed_requests(trace, replica)
        if not executed:
            continue
        ids = [request_id for _client, request_id in executed]
        assert ids == sorted(set(ids)), f"{replica} executed out of order or twice"
        assert ids[0] == 0 and ids == list(range(len(ids))), f"{replica} lost a request"


# ----------------------------------------------------------------------
# Simulator: batch size 1 vs 16 — exact equivalence
# ----------------------------------------------------------------------
def test_sim_batch_sizes_execute_identical_histories():
    target = 400
    thin = _sim_trace(1, target)
    fat = _sim_trace(16, target)

    for trace in (thin, fat):
        assert check_safety(trace).ok
        _assert_fifo_no_loss_no_dupes(trace)

    # batching actually happened — and only where configured
    assert all(len(keys) == 1 for _d, keys in _orders(thin, "r0").values())
    assert max(len(keys) for _d, keys in _orders(fat, "r0").values()) > 1

    # the executed request sequence is identical, order numbers aside
    common = min(target, len(_executed_requests(thin, "r0")), len(_executed_requests(fat, "r0")))
    assert (
        _executed_requests(thin, "r0")[:common]
        == _executed_requests(fat, "r0")[:common]
    )

    # and so is every reply value the client accepted
    thin_results, fat_results = _results(thin), _results(fat)
    shared = sorted(set(thin_results) & set(fat_results))
    assert len(shared) >= target
    for request_id in shared:
        assert thin_results[request_id] == fat_results[request_id], f"request {request_id}"


# ----------------------------------------------------------------------
# Simulator vs live sockets — same history at each batch size
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batch_size", [1, 16])
def test_sim_and_live_agree_on_executed_history(batch_size):
    target = 120
    sim = _sim_trace(batch_size, target)
    live = _live_trace(batch_size, target)

    for trace in (sim, live):
        assert check_safety(trace).ok
        _assert_fifo_no_loss_no_dupes(trace)

    common = min(len(_executed_requests(sim, "r0")), len(_executed_requests(live, "r0")))
    assert common >= target
    assert (
        _executed_requests(sim, "r0")[:common]
        == _executed_requests(live, "r0")[:common]
    )

    sim_results, live_results = _results(sim), _results(live)
    shared = sorted(set(sim_results) & set(live_results))
    assert len(shared) >= target
    for request_id in shared:
        assert sim_results[request_id] == live_results[request_id], f"request {request_id}"

    if batch_size == 1:
        # one request per order: batch assembly cannot depend on timing,
        # so order numbers and batch digests must match exactly too
        sim_orders, live_orders = _orders(sim, "r0"), _orders(live, "r0")
        for order in sorted(set(sim_orders) & set(live_orders)):
            assert sim_orders[order] == live_orders[order], f"order {order}"
