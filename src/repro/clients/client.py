"""The benchmark client.

Each client keeps ``window`` asynchronous requests in flight (the paper's
"bounded number of asynchronous requests"), sends them to the replica
that will propose them, accepts a result once f+1 replies from distinct
replicas match, and measures the time from send to acceptance.

Clients are stages on dedicated client machines; several clients share a
machine (and its NICs), so reply incast and client-side MAC costs are
modelled faithfully.  A client's network identity is its machine — the
``client_id`` embeds ``node:stage`` so replicas can address replies.

On timeout a client re-multicasts the request to the whole group, which
is what arms the followers' leader-suspicion timers (paper Figure 3,
step 3).
"""

from __future__ import annotations

from typing import Any

from repro.core.config import ReplicaGroupConfig
from repro.clients.stats import LatencyStats
from repro.clients.workload import Workload
from repro.crypto.provider import CryptoProvider
from repro.messages.client import Reply, Request, RequestBurst
from repro.sim.process import Address, Endpoint, Stage
from repro.sim.resources import SimThread

DEFAULT_CLIENT_TIMEOUT_NS = 400_000_000  # 400 ms before re-multicasting


class _Pending:
    __slots__ = ("request", "sent_at", "votes", "timer")

    def __init__(self, request: Request, sent_at: int, timer):
        self.request = request
        self.sent_at = sent_at
        self.votes: dict[str, Any] = {}
        self.timer = timer


class Client(Stage):
    """A closed-loop benchmark client with a bounded in-flight window."""

    def __init__(
        self,
        endpoint: Endpoint,
        thread: SimThread,
        config: ReplicaGroupConfig,
        name: str,
        workload: Workload,
        window: int = 1,
        crypto: CryptoProvider | None = None,
        timeout_ns: int = DEFAULT_CLIENT_TIMEOUT_NS,
    ):
        super().__init__(endpoint, thread, name)
        self.config = config
        self.client_id = f"{endpoint.node}:{name}"
        self.workload = workload
        self.window = window
        self.crypto = crypto or CryptoProvider()
        self.timeout_ns = timeout_ns

        self.current_view = 0
        self.next_request_id = 0
        self.outstanding: dict[int, _Pending] = {}
        self.completed = 0
        self.stats = LatencyStats()
        self.retries = 0
        self.last_result: Any = None
        self._stopped = False
        self._setup_queue = list(workload.setup_operations())
        self._in_setup = bool(self._setup_queue)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin issuing requests (setup operations first, one at a time)."""
        if self._in_setup:
            operation, payload = self._setup_queue.pop(0)
            self._issue(operation, payload)
        else:
            self._fill_window()

    def stop(self) -> None:
        """Stop issuing new requests; outstanding ones still complete."""
        self._stopped = True

    def _fill_window(self) -> None:
        burst: list[Request] = []
        while not self._stopped and len(self.outstanding) < self.window:
            operation, payload = self.workload.next_operation(self.next_request_id)
            burst.append(self._prepare_request(operation, payload))
        if not burst:
            return
        target = self.config.proposer_replica_for_client(self.client_id, self.current_view)
        if len(burst) == 1:
            self.send((target, "handler"), burst[0])
        else:
            self.send((target, "handler"), RequestBurst(tuple(burst)))

    def _prepare_request(self, operation: Any, payload_size: int) -> Request:
        request_id = self.next_request_id
        self.next_request_id += 1
        bare = Request(self.client_id, request_id, operation, payload_size)
        mac = self.crypto.compute_mac(b"client-session", bare.digestible(), size_hint=32)
        request = Request(self.client_id, request_id, operation, payload_size, mac)
        timer = self.set_timer(self.timeout_ns, self._on_timeout, request_id)
        self.outstanding[request_id] = _Pending(request, self.now, timer)
        self.trace("client-invoke", (self.client_id, request_id, operation))
        return request

    def _issue(self, operation: Any, payload_size: int) -> None:
        request = self._prepare_request(operation, payload_size)
        target = self.config.proposer_replica_for_client(self.client_id, self.current_view)
        self.send((target, "handler"), request)

    def _on_timeout(self, request_id: int) -> None:
        pending = self.outstanding.get(request_id)
        if pending is None:
            return
        # no reply in time: the leader may be faulty — multicast to everyone
        self.retries += 1
        for replica_id in self.config.replica_ids:
            self.send((replica_id, "handler"), pending.request)
        pending.timer = self.set_timer(self.timeout_ns, self._on_timeout, request_id)

    # ------------------------------------------------------------------
    def on_message(self, src: Address, message: Any) -> None:
        if not isinstance(message, Reply):
            return
        pending = self.outstanding.get(message.request_id)
        if pending is None:
            return
        # the modelled cost of one MAC verification per reply (the
        # computed MAC is not compared)
        self.crypto.compute_mac(b"client-session", message.digestible(), size_hint=32)
        if message.view > self.current_view:
            self.current_view = message.view
        pending.votes[message.replica_id] = message.match_key
        matching = sum(
            1 for key in pending.votes.values() if key == message.match_key
        )
        if matching >= self.config.f + 1:
            self._complete(message.request_id, pending, message.result)

    def _complete(self, request_id: int, pending: _Pending, result: Any) -> None:
        del self.outstanding[request_id]
        self.cancel_timer(pending.timer)
        self.completed += 1
        self.last_result = result
        self.stats.record(self.now - pending.sent_at)
        # Invoke/complete pairs give the safety checker real-time intervals
        # for the linearizability analysis (repro.scenarios.safety).
        self.trace(
            "client-complete",
            (self.client_id, request_id, pending.request.operation, result),
        )
        if self._in_setup:
            if self._setup_queue:
                operation, payload = self._setup_queue.pop(0)
                self._issue(operation, payload)
            else:
                self._in_setup = False
                self._fill_window()
        else:
            self._fill_window()

