"""The safety checker: replay merged traces, assert the paper's guarantees.

Input is a :class:`~repro.sim.tracing.Tracer` (in-memory from a sim run,
or merged from per-process JSONL exports of a live run) carrying:

* ``execute`` records — ``(view, order, batch_digest, keys)`` emitted by
  every replica's execution stage;
* ``counter-cert`` records — ``(counter_id, new_value)`` emitted by a
  pillar whenever its TrInX instance certifies a message;
* ``client-invoke`` / ``client-complete`` records — the client-observed
  start and end of each request, with operation and result.

Four independent properties are checked:

**Agreement.**  For every order number, all replicas that executed it
must have executed identical batch *content* (same digest).  This is the
property equivocation attacks — a leader proposing different requests to
different followers under the same order — would break.

**No double execution.**  A request (identified by its ``(client,
request id)`` key) must be executed at exactly one order number on any
replica.  This is what a view change must preserve for batches: a batch
that was half-assembled when the leader died may be re-proposed by the
new leader, but its member requests must never land at a second order —
that would apply a client operation twice.

**Certificate monotonicity.**  Within one ``(node, counter)`` stream,
certified counter values must be strictly increasing: TrInX counters
never repeat or go backwards, which is what makes the certificates
equivocation-proof.  A replayed or double-assigned value here means a
forged or reused certificate slipped through.

**Linearizability.**  For the KV service, every completed ``get`` must
return a value consistent with the real-time order of ``put``
operations: the value of some put that could linearize before the get,
not overwritten by a put that certainly linearized in between, and not
the initial value if a put certainly completed first.  The KV workload
writes unique values per key (request indices under per-client keys),
which makes the interval check exact.

Coordination-service reads get the same treatment: ``create``/``set``
are the writes (the written data size sits at ``operation[2]``, exactly
where a put's value lives), a ``get`` returning ``("ok", size,
version)`` must match some such write that could linearize before it,
and an ``("error", ...)`` result plays the initial-value role.  Paths
that are ever deleted are skipped — the workloads never delete, so this
only forgoes coverage on traces produced outside them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any

from repro.sim.tracing import Tracer

_INFINITY = float("inf")


@dataclass(frozen=True)
class SafetyViolation:
    """One concrete violation, with enough context to debug it."""

    kind: str  # "agreement" | "double-execution" | "counter" | "linearizability"
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


@dataclass
class SafetyReport:
    """Outcome of one checker run over a merged trace."""

    violations: list[SafetyViolation] = field(default_factory=list)
    orders_checked: int = 0
    requests_checked: int = 0
    certificates_checked: int = 0
    reads_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"safety {status}: {self.orders_checked} orders, "
            f"{self.requests_checked} executed requests, "
            f"{self.certificates_checked} certificates, "
            f"{self.reads_checked} reads checked"
        )

    def __str__(self) -> str:
        lines = [self.summary()]
        lines.extend(str(v) for v in self.violations)
        return "\n".join(lines)


def check_safety(tracer: Tracer) -> SafetyReport:
    """Run all four property checks over a merged trace."""
    report = SafetyReport()
    _check_agreement(tracer, report)
    _check_no_double_execution(tracer, report)
    _check_counter_monotonicity(tracer, report)
    _check_linearizability(tracer, report)
    return report


# ----------------------------------------------------------------------
# Agreement
# ----------------------------------------------------------------------
def _check_agreement(tracer: Tracer, report: SafetyReport) -> None:
    # order -> {replica: (digest, keys)}
    executions: dict[int, dict[str, tuple[str, Any]]] = {}
    for record in tracer.select(category="execute"):
        detail = _as_tuple(record.detail)
        if detail is None or len(detail) < 3:
            continue
        _view, order, digest = detail[0], int(detail[1]), detail[2]
        keys = detail[3] if len(detail) > 3 else None
        replica = record.node.split("/", 1)[0]
        per_order = executions.setdefault(order, {})
        if replica in per_order and per_order[replica][0] != digest:
            report.violations.append(
                SafetyViolation(
                    "agreement",
                    f"replica {replica} executed order {order} twice with "
                    f"different content ({per_order[replica][0]} vs {digest})",
                )
            )
        per_order[replica] = (digest, keys)

    report.orders_checked = len(executions)
    for order in sorted(executions):
        per_order = executions[order]
        digests = {digest for digest, _keys in per_order.values()}
        if len(digests) > 1:
            detail = ", ".join(
                f"{replica}={digest} {keys}"
                for replica, (digest, keys) in sorted(per_order.items())
            )
            report.violations.append(
                SafetyViolation(
                    "agreement",
                    f"replicas diverge at order {order}: {detail}",
                )
            )


# ----------------------------------------------------------------------
# No double execution
# ----------------------------------------------------------------------
def _check_no_double_execution(tracer: Tracer, report: SafetyReport) -> None:
    # (replica, request key) -> order where that request first executed
    first_order: dict[tuple[str, Any], int] = {}
    for record in tracer.select(category="execute"):
        detail = _as_tuple(record.detail)
        if detail is None or len(detail) < 4:
            continue  # legacy trace without batch keys: nothing to check
        order = int(detail[1])
        keys = _as_tuple(detail[3])
        if not isinstance(keys, tuple):
            continue
        replica = record.node.split("/", 1)[0]
        for key in keys:
            request = _hashable(key)
            previous = first_order.get((replica, request))
            if previous is None:
                first_order[(replica, request)] = order
                report.requests_checked += 1
            elif previous != order:
                report.violations.append(
                    SafetyViolation(
                        "double-execution",
                        f"replica {replica} executed request {request} at "
                        f"order {previous} and again at order {order}",
                    )
                )


# ----------------------------------------------------------------------
# Certificate monotonicity
# ----------------------------------------------------------------------
def _check_counter_monotonicity(tracer: Tracer, report: SafetyReport) -> None:
    # (node, counter_id) -> last certified value
    last_value: dict[tuple[str, Any], int] = {}
    for record in tracer.select(category="counter-cert"):
        detail = _as_tuple(record.detail)
        if detail is None or len(detail) < 2:
            continue
        counter_id, value = _hashable(detail[0]), int(detail[1])
        report.certificates_checked += 1
        key = (record.node, counter_id)
        previous = last_value.get(key)
        if previous is not None and value <= previous:
            report.violations.append(
                SafetyViolation(
                    "counter",
                    f"{record.node} certified counter {counter_id} value {value} "
                    f"after {previous} (reuse or decrease)",
                )
            )
        if previous is None or value > previous:
            last_value[key] = value


# ----------------------------------------------------------------------
# Linearizability (KV gets against put intervals)
# ----------------------------------------------------------------------
@dataclass
class _Op:
    client: str
    request_id: int
    operation: tuple
    invoke_ns: int
    complete_ns: float  # _INFINITY while pending
    result: Any = None


def _check_linearizability(tracer: Tracer, report: SafetyReport) -> None:
    invokes: dict[tuple[str, int], _Op] = {}
    completed: list[_Op] = []
    for record in tracer.records:
        if record.category == "client-invoke":
            detail = _as_tuple(record.detail)
            if detail is None or len(detail) < 3:
                continue
            client, request_id, operation = detail[0], int(detail[1]), _as_tuple(detail[2])
            if not isinstance(operation, tuple):
                continue  # null workload: nothing to check
            invokes[(client, request_id)] = _Op(
                client, request_id, operation, record.time_ns, _INFINITY
            )
        elif record.category == "client-complete":
            detail = _as_tuple(record.detail)
            if detail is None or len(detail) < 4:
                continue
            client, request_id = detail[0], int(detail[1])
            op = invokes.get((client, request_id))
            if op is None:
                operation = _as_tuple(detail[2])
                if not isinstance(operation, tuple):
                    continue
                # live traces may be truncated: synthesize a zero-length invoke
                op = _Op(client, request_id, operation, record.time_ns, _INFINITY)
                invokes[(client, request_id)] = op
            op.complete_ns = record.time_ns
            op.result = detail[3]
            completed.append(op)

    # Partition by key: writes (put, or create/set for the coordination
    # service) and reads (get), pending writes included as writes with an
    # open-ended interval (they may have taken effect).  Both write
    # families carry the written value at operation[2], so one interval
    # check serves both services.
    writes: dict[str, list[_Op]] = {}
    coord_writes: dict[str, list[_Op]] = {}
    deleted_paths: set[str] = set()
    reads: dict[str, list[_Op]] = {}
    for op in invokes.values():
        if not op.operation:
            continue
        verb = op.operation[0]
        if verb == "put" and len(op.operation) >= 3:
            writes.setdefault(str(op.operation[1]), []).append(op)
        elif verb in ("create", "set") and len(op.operation) >= 3:
            coord_writes.setdefault(str(op.operation[1]), []).append(op)
        elif verb == "delete" and len(op.operation) >= 2:
            deleted_paths.add(str(op.operation[1]))
        elif verb == "get" and len(op.operation) >= 2 and op.complete_ns is not _INFINITY:
            reads.setdefault(str(op.operation[1]), []).append(op)

    # (family, key) -> index over that key's writes, built on first read
    indexes: dict[tuple[str, str], _WriteIndex] = {}
    for key, key_reads in sorted(reads.items()):
        for read in sorted(key_reads, key=lambda op: op.invoke_ns):
            result = read.result
            if isinstance(result, tuple) and result and result[0] in ("ok", "error"):
                # coordination-service read: compare the returned data
                # size against the create/set history of the path
                if key in deleted_paths:
                    continue
                value = result[1] if result[0] == "ok" and len(result) >= 3 else None
                family, family_writes = "coord", coord_writes
            else:
                value = result
                family, family_writes = "kv", writes
            index = indexes.get((family, key))
            if index is None:
                index = indexes[(family, key)] = _WriteIndex(family_writes.get(key, []))
            report.reads_checked += 1
            violation = _explain_read(key, read, index, value)
            if violation is not None:
                report.violations.append(SafetyViolation("linearizability", violation))


class _WriteIndex:
    """One key's writes of one family, indexed so each read costs O(log n).

    Relies on every write being invoked no later than it completes, which
    holds for any trace in time order (``Tracer.merge`` sorts, and one
    process emits in order): so a write never counts as overwriting itself.
    """

    def __init__(self, writes: list[_Op]):
        self.writes = writes
        # hashable written value -> writes of it in trace order; None when
        # some written value has no usable hash
        self._by_value: dict[Any, list[_Op]] | None = {}
        for write in writes:
            written = _index_key(write.operation[2])
            if written is _UNINDEXABLE:
                self._by_value = None
                break
            self._by_value.setdefault(written, []).append(write)
        by_invoke = sorted(writes, key=lambda op: op.invoke_ns)
        self._invokes = [op.invoke_ns for op in by_invoke]
        # _suffix_min[i]: earliest completion among by_invoke[i:]
        completions = (op.complete_ns for op in reversed(by_invoke))
        self._suffix_min = list(accumulate(completions, min, initial=_INFINITY))[::-1]
        # _neg_prefix_max[i]: minus the earliest completion among writes[:i + 1]
        self._neg_prefix_max = list(accumulate((-op.complete_ns for op in writes), max))

    def first_completed_before(self, time_ns: int) -> _Op | None:
        """The first write, in trace order, that completed before ``time_ns``."""
        i = bisect_right(self._neg_prefix_max, -time_ns)
        return self.writes[i] if i < len(self.writes) else None

    def matching(self, value: Any) -> list[_Op]:
        """The writes of a value equal to ``value``."""
        if self._by_value is not None:
            key = _index_key(value)
            if key is not _UNINDEXABLE:
                return self._by_value.get(key, [])
        return [w for w in self.writes if _values_equal(w.operation[2], value)]

    def overwritten(self, write: _Op, before_ns: int) -> bool:
        """Whether a write invoked after ``write`` completed, completed before ``before_ns``."""
        return self._suffix_min[bisect_right(self._invokes, write.complete_ns)] < before_ns


def _explain_read(key: str, read: _Op, index: _WriteIndex, value: Any) -> str | None:
    """Return a violation description for ``read``, or None if legal."""
    if value is None:
        # the initial value: illegal once any put certainly completed first
        write = index.first_completed_before(read.invoke_ns)
        if write is None:
            return None
        return (
            f"get({key}) by {read.client}#{read.request_id} returned the "
            f"initial value, but {write.operation[0]}(...{write.operation[2]!r}) "
            f"by {write.client}#{write.request_id} completed before it started"
        )

    candidates = index.matching(value)
    if not candidates:
        return (
            f"get({key}) by {read.client}#{read.request_id} returned {value!r}, "
            f"which no write ever produced (phantom value)"
        )
    for write in candidates:
        if write.invoke_ns >= read.complete_ns:
            continue  # the write cannot linearize before this read
        if not index.overwritten(write, read.invoke_ns):
            return None
    return (
        f"get({key}) by {read.client}#{read.request_id} returned stale value "
        f"{value!r}: every matching put was overwritten before the get began "
        f"(or started after it ended)"
    )


# ----------------------------------------------------------------------
# Normalization: sim traces hold tuples, JSONL round-trips produce lists
# ----------------------------------------------------------------------
def _as_tuple(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        # recurse into containers only: trace details are mostly scalars
        return tuple([
            _as_tuple(item) if isinstance(item, (list, tuple)) else item for item in value
        ])
    return value


def _hashable(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    return value


def _values_equal(written: Any, observed: Any) -> bool:
    return _hashable(written) == _hashable(observed)


_UNINDEXABLE = object()


def _index_key(value: Any) -> Any:
    """``_hashable(value)`` as a dict key, or ``_UNINDEXABLE`` when a dict
    lookup could disagree with :func:`_values_equal`: no hash, or a value
    unequal to itself (NaN), which a dict still finds by identity."""
    try:
        key = _hashable(value)
        hash(key)
    except TypeError:
        return _UNINDEXABLE
    return key if key == key else _UNINDEXABLE
