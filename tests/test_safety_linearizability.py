"""The indexed linearizability check against the brute-force one it replaced.

``_check_linearizability`` explains each read through a per-(key, write
family) index: a value map, and the writes sorted by invoke time with a
suffix minimum of completion times.  The original ``_explain_read``
scanned every write of the key for every read; it is kept here as the
oracle, and random KV and coordination-service histories must yield the
same violations, kind and detail text, from both.
"""

from __future__ import annotations

from typing import Any
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.scenarios import safety
from repro.scenarios.safety import SafetyReport, _values_equal
from repro.sim.tracing import Tracer


def brute_force_explain_read(key: str, read: Any, writes: list, value: Any) -> str | None:
    """The linear-scan ``_explain_read`` the index replaced (the oracle)."""
    if value is None:
        for write in writes:
            if write.complete_ns < read.invoke_ns:
                return (
                    f"get({key}) by {read.client}#{read.request_id} returned the "
                    f"initial value, but {write.operation[0]}(...{write.operation[2]!r}) "
                    f"by {write.client}#{write.request_id} completed before it started"
                )
        return None

    candidates = [w for w in writes if _values_equal(w.operation[2], value)]
    if not candidates:
        return (
            f"get({key}) by {read.client}#{read.request_id} returned {value!r}, "
            f"which no write ever produced (phantom value)"
        )
    for write in candidates:
        if write.invoke_ns >= read.complete_ns:
            continue
        overwritten = any(
            other is not write
            and other.invoke_ns > write.complete_ns
            and other.complete_ns < read.invoke_ns
            for other in writes
        )
        if not overwritten:
            return None
    return (
        f"get({key}) by {read.client}#{read.request_id} returned stale value "
        f"{value!r}: every matching put was overwritten before the get began "
        f"(or started after it ended)"
    )


NAN = float("nan")
# duplicates across types (1, True, 1.0), containers that normalize alike
# ((1, 2) and [1, 2]), a set that has no hash but equals a frozenset, and
# one NaN object, which a dict would find by identity but == never matches
VALUES = [1, 2, 3, True, 1.0, "x", (1, 2), [1, 2], {"a": 1}, frozenset({5}), {5}, NAN]
# weighted towards puts and reads of one key, so reads meet their writes;
# a delete exempts the path's coordination reads, so it is rare
VERBS = ["put"] * 4 + ["get"] * 4 + ["create", "set"] * 2 + ["coord-get"] * 3 + ["delete"]
KEYS = ["k0", "k0", "k1"]

ops = st.tuples(
    st.integers(0, 2),  # client
    st.sampled_from(VERBS),
    st.sampled_from(KEYS),
    st.sampled_from(VALUES),  # the value a write writes
    st.integers(0, 60),  # invoke time
    st.one_of(st.none(), st.integers(0, 25)),  # duration; None: still pending
    st.one_of(st.none(), st.integers(0, 30)),  # a read returns the value of
    # this op in the list (mostly a written one), None: the initial value
    st.booleans(),  # complete record only: the checker synthesizes the invoke
)


def _history(specs: list[tuple]) -> Tracer:
    records = []
    for request_id, (client, verb, key, value, start, duration, source, bare) in enumerate(specs):
        read = None if source is None else specs[source % len(specs)][3]
        if verb in ("put", "create", "set"):
            operation, result = (verb, key, value), None
        elif verb == "delete":
            operation, result = ("delete", key), ("ok",)
        elif verb == "get":
            operation, result = ("get", key), read
        else:  # coordination read: ("ok", size, version) or an error
            operation = ("get", key)
            result = ("error", "no-node") if source is None else ("ok", read, 1)
        node = f"clients0/c{client}"
        if not (bare and duration is not None):
            records.append((start, node, "client-invoke", (f"c{client}", request_id, operation)))
        if duration is not None:
            records.append((
                start + duration, node, "client-complete",
                (f"c{client}", request_id, operation, result),
            ))
    records.sort(key=lambda record: record[0])  # time order, as Tracer.merge leaves it
    tracer = Tracer(enabled=True)
    for time_ns, node, category, detail in records:
        tracer.emit(time_ns, node, category, detail)
    return tracer


def _check(tracer: Tracer) -> SafetyReport:
    report = SafetyReport()
    safety._check_linearizability(tracer, report)
    return report


@settings(max_examples=500, deadline=None)
@given(st.lists(ops, min_size=8, max_size=30))
def test_indexed_check_matches_brute_force(specs):
    tracer = _history(specs)
    indexed = _check(tracer)
    with mock.patch.object(
        safety, "_explain_read",
        lambda key, read, index, value: brute_force_explain_read(key, read, index.writes, value),
    ):
        reference = _check(tracer)
    assert indexed.violations == reference.violations
    assert indexed.reads_checked == reference.reads_checked


def test_initial_value_message_names_the_first_completed_write():
    # two writes completed before the read: the message names the earlier
    # one in trace order, not the one that completed first
    tracer = _history([
        (0, "put", "k0", 1, 0, 30, None, False),
        (1, "put", "k0", 2, 5, 10, None, False),
        (2, "get", "k0", 1, 50, 5, None, False),
    ])
    (violation,) = _check(tracer).violations
    assert "put(...1) by c0#0 completed before it started" in violation.detail
