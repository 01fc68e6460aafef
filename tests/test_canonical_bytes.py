"""The canonical serialization is a frozen format: golden bytes and an oracle.

Canonical bytes are hash input (every digest, MAC and TrInX certificate)
and cost input (``CryptoProvider`` charges ``len(raw)`` when no size hint
is given), so the single-pass writer must reproduce the original
recursive implementation byte for byte.  That implementation is kept
below as the reference the property test compares against.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.digests import canonical_bytes
from repro.crypto.mac import _pack_items
from repro.messages.client import Request
from repro.messages.ordering import Prepare


def reference_canonical_bytes(data: Any) -> bytes:
    """The recursive type ladder the writer replaced (the oracle)."""
    if isinstance(data, bytes):
        return b"B" + len(data).to_bytes(4, "big") + data
    if isinstance(data, str):
        raw = data.encode("utf-8")
        return b"S" + len(raw).to_bytes(4, "big") + raw
    if isinstance(data, bool):  # before int: bool is an int subclass
        return b"T" if data else b"F"
    if isinstance(data, int):
        raw = str(data).encode("ascii")
        return b"I" + len(raw).to_bytes(4, "big") + raw
    if isinstance(data, float):
        raw = repr(data).encode("ascii")
        return b"D" + len(raw).to_bytes(4, "big") + raw
    if data is None:
        return b"N"
    if isinstance(data, (tuple, list)):
        parts = [reference_canonical_bytes(item) for item in data]
        return b"L" + len(parts).to_bytes(4, "big") + b"".join(parts)
    if isinstance(data, frozenset):
        parts = sorted(reference_canonical_bytes(item) for item in data)
        return b"Z" + len(parts).to_bytes(4, "big") + b"".join(parts)
    if isinstance(data, dict):
        parts = []
        for key in sorted(data, key=lambda k: reference_canonical_bytes(k)):
            parts.append(reference_canonical_bytes(key))
            parts.append(reference_canonical_bytes(data[key]))
        return b"M" + len(parts).to_bytes(4, "big") + b"".join(parts)
    digestible = getattr(data, "digestible", None)
    if callable(digestible):
        return reference_canonical_bytes(digestible())
    raise TypeError(f"cannot canonically serialize {type(data).__name__}")


class Color(enum.IntEnum):
    RED = 1
    BLUE = 7


class Tag(str):
    pass


class Count(int):
    """An int subclass is serialized through ``str()``, however it spells itself."""

    def __str__(self) -> str:
        return f"+{int(self)}"


class Blob(bytes):
    pass


Pair = namedtuple("Pair", "left right")


class Wrapped:
    """A protocol-message stand-in: serialized through ``digestible()``."""

    def __init__(self, inner: Any):
        self.inner = inner

    def digestible(self) -> Any:
        return ("wrapped", self.inner)


REQUEST = Request("clients0:c3", 1003, ("put", "clients0:c3/k3", 3), 0, b"\x5a" * 32)


class TestGoldenBytes:
    def test_request_digestible(self):
        assert canonical_bytes(REQUEST.digestible()) == (
            b"L\x00\x00\x00\x05"
            b"S\x00\x00\x00\x07request"
            b"S\x00\x00\x00\x0bclients0:c3"
            b"I\x00\x00\x00\x041003"
            b"L\x00\x00\x00\x03"
            b"S\x00\x00\x00\x03put"
            b"S\x00\x00\x00\x0eclients0:c3/k3"
            b"I\x00\x00\x00\x013"
            b"I\x00\x00\x00\x010"
        )

    def test_trinx_mac_fields(self):
        fields = ("trinx-independent", "r0/trinx0", 1, 17, b"\x01" * 4)
        assert canonical_bytes(fields) == (
            b"L\x00\x00\x00\x05"
            b"S\x00\x00\x00\x11trinx-independent"
            b"S\x00\x00\x00\x09r0/trinx0"
            b"I\x00\x00\x00\x011"
            b"I\x00\x00\x00\x0217"
            b"B\x00\x00\x00\x04\x01\x01\x01\x01"
        )

    def test_prepare_certified_header(self):
        header = Prepare(2, 4711, (REQUEST,), "r1").certified_digestible()
        assert canonical_bytes(header) == (
            b"L\x00\x00\x00\x05"
            b"S\x00\x00\x00\x0eprepare-header"
            b"I\x00\x00\x00\x012"
            b"I\x00\x00\x00\x044711"
            b"S\x00\x00\x00\x02r1"
            b"F"
        )

    def test_nested_slow_path_types(self):
        class Obj:
            def digestible(self):
                return ("obj", -42)

        value = {"b": [0.5, True], "a": frozenset({-7, None}), "c": (Obj(), False, b"")}
        assert canonical_bytes(value) == (
            b"M\x00\x00\x00\x06"
            b"S\x00\x00\x00\x01a"
            b"Z\x00\x00\x00\x02" b"I\x00\x00\x00\x02-7" b"N"
            b"S\x00\x00\x00\x01b"
            b"L\x00\x00\x00\x02" b"D\x00\x00\x00\x030.5" b"T"
            b"S\x00\x00\x00\x01c"
            b"L\x00\x00\x00\x03"
            b"L\x00\x00\x00\x02" b"S\x00\x00\x00\x03obj" b"I\x00\x00\x00\x03-42"
            b"F"
            b"B\x00\x00\x00\x00"
        )

    def test_unsupported_value_inside_a_container_raises(self):
        with pytest.raises(TypeError):
            canonical_bytes(("ok", [1, object()]))


scalars = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(list(Color)),
    st.builds(Tag, st.text(max_size=6)),
    st.builds(Count, st.integers()),
    st.builds(Blob, st.binary(max_size=6)),
)
hashables = st.recursive(
    st.one_of(st.integers(), st.booleans(), st.none(), st.text(max_size=6), st.binary(max_size=6)),
    lambda children: st.tuples(children, children),
    max_leaves=4,
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.tuples(children),
        st.tuples(children, children, children),
        st.lists(children, max_size=5),
        st.frozensets(hashables, max_size=4),
        st.dictionaries(hashables, children, max_size=4),
        st.builds(Wrapped, children),
        st.builds(Pair, children, children),
    ),
    max_leaves=16,
)


class TestWriterMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(values)
    def test_canonical_bytes_equal_reference(self, value):
        assert canonical_bytes(value) == reference_canonical_bytes(value)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(values, max_size=5))
    def test_packed_batch_slices_equal_reference(self, items):
        buffer, spans = _pack_items(items)
        assert [bytes(buffer[a:b]) for a, b in spans] == [
            reference_canonical_bytes(item) for item in items
        ]
