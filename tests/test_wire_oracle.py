"""The wire codec against its previous implementation, kept here as an oracle.

``OracleCodec`` below is a verbatim copy of the reflective codec the
compiled one replaced (an ``isinstance`` ladder per value, a cursor that
allocates per tag).  The wire format is frozen, so on every input the two
must agree:

* ``encode`` and ``encode_envelope`` produce identical bytes, or both
  raise :class:`WireUnsupportedTypeError`;
* decoded values are equal, down to the exact type of every field
  (tuple vs list, bytes, bool vs int);
* on truncated, flipped or inserted bytes the compiled decoder raises a
  :class:`WireError` whenever the oracle raises, and returns the oracle's
  value otherwise.  It never raises anything else: the oracle's own
  escapes (a ``TypeError`` for an unhashable dict key) become
  :class:`WireFormatError`.  Envelopes additionally must match their
  header's type id, which the oracle never checked.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
from typing import Any, Iterable

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import WireError, WireFormatError, WireUnsupportedTypeError
from repro.messages.client import Reply, Request
from repro.wire.codec import WireCodec, _DEFAULT_MODULES, _module_dataclasses
from repro.wire.framing import (
    FRAME_HEADER_SIZE,
    KIND_ENVELOPE,
    KIND_MESSAGE,
    Frame,
    decode_frame,
    encode_frame,
    sender_tag,
)
from tests.test_wire_codec import SAMPLES, VIEW_CHANGE

# ----------------------------------------------------------------------
# The oracle: the previous codec, unchanged
# ----------------------------------------------------------------------
# Value tags.
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_DICT = 0x09
_T_FROZENSET = 0x0A
_T_DATACLASS = 0x0B

_FLOAT = struct.Struct(">d")
_MAX_DEPTH = 64


# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------
def _write_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _zigzag(value: int) -> int:
    return value * 2 if value >= 0 else -value * 2 - 1


def _unzigzag(value: int) -> int:
    return value // 2 if value % 2 == 0 else -(value + 1) // 2


class _Cursor:
    """Bounds-checked reader over an immutable byte buffer."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if count < 0 or self.pos + count > len(self.data):
            raise WireFormatError(
                f"truncated value: need {count} bytes at offset {self.pos}, "
                f"buffer holds {len(self.data)}"
            )
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def skip(self, count: int) -> None:
        if count < 0 or self.pos + count > len(self.data):
            raise WireFormatError(f"truncated padding: need {count} bytes at offset {self.pos}")
        self.pos += count

    def read_uvarint(self) -> int:
        shift = 0
        result = 0
        while True:
            if self.pos >= len(self.data):
                raise WireFormatError("truncated varint")
            if shift > 70:  # > 10 bytes: not produced by this codec
                raise WireFormatError("varint too long")
            byte = self.data[self.pos]
            self.pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.data)




class OracleCodec:
    """The wire codec as it was before the compiled plans: reflective walk, cursor decoder."""

    def __init__(self, types: Iterable[type] | None = None):
        if types is None:
            types = [cls for mod in _DEFAULT_MODULES for cls in _module_dataclasses(mod)]
        ordered = sorted(set(types), key=lambda cls: (cls.__module__, cls.__qualname__))
        self._type_by_id: dict[int, type] = {}
        self._id_by_type: dict[type, int] = {}
        self._fields_by_type: dict[type, tuple] = {}
        for type_id, cls in enumerate(ordered, start=1):
            if not dataclasses.is_dataclass(cls):
                raise WireUnsupportedTypeError(f"{cls!r} is not a dataclass")
            self._type_by_id[type_id] = cls
            self._id_by_type[cls] = type_id
            self._fields_by_type[cls] = dataclasses.fields(cls)
        # Reusable body scratch buffer: encode()/encode_envelope() clear it
        # instead of allocating a fresh bytearray per message, so the
        # buffer's grown capacity is retained across hot-path calls.
        self._scratch = bytearray()

    # ------------------------------------------------------------------
    # Registry introspection
    # ------------------------------------------------------------------
    @property
    def registered_types(self) -> tuple[type, ...]:
        return tuple(self._type_by_id[type_id] for type_id in sorted(self._type_by_id))

    def type_id_of(self, cls: type) -> int:
        try:
            return self._id_by_type[cls]
        except KeyError:
            raise WireUnsupportedTypeError(
                f"{cls.__module__}.{cls.__qualname__} is not a registered wire type"
            ) from None

    # ------------------------------------------------------------------
    # Value encoding
    # ------------------------------------------------------------------
    def _encode_value(self, out: bytearray, value: Any, depth: int = 0) -> None:
        if depth > _MAX_DEPTH:
            raise WireUnsupportedTypeError(f"value nesting exceeds {_MAX_DEPTH} levels")
        if value is None:
            out.append(_T_NONE)
        elif value is True:
            out.append(_T_TRUE)
        elif value is False:
            out.append(_T_FALSE)
        elif isinstance(value, int):
            out.append(_T_INT)
            _write_uvarint(out, _zigzag(value))
        elif isinstance(value, float):
            out.append(_T_FLOAT)
            out.extend(_FLOAT.pack(value))
        elif isinstance(value, str):
            raw = value.encode("utf-8")
            out.append(_T_STR)
            _write_uvarint(out, len(raw))
            out.extend(raw)
        elif isinstance(value, (bytes, bytearray, memoryview)):
            raw = bytes(value)
            out.append(_T_BYTES)
            _write_uvarint(out, len(raw))
            out.extend(raw)
        elif isinstance(value, tuple):
            out.append(_T_TUPLE)
            _write_uvarint(out, len(value))
            for item in value:
                self._encode_value(out, item, depth + 1)
        elif isinstance(value, list):
            out.append(_T_LIST)
            _write_uvarint(out, len(value))
            for item in value:
                self._encode_value(out, item, depth + 1)
        elif isinstance(value, dict):
            out.append(_T_DICT)
            _write_uvarint(out, len(value))
            for key, item in value.items():
                self._encode_value(out, key, depth + 1)
                self._encode_value(out, item, depth + 1)
        elif isinstance(value, frozenset):
            encoded_items = []
            for item in value:
                item_out = bytearray()
                self._encode_value(item_out, item, depth + 1)
                encoded_items.append(bytes(item_out))
            out.append(_T_FROZENSET)
            _write_uvarint(out, len(encoded_items))
            for chunk in sorted(encoded_items):
                out.extend(chunk)
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            self._encode_dataclass(out, value, depth)
        else:
            raise WireUnsupportedTypeError(
                f"cannot encode value of type {type(value).__qualname__}"
            )

    def _encode_dataclass(self, out: bytearray, value: Any, depth: int) -> None:
        cls = type(value)
        type_id = self.type_id_of(cls)
        fields = self._fields_by_type[cls]
        out.append(_T_DATACLASS)
        _write_uvarint(out, type_id)
        _write_uvarint(out, len(fields))
        for field in fields:
            self._encode_value(out, getattr(value, field.name), depth + 1)
        padding = 0
        wire_padding = getattr(value, "wire_padding", None)
        if callable(wire_padding):
            padding = max(0, int(wire_padding()))
        _write_uvarint(out, padding)
        out.extend(b"\x00" * padding)

    # ------------------------------------------------------------------
    # Value decoding
    # ------------------------------------------------------------------
    def _decode_value(self, cursor: _Cursor, depth: int = 0) -> Any:
        if depth > _MAX_DEPTH:
            raise WireFormatError(f"value nesting exceeds {_MAX_DEPTH} levels")
        tag = cursor.take(1)[0]
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            return _unzigzag(cursor.read_uvarint())
        if tag == _T_FLOAT:
            return _FLOAT.unpack(cursor.take(_FLOAT.size))[0]
        if tag == _T_STR:
            raw = cursor.take(cursor.read_uvarint())
            try:
                return raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise WireFormatError(f"invalid UTF-8 in string value: {exc}") from None
        if tag == _T_BYTES:
            return cursor.take(cursor.read_uvarint())
        if tag == _T_TUPLE:
            count = cursor.read_uvarint()
            return tuple(self._decode_value(cursor, depth + 1) for _ in range(count))
        if tag == _T_LIST:
            count = cursor.read_uvarint()
            return [self._decode_value(cursor, depth + 1) for _ in range(count)]
        if tag == _T_DICT:
            count = cursor.read_uvarint()
            result = {}
            for _ in range(count):
                key = self._decode_value(cursor, depth + 1)
                result[key] = self._decode_value(cursor, depth + 1)
            return result
        if tag == _T_FROZENSET:
            count = cursor.read_uvarint()
            return frozenset(self._decode_value(cursor, depth + 1) for _ in range(count))
        if tag == _T_DATACLASS:
            return self._decode_dataclass(cursor, depth)
        raise WireFormatError(f"unknown value tag 0x{tag:02x}")

    def _decode_dataclass(self, cursor: _Cursor, depth: int) -> Any:
        type_id = cursor.read_uvarint()
        cls = self._type_by_id.get(type_id)
        if cls is None:
            raise WireFormatError(f"unknown wire type id {type_id}")
        fields = self._fields_by_type[cls]
        field_count = cursor.read_uvarint()
        if field_count != len(fields):
            raise WireFormatError(
                f"{cls.__qualname__}: field count mismatch "
                f"(wire has {field_count}, code expects {len(fields)})"
            )
        values = [self._decode_value(cursor, depth + 1) for _ in fields]
        cursor.skip(cursor.read_uvarint())  # modelled payload padding
        try:
            return cls(*values)
        except (TypeError, ValueError) as exc:
            raise WireFormatError(f"cannot construct {cls.__qualname__}: {exc}") from None

    # ------------------------------------------------------------------
    # Message framing
    # ------------------------------------------------------------------
    def encode(self, message: Any) -> bytes:
        """Encode one registered message as a complete frame."""
        type_id = self.type_id_of(type(message))
        body = self._scratch
        del body[:]
        self._encode_value(body, message)
        return encode_frame(KIND_MESSAGE, type_id, bytes(body))

    def decode(self, data: bytes) -> Any:
        """Decode one complete message frame back into its dataclass."""
        frame = decode_frame(data)
        if frame.kind != KIND_MESSAGE:
            raise WireFormatError(f"expected a message frame, got kind {frame.kind}")
        return self.decode_body(frame)

    def decode_body(self, frame: Frame) -> Any:
        cursor = _Cursor(frame.body)
        message = self._decode_value(cursor)
        if not cursor.exhausted:
            raise WireFormatError(
                f"{len(frame.body) - cursor.pos} trailing bytes after message body"
            )
        if frame.kind == KIND_MESSAGE and self._id_by_type.get(type(message)) != frame.type_id:
            raise WireFormatError(
                f"frame header type id {frame.type_id} does not match body type "
                f"{type(message).__qualname__}"
            )
        return message

    def encoded_size(self, message: Any) -> int:
        """Actual on-the-wire size of ``message`` (header + body)."""
        return len(self.encode(message))

    # ------------------------------------------------------------------
    # Envelopes (stage-addressed messages, used by the live transport)
    # ------------------------------------------------------------------
    def encode_envelope(self, src_node: str, src_stage: str, dst_stage: str, message: Any) -> bytes:
        """Encode a stage-addressed message for the asyncio transport."""
        type_id = self.type_id_of(type(message))
        body = self._scratch
        del body[:]
        self._encode_value(body, src_node)
        self._encode_value(body, src_stage)
        self._encode_value(body, dst_stage)
        self._encode_value(body, message)
        return encode_frame(KIND_ENVELOPE, type_id, bytes(body), sender=sender_tag(src_node))

    def decode_envelope(self, frame_or_bytes: Frame | bytes) -> tuple[str, str, str, Any]:
        """Decode an envelope frame into (src_node, src_stage, dst_stage, message)."""
        frame = frame_or_bytes if isinstance(frame_or_bytes, Frame) else decode_frame(frame_or_bytes)
        if frame.kind != KIND_ENVELOPE:
            raise WireFormatError(f"expected an envelope frame, got kind {frame.kind}")
        cursor = _Cursor(frame.body)
        src_node = self._decode_value(cursor)
        src_stage = self._decode_value(cursor)
        dst_stage = self._decode_value(cursor)
        message = self._decode_value(cursor)
        if not cursor.exhausted:
            raise WireFormatError(
                f"{len(frame.body) - cursor.pos} trailing bytes after envelope body"
            )
        for part in (src_node, src_stage, dst_stage):
            if not isinstance(part, str):
                raise WireFormatError(f"envelope address parts must be strings, got {type(part)}")
        return src_node, src_stage, dst_stage, message



NEW = WireCodec()
ORACLE = OracleCodec()
RAISES = object()


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 70


def typed(value: Any) -> Any:
    """``value`` as a comparable structure that records the exact type of every part."""
    if dataclasses.is_dataclass(value):
        return (type(value), tuple(typed(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if isinstance(value, (tuple, list)):
        return (type(value), tuple(typed(item) for item in value))
    if isinstance(value, dict):
        return (dict, frozenset((typed(key), typed(item)) for key, item in value.items()))
    if isinstance(value, frozenset):
        return (frozenset, frozenset(typed(item) for item in value))
    if isinstance(value, float) and value != value:
        return (float, "nan")
    return (type(value), value)


def outcome(call) -> Any:
    """The result of ``call()`` as something comparable, or the exception type it raised."""
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return ("raised", type(exc))


def assert_same_decode(frame: bytes, envelope: bool) -> None:
    """The compiled decoder raises a WireError where the oracle raises, else agrees."""
    old = ORACLE.decode_envelope if envelope else ORACLE.decode
    new = NEW.decode_envelope if envelope else NEW.decode
    try:
        expected = old(frame)
    except Exception:  # noqa: BLE001 - any oracle failure must be a WireError below
        expected = RAISES
    if envelope and expected is not RAISES:
        if ORACLE.type_id_of(type(expected[3])) != decode_frame(frame).type_id:
            expected = RAISES  # the header check the oracle lacked
    if expected is RAISES:
        with pytest.raises(WireError):
            new(frame)
        return
    assert typed(new(frame)) == typed(expected)
    if envelope:  # the transport hands over parsed frames, not bytes
        assert typed(new(decode_frame(frame))) == typed(expected)


def assert_same_encode(message: Any) -> None:
    for encode in ("encode", "encode_envelope"):
        args = (message,) if encode == "encode" else ("r0", "pillar0", "pillar1", message)
        expected = outcome(lambda: getattr(ORACLE, encode)(*args))
        assert outcome(lambda: getattr(NEW, encode)(*args)) == expected
        if expected[0] == "ok":
            assert_same_decode(expected[1], envelope=encode == "encode_envelope")


def carriers(value: Any) -> list:
    """The two messages that carry arbitrary values: a request and a reply."""
    return [
        Request("clients0:c1", 1000, value, 0, b"\x11" * 32),
        Reply("r1", "clients0:c1", 1000, 3, value, 7),
    ]


# ----------------------------------------------------------------------
# Value strategies
# ----------------------------------------------------------------------
BOUNDARY_INTS = [0, 63, 64, -1, -64, -65, 127, 128, 8191, 8192, 2**63, 2**64, 2**64 + 1, -(2**64), 2**70, 2**76, 2**77]
BOUNDARY_STRS = ["a" * 127, "a" * 128, "é" * 63 + "a", "é" * 64, "", "clients0:c3/k12"]
BOUNDARY_BYTES = [b"\x00" * 127, b"\xff" * 128, b""]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.sampled_from(BOUNDARY_INTS),
    st.floats(),
    st.text(max_size=160),
    st.sampled_from(BOUNDARY_STRS),
    st.binary(max_size=160),
    st.sampled_from(BOUNDARY_BYTES),
    st.sampled_from([Level.LOW, Level.HIGH]),
)
keys = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=4
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5).map(tuple),
        st.lists(inner, max_size=5),
        st.dictionaries(keys, inner, max_size=4),
        st.frozensets(keys, max_size=4),
    ),
    max_leaves=24,
)
mutations = st.tuples(
    st.sampled_from(["truncate", "flip", "insert"]), st.integers(0, 1 << 20), st.integers(1, 255)
)

FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def mutate(data: bytes, mutation: tuple[str, int, int]) -> bytes:
    kind, where, byte = mutation
    if kind == "insert":
        at = where % (len(data) + 1)
        return data[:at] + bytes([byte]) + data[at:]
    if not data:
        return data
    at = where % len(data)
    if kind == "truncate":
        return data[:at]
    return data[:at] + bytes([data[at] ^ byte]) + data[at + 1 :]


def fuzz_frame(frame: bytes, mutation: tuple[str, int, int], reseal: bool) -> bytes:
    """Mutate a frame; with ``reseal`` the body is mutated and the header
    rebuilt around it, so the damage gets past the CRC to the decoder."""
    if not reseal:
        return mutate(frame, mutation)
    parsed = decode_frame(frame)
    return encode_frame(parsed.kind, parsed.type_id, mutate(parsed.body, mutation), parsed.sender)


# ----------------------------------------------------------------------
# Agreement on valid messages
# ----------------------------------------------------------------------
@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_every_sample_type_matches_the_oracle(message):
    assert_same_encode(message)


@FUZZ
@given(values)
@example(2**76)  # encodes, but its 12-byte varint is rejected on decode by both
@example(Level.HIGH)
@example([("a" * 128, b"\xff" * 128)])
def test_arbitrary_operations_and_results_match_the_oracle(value):
    for message in carriers(value):
        assert_same_encode(message)


@pytest.mark.parametrize("value", BOUNDARY_INTS + BOUNDARY_STRS + BOUNDARY_BYTES, ids=repr)
def test_scalar_boundaries_match_the_oracle(value):
    for message in carriers(value):
        assert_same_encode(message)


def nested(levels: int) -> Any:
    value: Any = None
    for _ in range(levels):
        value = (value,)
    return value


@pytest.mark.parametrize("levels", [62, 63, 64, 65])
def test_encoding_depth_limit_matches_the_oracle(levels):
    # the operation sits at depth 1, so its innermost value at 1 + levels
    for message in carriers(nested(levels)):
        assert_same_encode(message)
    request = carriers(nested(levels))[0]
    if levels >= 64:
        with pytest.raises(WireUnsupportedTypeError):
            NEW.encode(request)
    else:
        assert NEW.decode(NEW.encode(request)) == request


@pytest.mark.parametrize("levels", [62, 63, 64, 65])
def test_decoding_depth_limit_matches_the_oracle(levels):
    # the encoder refuses depth 65, so splice the nesting into real bytes
    marker = 12345
    frame = NEW.encode(Request("clients0:c1", 7, marker))
    parsed = decode_frame(frame)
    encoded_marker = bytes([0x03]) + bytes([0xF2, 0xC0, 0x01])  # tag, zigzag varint of 12345
    assert parsed.body.count(encoded_marker) == 1
    body = parsed.body.replace(encoded_marker, b"\x07\x01" * levels + b"\x00")
    forged = encode_frame(KIND_MESSAGE, parsed.type_id, body)
    assert_same_decode(forged, envelope=False)
    if levels >= 64:
        with pytest.raises(WireFormatError):
            NEW.decode(forged)
    else:
        assert NEW.decode(forged).operation == nested(levels)


def test_unsupported_values_are_rejected_like_the_oracle():
    @dataclasses.dataclass(frozen=True)
    class Unregistered:
        x: int

    for value in (Unregistered(1), object(), {1, 2}, bytearray(b"ab"), memoryview(b"cd")):
        for message in carriers(value):
            assert_same_encode(message)


# ----------------------------------------------------------------------
# Agreement on damaged bytes
# ----------------------------------------------------------------------
@FUZZ
@given(st.sampled_from(SAMPLES), mutations, st.booleans(), st.booleans())
def test_damaged_sample_frames_fail_like_the_oracle(message, mutation, envelope, reseal):
    frame = NEW.encode_envelope("r0", "pillar0", "pillar1", message) if envelope else NEW.encode(message)
    assert_same_decode(fuzz_frame(frame, mutation, reseal), envelope)


@FUZZ
@given(values, mutations, st.booleans())
def test_damaged_value_frames_fail_like_the_oracle(value, mutation, envelope):
    message = carriers(value)[0]
    try:
        frame = NEW.encode_envelope("r0", "p", "q", message) if envelope else NEW.encode(message)
    except WireUnsupportedTypeError:
        return
    assert_same_decode(fuzz_frame(frame, mutation, reseal=True), envelope)


def test_every_truncation_of_a_view_change_fails_like_the_oracle():
    frame = decode_frame(NEW.encode_envelope("r0", "pillar0", "pillar1", VIEW_CHANGE))
    for cut in range(len(frame.body)):
        assert_same_decode(encode_frame(KIND_ENVELOPE, frame.type_id, frame.body[:cut]), True)
