"""Deterministic binary codec for protocol messages.

The codec assigns every message dataclass a stable numeric type id
(sorted by qualified name, so every process derives the same table from
the same code) and encodes instances as tagged values:

* scalars — ``None``, bools, arbitrary-precision ints (zigzag + LEB128),
  floats (IEEE-754 big-endian), UTF-8 strings, bytes;
* containers — tuples, lists, dicts, frozensets (sorted for determinism);
* registered dataclasses — type id + fields in declaration order, followed
  by *modelled padding*: messages that account for benchmark payloads
  without materializing them (``Request.payload_size`` et al.) declare the
  byte count via :meth:`~repro.messages.base.ProtocolMessage.wire_padding`
  and the codec puts real zero bytes on the wire, so a live network carries
  the load the bandwidth model charges for.

Every registered type round-trips exactly: ``decode(encode(m)) == m``,
including nested messages, TrInX certificates, and MAC authenticators.
Malformed or tampered bytes raise typed errors
(:class:`~repro.errors.WireFormatError`,
:class:`~repro.errors.WireIntegrityError`) instead of yielding garbage.

The format is frozen (``tests/test_wire_golden.py``; the reflective
codec this one replaced is the oracle of ``tests/test_wire_oracle.py``).
A frame is a pure function of the message, so the live transport encodes
a broadcast once: messages are frozen dataclasses, not mutated once sent.
"""

from __future__ import annotations

import dataclasses
import operator
import struct
from typing import Any, Callable, Iterable

from repro.errors import WireFormatError, WireUnsupportedTypeError
from repro.messages.base import MESSAGE_HEADER_SIZE, ProtocolMessage
from repro.wire.framing import (
    FRAME_HEADER_SIZE,
    KIND_ENVELOPE,
    KIND_MESSAGE,
    Frame,
    encode_frame,
    open_frame,
    sender_tag,
)

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

# 1 for the tags followed by a varint (a value, length, count or type id)
_SIZED = bytes(
    tag in (_T_INT, _T_STR, _T_BYTES, _T_TUPLE, _T_LIST, _T_DICT, _T_FROZENSET, _T_DATACLASS)
    for tag in range(256)
)

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


def _uvarint_bytes(value: int) -> bytes:
    out = bytearray()
    _write_uvarint(out, value)
    return bytes(out)


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """The varint at ``data[pos]`` and the offset after it."""
    result = 0
    for shift in range(0, 77, 7):  # at most 11 bytes, as the codec has always accepted
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
    raise WireFormatError("varint too long")


# ints 0..63 zigzag to a single varint byte: their whole encoding is constant
_SMALL_INTS = tuple(bytes((_T_INT, value * 2)) for value in range(64))
# Encoded short strings (node, stage, client and key names) are cached per
# codec; the cache is cleared whenever it fills, so it stays bounded.
_CACHED_STR_LEN = 64
_STRING_CACHE_SIZE = 4096


# ----------------------------------------------------------------------
# Type registry
# ----------------------------------------------------------------------
_DEFAULT_MODULES = (
    "repro.crypto.authenticators",
    "repro.messages.checkpointing",
    "repro.messages.client",
    "repro.messages.internal",
    "repro.messages.ordering",
    "repro.messages.statetransfer",
    "repro.messages.viewchange",
    "repro.trinx.certificates",
)


def _module_dataclasses(module_name: str) -> Iterable[type]:
    import importlib

    module = importlib.import_module(module_name)
    for name in sorted(vars(module)):
        obj = getattr(module, name)
        if (
            isinstance(obj, type)
            and dataclasses.is_dataclass(obj)
            and obj.__module__ == module_name
        ):
            yield obj


class WireCodec:
    """A codec instance: type table plus encode/decode entry points.

    Construction compiles one encode plan per registered type; see the
    "Framing" part of DESIGN.md §8 for the exact-type / ladder split.
    """

    def __init__(self, types: Iterable[type] | None = None):
        if types is None:
            types = [cls for mod in _DEFAULT_MODULES for cls in _module_dataclasses(mod)]
        ordered = sorted(set(types), key=lambda cls: (cls.__module__, cls.__qualname__))
        self._id_by_type: dict[type, int] = {}
        # encode plan per type: (header bytes, field getter, padding hook or None)
        self._plans: dict[type, tuple[bytes, Callable[[Any], tuple], Callable | None]] = {}
        # decode entry per type id: (class, field count)
        self._classes: dict[int, tuple[type, int]] = {}
        for type_id, cls in enumerate(ordered, start=1):
            if not dataclasses.is_dataclass(cls):
                raise WireUnsupportedTypeError(f"{cls!r} is not a dataclass")
            names = [field.name for field in dataclasses.fields(cls)]
            getter = operator.attrgetter(*names) if len(names) > 1 else (  # else a bare value
                lambda value, names=names: tuple(getattr(value, name) for name in names)
            )
            padding = getattr(cls, "wire_padding", None)
            if not callable(padding) or padding is ProtocolMessage.wire_padding:
                padding = None
            header = bytes((_T_DATACLASS,)) + _uvarint_bytes(type_id) + _uvarint_bytes(len(names))
            self._id_by_type[cls] = type_id
            self._plans[cls] = (header, getter, padding)
            self._classes[type_id] = (cls, len(names))
        self._strings: dict[str, bytes] = {}
        self._scratch = bytearray()  # body buffer, cleared and reused per frame

    # ------------------------------------------------------------------
    # Registry introspection
    # ------------------------------------------------------------------
    @property
    def registered_types(self) -> tuple[type, ...]:
        return tuple(self._classes[type_id][0] for type_id in sorted(self._classes))

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
    def _write(self, out: bytearray, values: Iterable[Any], depth: int) -> None:
        """Append the encoding of each of ``values``, all at nesting ``depth``."""
        if depth > _MAX_DEPTH and values:
            raise WireUnsupportedTypeError(f"value nesting exceeds {_MAX_DEPTH} levels")
        plans = self._plans
        for value in values:
            cls = type(value)
            if cls is str:
                out += self._strings.get(value) or self._string(value)
            elif cls is int:
                if 0 <= value < 64:
                    out += _SMALL_INTS[value]
                else:
                    out.append(_T_INT)
                    _write_uvarint(out, value * 2 if value >= 0 else -value * 2 - 1)
            elif cls is tuple:
                out.append(_T_TUPLE)
                if len(value) < 0x80:
                    out.append(len(value))
                else:
                    _write_uvarint(out, len(value))
                self._write(out, value, depth + 1)
            elif cls in plans:
                header, getter, padding = plans[cls]
                out += header
                self._write(out, getter(value), depth + 1)
                count = 0 if padding is None else max(0, int(padding(value)))
                if count:
                    _write_uvarint(out, count)
                    out += bytes(count)
                else:
                    out.append(0)
            elif cls is bytes:
                out.append(_T_BYTES)
                _write_uvarint(out, len(value))
                out += value
            elif value is None:
                out.append(_T_NONE)
            elif cls is bool:
                out.append(_T_TRUE if value else _T_FALSE)
            else:
                self._write_other(out, value, depth)

    def _string(self, value: str) -> bytes:
        raw = value.encode("utf-8")
        encoded = bytes((_T_STR,)) + _uvarint_bytes(len(raw)) + raw
        if len(raw) <= _CACHED_STR_LEN:
            if len(self._strings) >= _STRING_CACHE_SIZE:
                self._strings.clear()
            self._strings[value] = encoded
        return encoded

    def _write_other(self, out: bytearray, value: Any, depth: int) -> None:
        """Values outside the exact-type fast path: subclasses of int and
        str (``IntEnum``), floats, other byte buffers, tuple subclasses,
        lists, dicts and frozensets."""
        if isinstance(value, int):
            out.append(_T_INT)
            _write_uvarint(out, value * 2 if value >= 0 else -value * 2 - 1)
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
            self._write(out, value, depth + 1)
        elif isinstance(value, list):
            out.append(_T_LIST)
            _write_uvarint(out, len(value))
            self._write(out, value, depth + 1)
        elif isinstance(value, dict):
            out.append(_T_DICT)
            _write_uvarint(out, len(value))
            for item in value.items():
                self._write(out, item, depth + 1)
        elif isinstance(value, frozenset):
            encoded_items = []
            for item in value:
                item_out = bytearray()
                self._write(item_out, (item,), depth + 1)
                encoded_items.append(bytes(item_out))
            out.append(_T_FROZENSET)
            _write_uvarint(out, len(encoded_items))
            for chunk in sorted(encoded_items):
                out.extend(chunk)
        else:  # unregistered dataclasses too: registered ones took the fast path
            raise WireUnsupportedTypeError(
                f"cannot encode value of type {type(value).__qualname__}"
            )

    # ------------------------------------------------------------------
    # Value decoding
    # ------------------------------------------------------------------
    def _read(self, data: bytes, pos: int, count: int, depth: int) -> tuple[list, int]:
        """Decode ``count`` consecutive values at nesting ``depth`` from
        ``data[pos:]``; returns them and the offset after them.

        Running off the end of ``data`` raises ``IndexError``; the entry
        points turn it into :class:`WireFormatError`.
        """
        if count > len(data) - pos:  # every value takes at least its tag byte
            raise WireFormatError(
                f"truncated value: {count} values announced, {len(data) - pos} bytes left"
            )
        if depth > _MAX_DEPTH and count:
            raise WireFormatError(f"value nesting exceeds {_MAX_DEPTH} levels")
        values: list = []
        append = values.append
        for _ in range(count):
            tag = data[pos]
            if _SIZED[tag]:
                size = data[pos + 1]
                if size < 0x80:
                    pos += 2
                else:
                    size, pos = _read_uvarint(data, pos + 1)
            else:
                pos += 1
            if tag == _T_INT:
                append((size >> 1) ^ -(size & 1))  # un-zigzag
            elif tag == _T_STR or tag == _T_BYTES:
                end = pos + size
                if end > len(data):
                    raise WireFormatError(f"truncated value: need {size} bytes at offset {pos}")
                if tag == _T_BYTES:
                    append(data[pos:end])
                else:
                    try:
                        append(data[pos:end].decode("utf-8"))
                    except UnicodeDecodeError as exc:
                        raise WireFormatError(f"invalid UTF-8 in string value: {exc}") from None
                pos = end
            elif tag == _T_DATACLASS:
                cls, field_count = self._classes.get(size) or (None, 0)
                if cls is None:
                    raise WireFormatError(f"unknown wire type id {size}")
                wire_count = data[pos]
                if wire_count < 0x80:
                    pos += 1
                else:
                    wire_count, pos = _read_uvarint(data, pos)
                if wire_count != field_count:
                    raise WireFormatError(
                        f"{cls.__qualname__}: field count mismatch "
                        f"(wire has {wire_count}, code expects {field_count})"
                    )
                fields, pos = self._read(data, pos, field_count, depth + 1)
                padding = data[pos]  # modelled payload padding
                if padding < 0x80:
                    pos += 1 + padding
                else:
                    padding, pos = _read_uvarint(data, pos)
                    pos += padding
                if pos > len(data):
                    raise WireFormatError(f"truncated padding: need {padding} bytes")
                try:
                    append(cls(*fields))
                except (TypeError, ValueError) as exc:
                    raise WireFormatError(f"cannot construct {cls.__qualname__}: {exc}") from None
            elif tag == _T_TUPLE:
                items, pos = self._read(data, pos, size, depth + 1)
                append(tuple(items))
            elif tag == _T_NONE:
                append(None)
            elif tag == _T_TRUE:
                append(True)
            elif tag == _T_FALSE:
                append(False)
            elif tag == _T_FLOAT:
                if pos + _FLOAT.size > len(data):
                    raise WireFormatError(f"truncated float at offset {pos}")
                append(_FLOAT.unpack_from(data, pos)[0])
                pos += _FLOAT.size
            elif tag == _T_LIST:
                items, pos = self._read(data, pos, size, depth + 1)
                append(items)
            elif tag == _T_DICT or tag == _T_FROZENSET:
                pairs = 2 if tag == _T_DICT else 1
                items, pos = self._read(data, pos, size * pairs, depth + 1)
                try:
                    append(dict(zip(items[::2], items[1::2])) if pairs == 2 else frozenset(items))
                except TypeError as exc:  # an unhashable key or member
                    raise WireFormatError(f"invalid {'dict key' if pairs == 2 else 'set member'}: {exc}") from None
            else:
                raise WireFormatError(f"unknown value tag 0x{tag:02x}")
        return values, pos

    def _open(self, frame_or_bytes: Frame | bytes, kind: int, count: int) -> list:
        """Decode the ``count`` values of a frame's body; the last is the
        message, whose type must match the header's type id."""
        if isinstance(frame_or_bytes, Frame):
            frame_kind, type_id, _sender, data = frame_or_bytes
            pos = 0
        else:
            data = bytes(frame_or_bytes)
            frame_kind, type_id, _sender = open_frame(data)
            pos = FRAME_HEADER_SIZE
        if frame_kind != kind:
            raise WireFormatError(f"expected frame kind {kind}, got kind {frame_kind}")
        try:
            values, pos = self._read(data, pos, count, 0)
        except IndexError:
            raise WireFormatError("truncated value: frame body ends inside a value") from None
        if pos != len(data):
            raise WireFormatError(f"{len(data) - pos} trailing bytes after frame body")
        message = values[-1]
        if self._id_by_type.get(type(message)) != type_id:
            raise WireFormatError(
                f"frame header type id {type_id} does not match body type "
                f"{type(message).__qualname__}"
            )
        return values

    # ------------------------------------------------------------------
    # Message framing
    # ------------------------------------------------------------------
    def _frame(self, kind: int, message: Any, values: tuple, sender: int = 0) -> bytes:
        type_id = self.type_id_of(type(message))
        body = self._scratch
        del body[:]
        self._write(body, values, 0)
        return encode_frame(kind, type_id, body, sender)

    def encode(self, message: Any) -> bytes:
        """Encode one registered message as a complete frame."""
        return self._frame(KIND_MESSAGE, message, (message,))

    def decode(self, data: bytes) -> Any:
        """Decode one complete message frame back into its dataclass."""
        return self._open(data, KIND_MESSAGE, 1)[0]

    def encoded_size(self, message: Any) -> int:
        """Actual on-the-wire size of ``message`` (header + body)."""
        return len(self.encode(message))

    # ------------------------------------------------------------------
    # Envelopes (stage-addressed messages, used by the live transport)
    # ------------------------------------------------------------------
    def encode_envelope(self, src_node: str, src_stage: str, dst_stage: str, message: Any) -> bytes:
        """Encode a stage-addressed message for the asyncio transport."""
        return self._frame(
            KIND_ENVELOPE, message, (src_node, src_stage, dst_stage, message), sender_tag(src_node)
        )

    def decode_envelope(self, frame_or_bytes: Frame | bytes) -> tuple[str, str, str, Any]:
        """Decode an envelope frame into (src_node, src_stage, dst_stage, message)."""
        src_node, src_stage, dst_stage, message = self._open(frame_or_bytes, KIND_ENVELOPE, 4)
        for part in (src_node, src_stage, dst_stage):
            if not isinstance(part, str):
                raise WireFormatError(f"envelope address parts must be strings, got {type(part)}")
        return src_node, src_stage, dst_stage, message

    # ------------------------------------------------------------------
    # Accounting reconciliation
    # ------------------------------------------------------------------
    def audit(self, message: Any) -> "WireSizeDelta":
        """Compare the codec's real encoded size against ``wire_size()``."""
        accounted = int(message.wire_size())
        encoded = self.encoded_size(message)
        return WireSizeDelta(type(message).__qualname__, accounted, encoded)


@dataclasses.dataclass(frozen=True)
class WireSizeDelta:
    """Outcome of reconciling the accounting model with the real codec."""

    message_type: str
    accounted: int
    encoded: int

    @property
    def delta(self) -> int:
        return self.encoded - self.accounted

    @property
    def ratio(self) -> float:
        return self.encoded / self.accounted if self.accounted else float("inf")

    def __str__(self) -> str:
        return (
            f"{self.message_type}: accounted {self.accounted} B, "
            f"encoded {self.encoded} B (delta {self.delta:+d}, ratio {self.ratio:.2f})"
        )


# ----------------------------------------------------------------------
# Module-level default instance
# ----------------------------------------------------------------------
_DEFAULT: WireCodec | None = None


def default_codec() -> WireCodec:
    """The process-wide codec over all registered message modules."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = WireCodec()
    return _DEFAULT


def encode_message(message: Any) -> bytes:
    return default_codec().encode(message)


def decode_message(data: bytes) -> Any:
    return default_codec().decode(data)


def encode_envelope(src_node: str, src_stage: str, dst_stage: str, message: Any) -> bytes:
    return default_codec().encode_envelope(src_node, src_stage, dst_stage, message)


def decode_envelope(frame_or_bytes: Frame | bytes) -> tuple[str, str, str, Any]:
    return default_codec().decode_envelope(frame_or_bytes)


def encoded_size(message: Any) -> int:
    return default_codec().encoded_size(message)


assert MESSAGE_HEADER_SIZE == 20  # the accounting constant the frame header mirrors
