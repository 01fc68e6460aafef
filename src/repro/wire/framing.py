"""Length-prefixed frames with integrity checking.

Every unit on the wire is one frame::

    0      2      3      4        6          10         14        18       20
    +------+------+------+--------+----------+----------+---------+--------+
    | 'Hy' | ver  | kind | type   | body len | crc32    | sender  | rsvd   |
    +------+------+------+--------+----------+----------+---------+--------+
    |                              body (len bytes)                        |
    +----------------------------------------------------------------------+

The header is exactly :data:`repro.messages.base.MESSAGE_HEADER_SIZE`
(20) bytes — the framing the ``wire_size()`` accounting has always charged
per message ("type tag, lengths, sender id") is now the literal layout.

``kind`` distinguishes payload frames from transport control traffic:

* ``KIND_MESSAGE`` — a bare protocol message (body: one encoded value);
* ``KIND_ENVELOPE`` — a stage-addressed message (body: source node,
  source stage, destination stage, message);
* ``KIND_HELLO`` — first frame of a connection, body is the sender's
  node name (UTF-8);
* ``KIND_PING`` — heartbeat, empty body.

``crc32`` covers the body; a mismatch raises
:class:`~repro.errors.WireIntegrityError` so tampered or corrupted bytes
fail cleanly instead of decoding into garbage.  ``sender`` is the CRC-32
of the sending node's name — a routing diagnostic, not an authenticator
(authenticity comes from MACs and TrInX certificates inside the body).
"""

from __future__ import annotations

import functools
import struct
import zlib
from typing import NamedTuple

from repro.errors import WireFormatError, WireIntegrityError
from repro.messages.base import MESSAGE_HEADER_SIZE

MAGIC = b"Hy"
WIRE_VERSION = 1

KIND_MESSAGE = 1
KIND_ENVELOPE = 2
KIND_HELLO = 3
KIND_PING = 4

_KINDS = (KIND_MESSAGE, KIND_ENVELOPE, KIND_HELLO, KIND_PING)

_HEADER = struct.Struct(">2sBBHIII2s")
FRAME_HEADER_SIZE = _HEADER.size
assert FRAME_HEADER_SIZE == MESSAGE_HEADER_SIZE, "frame header must match the accounting constant"

# A single frame may carry a full state-transfer snapshot, but anything
# beyond this is a protocol error (or an attack), not a real message.
MAX_BODY_SIZE = 64 * 1024 * 1024


@functools.lru_cache(maxsize=1024)
def sender_tag(node: str) -> int:
    """The 32-bit sender diagnostic carried in the frame header."""
    return zlib.crc32(node.encode("utf-8"))


class Frame(NamedTuple):
    """A parsed, integrity-checked frame."""

    kind: int
    type_id: int
    sender: int
    body: bytes

    @property
    def size(self) -> int:
        return FRAME_HEADER_SIZE + len(self.body)


def encode_frame(kind: int, type_id: int, body: bytes | bytearray, sender: int = 0) -> bytes:
    """Serialize one frame (header + body) into one new ``bytes``."""
    if kind not in _KINDS:
        raise WireFormatError(f"unknown frame kind {kind}")
    if len(body) > MAX_BODY_SIZE:
        raise WireFormatError(f"frame body of {len(body)} bytes exceeds {MAX_BODY_SIZE}")
    return _HEADER.pack(
        MAGIC, WIRE_VERSION, kind, type_id, len(body), zlib.crc32(body), sender, b"\x00\x00"
    ) + body


def _parse_header(data: bytes | memoryview, offset: int = 0) -> tuple[int, int, int, int, int]:
    """Validate the header at ``offset``; returns (kind, type_id, body_len, crc, sender)."""
    if len(data) - offset < FRAME_HEADER_SIZE:
        raise WireFormatError(
            f"truncated frame header ({len(data) - offset} < {FRAME_HEADER_SIZE} bytes)"
        )
    magic, version, kind, type_id, body_len, crc, sender, _reserved = _HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        raise WireFormatError(f"bad magic {bytes(magic)!r}")
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version} (expected {WIRE_VERSION})")
    if kind not in _KINDS:
        raise WireFormatError(f"unknown frame kind {kind}")
    if body_len > MAX_BODY_SIZE:
        raise WireFormatError(f"frame body of {body_len} bytes exceeds {MAX_BODY_SIZE}")
    return kind, type_id, body_len, crc, sender


def open_frame(data: bytes) -> tuple[int, int, int]:
    """Check one complete frame, body left in place; returns (kind, type_id, sender).

    Raises :class:`WireFormatError` for truncated or malformed frames and
    :class:`WireIntegrityError` when the body fails its checksum.
    """
    kind, type_id, body_len, crc, sender = _parse_header(data)
    if len(data) != FRAME_HEADER_SIZE + body_len:
        raise WireFormatError(
            f"frame length mismatch: header announces {body_len} body bytes, "
            f"buffer holds {len(data) - FRAME_HEADER_SIZE}"
        )
    if zlib.crc32(memoryview(data)[FRAME_HEADER_SIZE:]) != crc:
        raise WireIntegrityError("frame body checksum mismatch (corrupted or tampered bytes)")
    return kind, type_id, sender


def decode_frame(data: bytes) -> Frame:
    """Parse exactly one complete frame from ``data`` (see :func:`open_frame`)."""
    kind, type_id, sender = open_frame(data)
    return Frame(kind, type_id, sender, bytes(data[FRAME_HEADER_SIZE:]))


class FrameReader:
    """Incremental frame parser for a TCP byte stream.

    Feed raw socket reads in with :meth:`feed`; complete, validated frames
    come out.  Malformed input raises immediately — a stream that ever
    desynchronizes cannot be trusted again, so the transport drops the
    connection and lets the reconnect logic start clean.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.frames_parsed = 0
        self.bytes_consumed = 0

    def feed(self, data: bytes) -> list[Frame]:
        """Append ``data``; return every frame completed by it.

        One pass: headers are parsed in place, each body is copied once,
        and what is left of the read is kept for the next call.
        """
        buffer = self._buffer
        if buffer:
            buffer += data
            if len(buffer) < FRAME_HEADER_SIZE or (
                len(buffer) < FRAME_HEADER_SIZE + _parse_header(buffer)[2]
            ):
                return []  # still inside the first frame: no copy
            data = bytes(buffer)
            buffer.clear()
        frames: list[Frame] = []
        offset = 0
        size = len(data)
        while size - offset >= FRAME_HEADER_SIZE:
            kind, type_id, body_len, crc, sender = _parse_header(data, offset)
            end = offset + FRAME_HEADER_SIZE + body_len
            if end > size:
                break
            body = data[offset + FRAME_HEADER_SIZE : end]
            if zlib.crc32(body) != crc:
                raise WireIntegrityError("frame body checksum mismatch (corrupted or tampered bytes)")
            frames.append(Frame(kind, type_id, sender, body))
            offset = end
        if offset < size:
            buffer += data[offset:]
        self.frames_parsed += len(frames)
        self.bytes_consumed += offset
        return frames

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)
