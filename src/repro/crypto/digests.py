"""SHA-256 digests over arbitrary protocol data.

Protocol objects are canonically serialized before hashing so that two
replicas computing the digest of "the same" request or checkpoint state
always agree, regardless of in-memory representation.

The canonical bytes are a frozen format: they are hash input *and*, via
``len(raw)`` in :class:`~repro.crypto.provider.CryptoProvider`, cost input,
so changing them changes both every digest and the modelled CPU time.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any

# one type tag byte and a 4-byte big-endian length (or item count)
_header = struct.Struct(">cI").pack


def canonical_bytes(data: Any) -> bytes:
    """Serialize ``data`` into a canonical byte string for hashing.

    Supports bytes, str, int, bool, None, floats, and (nested) tuples,
    lists, dicts, and frozensets of those.  Dicts are serialized in sorted
    key order; type tags prevent cross-type collisions (``b"1"`` vs ``1``).
    """
    if type(data) is bytes:  # a raw block needs no buffer
        return _header(b"B", len(data)) + data
    out = bytearray()
    write_canonical(out, data)
    return bytes(out)


def write_canonical(out: bytearray, data: Any) -> None:
    """Append the canonical serialization of ``data`` to ``out``.

    Dispatches on the exact type of the shapes protocol messages are made
    of (str, int, None, bytes, tuple/list), writing scalars inside a
    container inline; everything else takes :func:`_write_other`.
    """
    kind = type(data)
    if kind is tuple or kind is list:
        out += _header(b"L", len(data))
        for item in data:
            kind = type(item)
            if kind is str:
                raw = item.encode()
                out += _header(b"S", len(raw))
                out += raw
            elif kind is int:
                raw = b"%d" % item
                out += _header(b"I", len(raw))
                out += raw
            elif item is None:
                out += b"N"
            elif kind is bytes:
                out += _header(b"B", len(item))
                out += item
            else:
                write_canonical(out, item)
    elif kind is str:
        raw = data.encode()
        out += _header(b"S", len(raw))
        out += raw
    elif kind is int:
        raw = b"%d" % data
        out += _header(b"I", len(raw))
        out += raw
    elif data is None:
        out += b"N"
    elif kind is bytes:
        out += _header(b"B", len(data))
        out += data
    else:
        _write_other(out, data)


def _write_other(out: bytearray, data: Any) -> None:
    """The type ladder for bool, float, frozenset, dict, ``digestible()``
    objects and subclasses of the fast-path types."""
    if isinstance(data, bytes):
        out += b"B" + len(data).to_bytes(4, "big") + data
    elif isinstance(data, str):
        raw = data.encode("utf-8")
        out += b"S" + len(raw).to_bytes(4, "big") + raw
    elif isinstance(data, bool):  # before int: bool is an int subclass
        out += b"T" if data else b"F"
    elif isinstance(data, int):
        raw = str(data).encode("ascii")
        out += b"I" + len(raw).to_bytes(4, "big") + raw
    elif isinstance(data, float):
        raw = repr(data).encode("ascii")
        out += b"D" + len(raw).to_bytes(4, "big") + raw
    elif isinstance(data, (tuple, list)):
        parts = [canonical_bytes(item) for item in data]
        out += b"L" + len(parts).to_bytes(4, "big") + b"".join(parts)
    elif isinstance(data, frozenset):
        parts = sorted(canonical_bytes(item) for item in data)
        out += b"Z" + len(parts).to_bytes(4, "big") + b"".join(parts)
    elif isinstance(data, dict):
        keys = sorted(data, key=canonical_bytes)
        out += b"M" + (2 * len(keys)).to_bytes(4, "big")
        for key in keys:
            write_canonical(out, key)
            write_canonical(out, data[key])
    else:
        digestible = getattr(data, "digestible", None)
        if not callable(digestible):
            raise TypeError(f"cannot canonically serialize {type(data).__name__}")
        write_canonical(out, digestible())


def digest(data: Any) -> bytes:
    """SHA-256 digest of the canonical serialization of ``data``."""
    return hashlib.sha256(canonical_bytes(data)).digest()


def digest_hex(data: Any) -> str:
    """Hex form of :func:`digest`, for traces and error messages."""
    return digest(data).hex()


DIGEST_SIZE = 32
