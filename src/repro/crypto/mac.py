"""HMAC-SHA256 message authentication codes.

These are the *untrusted* MACs of the paper: any holder of the session key
can produce them, so they provide authenticity but not non-repudiability.
Trusted MACs (non-repudiable, enclave-held key) live in :mod:`repro.trinx`.
"""

from __future__ import annotations

import hmac
import hashlib
from typing import Any, Iterable, Sequence

from repro.crypto.digests import canonical_bytes, write_canonical

MAC_SIZE = 32


def compute_mac(key: bytes, data: Any) -> bytes:
    """HMAC-SHA256 of the canonical serialization of ``data``."""
    return hmac.digest(key, canonical_bytes(data), "sha256")


def _pack_items(items: Iterable[Any]) -> tuple[bytearray, list[tuple[int, int]]]:
    """Serialize ``items`` back to back into one buffer, returning slices.

    The hot path MACs whole batches of requests/replies at once; packing
    them into a single contiguous buffer and hashing ``memoryview`` slices
    avoids one allocation per item.
    """
    buffer = bytearray()
    spans: list[tuple[int, int]] = []
    for item in items:
        start = len(buffer)
        write_canonical(buffer, item)
        spans.append((start, len(buffer)))
    return buffer, spans


def compute_mac_many(key: bytes, items: Sequence[Any]) -> list[bytes]:
    """Vectorized :func:`compute_mac`: one buffer, one HMAC per slice."""
    buffer, spans = _pack_items(items)
    view = memoryview(buffer)
    return [hmac.digest(key, view[a:b], "sha256") for a, b in spans]


def digest_many(items: Sequence[Any]) -> list[bytes]:
    """Vectorized SHA-256 over the canonical serialization of each item."""
    buffer, spans = _pack_items(items)
    view = memoryview(buffer)
    return [hashlib.sha256(view[a:b]).digest() for a, b in spans]


def verify_mac(key: bytes, data: Any, mac: bytes) -> bool:
    """Constant-time verification of an HMAC produced by :func:`compute_mac`."""
    return hmac.compare_digest(compute_mac(key, data), mac)


def session_key(group_secret: bytes, party_a: str, party_b: str) -> bytes:
    """Derive the pairwise session key between two parties.

    The derivation is symmetric (ordering of the parties does not matter),
    mirroring the pairwise keys PBFT establishes between every replica and
    client pair for its authenticators.
    """
    first, second = sorted((party_a, party_b))
    material = canonical_bytes((first, second))
    return hmac.digest(group_secret, b"session" + material, "sha256")
