"""Cost-charging facade over the crypto primitives.

Each protocol stage owns a :class:`CryptoProvider` configured with the
library profile its real-world counterpart would use (pure Java for the
prototype's untrusted code, TCrypto inside enclaves).  Every operation
computes the real value *and* charges its calibrated CPU cost to the
simulator, so benchmark results reflect both the number and the size of
cryptographic operations each protocol performs — the quantity the paper's
§6.2 analysis turns on.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
from typing import Any, Callable, Sequence

from repro.crypto import costs
from repro.crypto import mac as mac_mod
from repro.crypto.digests import canonical_bytes


class CryptoProvider:
    """Computes digests/MACs and charges their CPU cost.

    ``charge`` is typically ``Simulator.charge``; pass ``None`` in unit
    tests to run cost-free.  ``ops`` and ``bytes_processed`` counters
    support assertions on *how much* crypto a protocol performed.
    """

    def __init__(
        self,
        profile: costs.CryptoCostProfile = costs.JAVA,
        charge: Callable[[int], None] | None = None,
    ):
        self.profile = profile
        self._charge = charge
        self.ops = 0
        self.bytes_processed = 0

    def _account(self, size: int) -> None:
        self.ops += 1
        self.bytes_processed += size
        if self._charge is not None:
            self._charge(self.profile.op_ns(size))

    def _account_batch(self, count: int, total: int) -> None:
        self.ops += count
        self.bytes_processed += total
        if self._charge is not None:
            self._charge(self.profile.batch_ns(count, total))

    # ------------------------------------------------------------------
    def digest(self, data: Any, size_hint: int | None = None) -> bytes:
        """SHA-256 digest; cost charged for ``size_hint`` (or serialized) bytes."""
        raw = canonical_bytes(data)
        self._account(size_hint if size_hint is not None else len(raw))
        return hashlib.sha256(raw).digest()

    def compute_mac(self, key: bytes, data: Any, size_hint: int | None = None) -> bytes:
        """HMAC-SHA256; cost charged like :meth:`digest`."""
        raw = canonical_bytes(data)
        self._account(size_hint if size_hint is not None else len(raw))
        return hmac_mod.digest(key, raw, "sha256")

    def verify_mac(self, key: bytes, data: Any, tag: bytes, size_hint: int | None = None) -> bool:
        """Verify an HMAC; verification costs the same as computation."""
        expected = self.compute_mac(key, data, size_hint=size_hint)
        return hmac_mod.compare_digest(expected, tag)

    # ------------------------------------------------------------------
    # Vectorized batch operations (the hot-path amortization knob): one
    # contiguous serialization buffer, memoryview slices per item, one
    # amortized cost charge for the whole pass.
    # ------------------------------------------------------------------
    def compute_mac_batch(
        self, key: bytes, items: Sequence[Any], size_hint_each: int | None = None
    ) -> list[bytes]:
        """HMAC-SHA256 of every item in one vectorized pass."""
        if not items:
            return []
        buffer, spans = mac_mod._pack_items(items)
        total = (
            size_hint_each * len(items) if size_hint_each is not None else len(buffer)
        )
        self._account_batch(len(items), total)
        view = memoryview(buffer)
        return [hmac_mod.digest(key, view[a:b], "sha256") for a, b in spans]

    def digest_batch(
        self, items: Sequence[Any], size_hint_each: int | None = None
    ) -> list[bytes]:
        """SHA-256 of every item in one vectorized pass."""
        if not items:
            return []
        buffer, spans = mac_mod._pack_items(items)
        total = (
            size_hint_each * len(items) if size_hint_each is not None else len(buffer)
        )
        self._account_batch(len(items), total)
        view = memoryview(buffer)
        return [hashlib.sha256(view[a:b]).digest() for a, b in spans]


__all__ = ["CryptoProvider"]
