"""The TrInX trusted-counter instance.

One :class:`TrInX` object corresponds to one enclave: in HybsterS a
replica has a single instance; in HybsterX every pillar gets its own.
The API follows §5.1 of the paper:

* ``create_continuing(tc, tv', m)`` — requires ``tv' >= tv``; the MAC
  covers the previous value ``tv``, then the counter advances to ``tv'``.
  With ``tv' == tv`` this degenerates into a *trusted MAC* (several
  certificates may share the value, bound to different messages).
* ``create_independent(tc, tv', m)`` — requires ``tv' > tv`` strictly, so
  at most one valid certificate exists per counter value; the previous
  value is not part of the MAC.
* multi-counter variants amortize one enclave call over many counters.
* ``verify*`` — any instance holding the group secret can verify any
  certificate; verification never mutates counters.

Faulty replicas in the tests attack *through* this API (choosing counter
values, skipping views); the enclave itself is trusted and only fails by
crashing, which is exactly the hybrid fault model.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Any, Sequence

from repro.crypto.digests import canonical_bytes
from repro.errors import CounterRegressionError, UnknownCounterError
from repro.trinx.certificates import CounterCertificate, MultiCounterCertificate
from repro.trinx.enclave import EnclavePlatform, SealedState

_CONTINUING_TAG = "trinx-continuing"
_INDEPENDENT_TAG = "trinx-independent"
_MULTI_TAG = "trinx-multi"
_BATCH_TAG = "trinx-batch"

# Accounting for batched certification: the untrusted side hands the
# enclave the proposal header plus one 32-byte digest per request, so the
# enclave hashes ``header + 32 * n`` bytes instead of the whole batch.
BATCH_HEADER_HINT = 32
BATCH_LEAF_SIZE = 32


def batch_size_hint(num_leaves: int) -> int:
    """Bytes the enclave hashes for a batched certificate."""
    return BATCH_HEADER_HINT + BATCH_LEAF_SIZE * num_leaves


def batch_root(leaf_digests: Sequence[bytes]) -> bytes:
    """Order-sensitive root over per-request leaf digests.

    A flat hash chain rather than a Merkle tree: batches are small (tens
    of requests) and verifiers always hold the whole batch, so membership
    proofs are never needed — only the all-or-nothing binding.  The leaf
    count is mixed in so a batch cannot be extended or truncated.
    """
    hasher = hashlib.sha256(b"trinx-batch-root")
    hasher.update(len(leaf_digests).to_bytes(4, "big"))
    for leaf in leaf_digests:
        hasher.update(leaf)
    return hasher.digest()


class TrInX:
    """A single TrInX enclave instance with ``num_counters`` counters."""

    def __init__(
        self,
        platform: EnclavePlatform,
        instance_id: str,
        group_secret: bytes,
        num_counters: int = 4,
    ):
        if num_counters < 1:
            raise UnknownCounterError("a TrInX instance needs at least one counter")
        self.platform = platform
        self.instance_id = instance_id
        self._group_secret = group_secret
        self._counters = [0] * num_counters
        self.certificates_issued = 0

    # ------------------------------------------------------------------
    # Introspection (untrusted view)
    # ------------------------------------------------------------------
    @property
    def num_counters(self) -> int:
        return len(self._counters)

    def current_value(self, counter: int) -> int:
        self._check_counter(counter)
        return self._counters[counter]

    def _check_counter(self, counter: int) -> None:
        if not 0 <= counter < len(self._counters):
            raise UnknownCounterError(
                f"counter {counter} out of range [0, {len(self._counters)}) on {self.instance_id!r}"
            )

    # ------------------------------------------------------------------
    # MAC core (conceptually inside the enclave)
    # ------------------------------------------------------------------
    def _mac(self, fields: tuple) -> bytes:
        return hmac.digest(self._group_secret, canonical_bytes(fields), "sha256")

    @staticmethod
    def _message_digest(message: Any) -> bytes:
        return hashlib.sha256(canonical_bytes(message)).digest()

    # ------------------------------------------------------------------
    # Certificate creation
    # ------------------------------------------------------------------
    def create_continuing(
        self, counter: int, new_value: int, message: Any, size_hint: int = 32
    ) -> CounterCertificate:
        """Issue ``tau(self, tc, tv', tv)``; requires ``tv' >= tv``."""
        self._check_counter(counter)
        current = self._counters[counter]
        if new_value < current:
            raise CounterRegressionError(
                f"continuing certificate needs new_value >= {current}, got {new_value}"
            )
        mac = self._mac(
            (_CONTINUING_TAG, self.instance_id, counter, new_value, current, self._message_digest(message))
        )
        self._counters[counter] = new_value
        self.certificates_issued += 1
        self.platform.account_call(size_hint)
        return CounterCertificate(self.instance_id, counter, new_value, current, mac)

    def create_independent(
        self, counter: int, new_value: int, message: Any, size_hint: int = 32
    ) -> CounterCertificate:
        """Issue ``tau(self, tc, tv', -)``; requires strictly ``tv' > tv``."""
        self._check_counter(counter)
        current = self._counters[counter]
        if new_value <= current:
            raise CounterRegressionError(
                f"independent certificate needs new_value > {current}, got {new_value}"
            )
        mac = self._mac(
            (_INDEPENDENT_TAG, self.instance_id, counter, new_value, self._message_digest(message))
        )
        self._counters[counter] = new_value
        self.certificates_issued += 1
        self.platform.account_call(size_hint)
        return CounterCertificate(self.instance_id, counter, new_value, None, mac)

    def create_independent_batch(
        self,
        counter: int,
        new_value: int,
        header: Any,
        leaf_digests: Sequence[bytes],
        size_hint: int | None = None,
    ) -> CounterCertificate:
        """One independent certificate over a whole request batch.

        TrInc-lineage batching: the untrusted side digests each request
        (cheap, vectorized, outside the enclave) and passes the proposal
        header plus the ordered leaf digests; the enclave binds the
        counter transition to the header digest and the *root* over the
        leaves.  Tampering with any member request, reordering the batch,
        or splicing a request from another certified batch changes the
        root and voids the certificate, yet the enclave only ever hashes
        ``header + 32 * n`` bytes.
        """
        self._check_counter(counter)
        current = self._counters[counter]
        if new_value <= current:
            raise CounterRegressionError(
                f"independent certificate needs new_value > {current}, got {new_value}"
            )
        root = batch_root(leaf_digests)
        mac = self._mac(
            (_BATCH_TAG, self.instance_id, counter, new_value, self._message_digest(header), root)
        )
        self._counters[counter] = new_value
        self.certificates_issued += 1
        self.platform.account_call(
            size_hint if size_hint is not None else batch_size_hint(len(leaf_digests))
        )
        return CounterCertificate(self.instance_id, counter, new_value, None, mac)

    def create_trusted_mac(self, counter: int, message: Any, size_hint: int = 32) -> CounterCertificate:
        """Non-repudiable MAC: a continuing certificate with ``tv' == tv``."""
        self._check_counter(counter)
        return self.create_continuing(counter, self._counters[counter], message, size_hint=size_hint)

    def create_multi_continuing(
        self, new_values: dict[int, int], message: Any, size_hint: int = 32
    ) -> MultiCounterCertificate:
        """One MAC attesting a continuing transition on several counters."""
        entries = []
        for counter in sorted(new_values):
            self._check_counter(counter)
            new_value = new_values[counter]
            current = self._counters[counter]
            if new_value < current:
                raise CounterRegressionError(
                    f"counter {counter}: continuing needs new_value >= {current}, got {new_value}"
                )
            entries.append((counter, new_value, current))
        mac = self._mac(
            (_MULTI_TAG, self.instance_id, tuple(entries), self._message_digest(message))
        )
        for counter, new_value, _previous in entries:
            self._counters[counter] = new_value
        self.certificates_issued += 1
        self.platform.account_call(size_hint)
        return MultiCounterCertificate(self.instance_id, tuple(entries), mac)

    # ------------------------------------------------------------------
    # Verification (any instance, any issuer, counters untouched)
    # ------------------------------------------------------------------
    def verify(self, certificate: CounterCertificate, message: Any, size_hint: int = 32) -> bool:
        """Recompute the MAC under the group secret; True iff it matches."""
        self.platform.account_call(size_hint)
        digest = self._message_digest(message)
        if certificate.previous_value is None:
            expected = self._mac(
                (_INDEPENDENT_TAG, certificate.issuer, certificate.counter, certificate.new_value, digest)
            )
        else:
            expected = self._mac(
                (
                    _CONTINUING_TAG,
                    certificate.issuer,
                    certificate.counter,
                    certificate.new_value,
                    certificate.previous_value,
                    digest,
                )
            )
        return hmac.compare_digest(expected, certificate.mac)

    def verify_batch(
        self,
        certificate: CounterCertificate,
        header: Any,
        leaf_digests: Sequence[bytes],
        size_hint: int | None = None,
    ) -> bool:
        """Verify a batched certificate against recomputed leaf digests.

        The verifier recomputes each request's leaf digest from the batch
        it actually received, so a certificate only verifies when *every*
        member is byte-identical and in the certified order.
        """
        self.platform.account_call(
            size_hint if size_hint is not None else batch_size_hint(len(leaf_digests))
        )
        expected = self._mac(
            (
                _BATCH_TAG,
                certificate.issuer,
                certificate.counter,
                certificate.new_value,
                self._message_digest(header),
                batch_root(leaf_digests),
            )
        )
        return hmac.compare_digest(expected, certificate.mac)

    def verify_multi(self, certificate: MultiCounterCertificate, message: Any, size_hint: int = 32) -> bool:
        self.platform.account_call(size_hint)
        expected = self._mac(
            (_MULTI_TAG, certificate.issuer, certificate.entries, self._message_digest(message))
        )
        return hmac.compare_digest(expected, certificate.mac)

    # ------------------------------------------------------------------
    # Sealing (restart / replay-protection model)
    # ------------------------------------------------------------------
    def seal(self) -> SealedState:
        """Seal the current counter state for a later restart."""
        return self.platform.seal(self.instance_id, tuple(self._counters), self._group_secret)

    @classmethod
    def launch(cls, platform: EnclavePlatform, state: SealedState) -> "TrInX":
        """Restart an instance from sealed state; stale state is refused."""
        platform.check_unseal(state)
        instance = cls(platform, state.enclave_id, state.group_secret, num_counters=len(state.counters))
        instance._counters = list(state.counters)
        return instance
