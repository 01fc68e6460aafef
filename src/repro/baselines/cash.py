"""Cost model of CASH, the FPGA-based trusted subsystem behind CheapBFT.

The paper (§6.1) reports 57 µs per certification of a 32-byte message
with SHA-256, i.e. ~17,500 certifications per second — and, crucially,
the FPGA is reachable over a *single channel*: no matter how many cores
ask for certificates, requests serialize.  TrInX beats it both on raw
latency (4.15 µs) and by scaling through instance multiplication.

The class below implements the same HMAC interface as TrInX's trusted
MACs but charges the FPGA round-trip and serializes all callers through
one channel, so Figure 5a's comparison can be *simulated* rather than
asserted.
"""

from __future__ import annotations

import hmac
from typing import Any

from repro.crypto.digests import canonical_bytes
from repro.sim.kernel import Simulator

CASH_CERT_NS = 57_000


class CashSubsystem:
    """A single-channel FPGA trusted subsystem with monotonic counters."""

    def __init__(self, sim: Simulator | None, instance_id: str, group_secret: bytes, num_counters: int = 4):
        self.sim = sim
        self.instance_id = instance_id
        self._group_secret = group_secret
        self._counters = [0] * num_counters
        self._channel_available_at = 0
        self.certificates_issued = 0

    def _occupy_channel(self) -> None:
        """Serialize the caller through the single FPGA channel."""
        if self.sim is None:
            return
        now = self.sim.now
        start = max(now, self._channel_available_at)
        finish = start + CASH_CERT_NS
        self._channel_available_at = finish
        # the calling thread is busy for the whole queueing + service time
        self.sim.charge(finish - now)

    def create_certificate(self, counter: int, new_value: int, message: Any) -> bytes:
        """Certify ``message`` with a counter update (TrInc-style)."""
        if new_value < self._counters[counter]:
            raise ValueError(f"counter {counter} cannot regress to {new_value}")
        self._occupy_channel()
        self._counters[counter] = new_value
        self.certificates_issued += 1
        return hmac.digest(
            self._group_secret,
            canonical_bytes(("cash", self.instance_id, counter, new_value, message)),
            "sha256",
        )

    def verify_certificate(
        self, issuer: str, counter: int, value: int, message: Any, mac: bytes
    ) -> bool:
        self._occupy_channel()
        expected = hmac.digest(
            self._group_secret,
            canonical_bytes(("cash", issuer, counter, value, message)),
            "sha256",
        )
        return hmac.compare_digest(expected, mac)

    def current_value(self, counter: int) -> int:
        return self._counters[counter]
