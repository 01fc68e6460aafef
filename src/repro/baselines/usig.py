"""USIG — MinBFT's trusted subsystem (Unique Sequential Identifier Generator).

Compared with TrInc/TrInX, USIG has the simplest possible interface: one
counter, implicitly incremented on every certification.  A UI (unique
identifier) binds a message to exactly one counter value, so a replica
cannot assign the same identifier to two different messages — MinBFT's
equivocation-*detection* mechanism (§4.2: the place of a message in the
timeline is determined at run time by whatever the counter happens to
be, not a priori).

Costs mirror TrInX: every create/verify is an enclave call.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from typing import Any

from repro.crypto.digests import canonical_bytes
from repro.trinx.enclave import EnclavePlatform


@dataclass(frozen=True)
class UI:
    """A unique identifier: (issuer, counter value, certificate)."""

    issuer: str
    value: int
    mac: bytes

    def wire_size(self) -> int:
        return 16 + 32


class Usig:
    """One USIG instance: a single implicitly incremented counter."""

    def __init__(self, platform: EnclavePlatform, instance_id: str, group_secret: bytes):
        self.platform = platform
        self.instance_id = instance_id
        self._group_secret = group_secret
        self._counter = 0
        self.uis_issued = 0

    @property
    def counter(self) -> int:
        return self._counter

    def _mac(self, issuer: str, value: int, message: Any) -> bytes:
        return hmac.digest(
            self._group_secret,
            canonical_bytes(("usig", issuer, value, message)),
            "sha256",
        )

    def create_ui(self, message: Any, size_hint: int = 32) -> UI:
        """Certify ``message`` with the next counter value (implicit ++)."""
        self._counter += 1
        self.uis_issued += 1
        self.platform.account_call(size_hint)
        return UI(self.instance_id, self._counter, self._mac(self.instance_id, self._counter, message))

    def verify_ui(self, ui: UI, message: Any, size_hint: int = 32) -> bool:
        """Verify a UI issued by any USIG instance of the group."""
        self.platform.account_call(size_hint)
        expected = self._mac(ui.issuer, ui.value, message)
        return hmac.compare_digest(expected, ui.mac)
