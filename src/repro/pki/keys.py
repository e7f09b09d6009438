"""Simulated key material.

Real asymmetric cryptography is irrelevant to reproducing the paper's
measurements; what matters is *identity*: whether the certificate a
server presents chains to a trusted root, and whether a DANE TLSA
record's fingerprint matches the presented key.  A :class:`KeyPair` is
therefore an opaque unique token with a stable fingerprint.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

_counter = itertools.count(1)


@dataclass(frozen=True)
class KeyPair:
    """An opaque simulated keypair."""

    key_id: int = field(default_factory=lambda: next(_counter))
    label: str = ""

    def fingerprint(self) -> str:
        """A stable hex fingerprint of the public key (SPKI digest)."""
        digest = hashlib.sha256(f"spki:{self.key_id}".encode()).hexdigest()
        return digest[:56]

    def sign(self, payload: str) -> str:
        """Produce a deterministic "signature" binding payload to key."""
        return hashlib.sha256(
            f"sig:{self.key_id}:{payload}".encode()).hexdigest()[:40]

    def verify(self, payload: str, signature: str) -> bool:
        return self.sign(payload) == signature
