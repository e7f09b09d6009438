"""Simulated key material.

Real asymmetric cryptography is irrelevant to reproducing the paper's
measurements; what matters is *identity*: whether the certificate a
server presents chains to a trusted root, and whether a DANE TLSA
record's fingerprint matches the presented key.  A :class:`KeyPair` is
therefore an opaque unique token with a stable fingerprint, hashed once
when the key is made.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

_counter = itertools.count(1)


@dataclass(frozen=True, slots=True)
class KeyPair:
    """An opaque simulated keypair."""

    key_id: int = field(default_factory=lambda: next(_counter))
    label: str = ""
    _fingerprint: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        digest = hashlib.sha256(f"spki:{self.key_id}".encode()).hexdigest()
        object.__setattr__(self, "_fingerprint", digest[:56])

    def fingerprint(self) -> str:
        """A stable hex fingerprint of the public key (SPKI digest)."""
        return self._fingerprint

    def sign(self, payload: str) -> str:
        """Produce a deterministic "signature" binding payload to key."""
        return hashlib.sha256(
            f"sig:{self.key_id}:{payload}".encode()).hexdigest()[:40]

    def verify(self, payload: str, signature: str) -> bool:
        return self.sign(payload) == signature
