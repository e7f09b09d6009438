"""Certificates.

A :class:`Certificate` binds names (Common Name + Subject Alternative
Names, with RFC 6125 wildcard semantics) to a keypair for a validity
window, signed by an issuer.  Self-signed certificates — a recurring
failure class in the paper's Figures 5 and 6 — are certificates whose
issuer keypair is their own.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.clock import Instant
from repro.dns.name import DnsName, canonical_host
from repro.pki.keys import KeyPair


def hostname_matches(pattern: str, hostname: str) -> bool:
    """RFC 6125-style matching of a certificate name against a hostname.

    A leading ``*.`` wildcard matches exactly one leftmost label; the
    wildcard never matches an empty label or crosses label boundaries.
    Matching is case-insensitive.
    """
    pattern = canonical_host(pattern)
    hostname = canonical_host(hostname)
    if not pattern or not hostname:
        return False
    if pattern == hostname:
        return True
    if pattern.startswith("*."):
        suffix = pattern[2:]
        if not suffix:
            return False
        host_labels = hostname.split(".")
        if len(host_labels) < 2:
            return False
        return ".".join(host_labels[1:]) == suffix and bool(host_labels[0])
    return False


@dataclass(frozen=True, slots=True)
class Certificate:
    """An X.509-like certificate in the simulated PKI.

    Its identity — the certificate fingerprint and the signature
    verdict — is a pure function of the frozen fields, so each is
    computed on first use and kept on the object; a
    ``dataclasses.replace`` copy starts without them.
    """

    subject_cn: str
    san: Tuple[str, ...]
    key: KeyPair
    issuer_cn: str
    issuer_key: KeyPair
    not_before: Instant
    not_after: Instant
    signature: str = ""
    is_ca: bool = False
    revoked: bool = False
    _fingerprint: Optional[str] = field(
        default=None, init=False, repr=False, compare=False)
    _signature_ok: Optional[bool] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def self_signed(self) -> bool:
        return self.issuer_key == self.key

    def tbs_payload(self) -> str:
        names = ",".join(sorted(self.san))
        return (f"cn={self.subject_cn};san={names};key={self.key.fingerprint()};"
                f"nb={self.not_before.epoch_seconds};na={self.not_after.epoch_seconds};"
                f"ca={self.is_ca}")

    def signature_valid(self) -> bool:
        verdict = self._signature_ok
        if verdict is None:
            verdict = self.issuer_key.verify(self.tbs_payload(),
                                             self.signature)
            object.__setattr__(self, "_signature_ok", verdict)
        return verdict

    def valid_at(self, when: Instant) -> bool:
        return self.not_before <= when <= self.not_after

    def covers_hostname(self, hostname: str | DnsName) -> bool:
        """True when CN or any SAN matches *hostname*.

        Per RFC 6125 the SAN list takes precedence; like most SMTP
        scanners (and the paper's), we accept a CN match when the SAN
        list is empty.
        """
        host = hostname.text if isinstance(hostname, DnsName) else hostname
        if self.san:
            return any(hostname_matches(p, host) for p in self.san)
        return hostname_matches(self.subject_cn, host)

    def spki_fingerprint(self) -> str:
        return self.key.fingerprint()

    def cert_fingerprint(self) -> str:
        fingerprint = self._fingerprint
        if fingerprint is None:
            fingerprint = hashlib.sha256(
                (self.tbs_payload() + self.signature).encode()
            ).hexdigest()[:56]
            object.__setattr__(self, "_fingerprint", fingerprint)
        return fingerprint


@dataclass
class CertTemplate:
    """What a requester asks a CA (or itself) to certify."""

    names: Sequence[str]
    key: Optional[KeyPair] = None
    lifetime_days: int = 90

    def primary_name(self) -> str:
        if not self.names:
            raise ValueError("certificate template needs at least one name")
        return self.names[0]


def make_self_signed(template: CertTemplate, now: Instant) -> Certificate:
    """Issue a self-signed leaf — the classic misconfiguration."""
    from repro.clock import DAY

    key = template.key or KeyPair(label=f"self:{template.primary_name()}")
    cert = Certificate(
        subject_cn=template.primary_name(),
        san=tuple(template.names),
        key=key,
        issuer_cn=template.primary_name(),
        issuer_key=key,
        not_before=now,
        not_after=now + DAY * template.lifetime_days,
    )
    return _sign(cert, key)


def _sign(cert: Certificate, issuer_key: KeyPair) -> Certificate:
    from dataclasses import replace
    signature = issuer_key.sign(cert.tbs_payload())
    return replace(cert, signature=signature)
