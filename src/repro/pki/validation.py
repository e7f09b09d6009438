"""PKIX validation and failure classification.

:func:`validate_chain` reproduces the decisions the paper's scanner
makes about every certificate it retrieves — from policy servers
(Figure 5's TLS bar) and MX hosts (Figure 6) — and
:func:`classify_failure` maps each outcome onto the paper's reported
error classes: Common Name / SAN mismatch, self-signed, expired, and
missing/untrusted certificates.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.clock import Instant
from repro.dns.name import DnsName, canonical_host
from repro.errors import TlsFailure
from repro.pki.ca import TrustStore
from repro.pki.certificate import Certificate


@dataclass(frozen=True, slots=True)
class ValidationResult:
    """Outcome of PKIX validation of one presented certificate."""

    valid: bool
    failure: Optional[TlsFailure] = None
    detail: str = ""

    @classmethod
    def ok(cls) -> "ValidationResult":
        return cls(True)

    @classmethod
    def fail(cls, failure: TlsFailure, detail: str = "") -> "ValidationResult":
        return cls(False, failure, detail)


def verify_hostname(cert: Certificate,
                    hostname: str | DnsName) -> ValidationResult:
    """Check only the name binding (CN/SAN coverage)."""
    if cert.covers_hostname(hostname):
        return ValidationResult.ok()
    host = hostname.text if isinstance(hostname, DnsName) else hostname
    return ValidationResult.fail(
        TlsFailure.HOSTNAME_MISMATCH,
        f"certificate names {cert.san or (cert.subject_cn,)} "
        f"do not cover {host}")


def validate_chain(cert: Optional[Certificate],
                   hostname: str | DnsName,
                   trust_store: TrustStore,
                   now: Instant) -> ValidationResult:
    """Full PKIX validation of a presented leaf certificate.

    Check order mirrors what scanners observe in practice: missing
    certificate, then trust (self-signed vs unknown issuer), then
    validity window, then revocation, then hostname.  The first failure
    wins — the same convention the paper uses when attributing each
    domain to a single TLS error class.
    """
    if cert is None:
        return ValidationResult.fail(
            TlsFailure.NO_CERTIFICATE, "server presented no certificate")

    if cert.self_signed:
        if not trust_store.is_trusted_root(cert):
            return ValidationResult.fail(
                TlsFailure.SELF_SIGNED,
                f"self-signed certificate for {cert.subject_cn}")
    else:
        issuer = trust_store.find_issuer(cert)
        if issuer is None:
            return ValidationResult.fail(
                TlsFailure.UNTRUSTED_ROOT,
                f"issuer {cert.issuer_cn!r} is not a trusted root")
        if not cert.signature_valid():
            return ValidationResult.fail(
                TlsFailure.HANDSHAKE_ALERT,
                "certificate signature does not verify")
        if not issuer.valid_at(now):
            return ValidationResult.fail(
                TlsFailure.UNTRUSTED_ROOT, "issuing root expired")

    if now < cert.not_before:
        return ValidationResult.fail(
            TlsFailure.NOT_YET_VALID,
            f"certificate not valid before {cert.not_before}")
    if now > cert.not_after:
        return ValidationResult.fail(
            TlsFailure.EXPIRED,
            f"certificate expired at {cert.not_after}")
    if cert.revoked:
        return ValidationResult.fail(TlsFailure.REVOKED, "certificate revoked")

    return verify_hostname(cert, hostname)


class _ChainValidationCache:
    """Memoizes :func:`validate_chain` outcomes.

    The scan pipeline validates the same certificates over and over —
    provider MX farms and wildcard policy-host certificates are
    presented to thousands of domains per snapshot.  ``validate_chain``
    is a pure function of (certificate, hostname, trust store contents,
    instant), so its result is cached keyed by the certificate
    fingerprint plus those inputs.  Trust stores are held weakly and
    carry a ``generation`` counter bumped on root changes, so mutating
    a store can never serve a stale verdict.
    """

    def __init__(self):
        self._stores: "weakref.WeakKeyDictionary[TrustStore, Dict[Tuple, ValidationResult]]" = (
            weakref.WeakKeyDictionary())
        self.validations = 0
        self.cache_hits = 0

    def validate(self, cert: Optional[Certificate],
                 hostname: str | DnsName,
                 trust_store: TrustStore, now: Instant) -> ValidationResult:
        if cert is None:
            return validate_chain(cert, hostname, trust_store, now)
        host = canonical_host(hostname)
        # ``revoked`` is excluded from the fingerprint's signed payload,
        # so it is part of the key explicitly.
        key = (cert.cert_fingerprint(), cert.revoked, host,
               getattr(trust_store, "generation", 0), now.epoch_seconds)
        entries = self._stores.get(trust_store)
        if entries is None:
            entries = {}
            self._stores[trust_store] = entries
        cached = entries.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.validations += 1
        result = validate_chain(cert, host, trust_store, now)
        entries[key] = result
        return result

    def stats(self) -> Dict[str, int | float]:
        lookups = self.validations + self.cache_hits
        return {
            "validations": self.validations,
            "cache_hits": self.cache_hits,
            "hit_rate": self.cache_hits / lookups if lookups else 0.0,
        }

    def flush(self) -> None:
        self._stores = weakref.WeakKeyDictionary()

    def reset_stats(self) -> None:
        self.validations = 0
        self.cache_hits = 0


_chain_cache = _ChainValidationCache()


def validate_chain_cached(cert: Optional[Certificate],
                          hostname: str | DnsName,
                          trust_store: TrustStore,
                          now: Instant) -> ValidationResult:
    """Memoized :func:`validate_chain` (same contract, shared cache)."""
    return _chain_cache.validate(cert, hostname, trust_store, now)


def chain_cache_stats() -> Dict[str, int | float]:
    return _chain_cache.stats()


def flush_chain_cache() -> None:
    _chain_cache.flush()


def reset_chain_cache_stats() -> None:
    _chain_cache.reset_stats()


def classify_failure(result: ValidationResult) -> str:
    """Map a validation failure to the paper's reporting buckets."""
    if result.valid:
        return "valid"
    mapping = {
        TlsFailure.HOSTNAME_MISMATCH: "cn-mismatch",
        TlsFailure.SELF_SIGNED: "self-signed",
        TlsFailure.UNTRUSTED_ROOT: "self-signed",   # untrusted ≅ private PKI
        TlsFailure.EXPIRED: "expired",
        TlsFailure.NOT_YET_VALID: "expired",
        TlsFailure.NO_CERTIFICATE: "no-certificate",
        TlsFailure.REVOKED: "revoked",
        TlsFailure.HANDSHAKE_ALERT: "handshake-alert",
        TlsFailure.NO_TLS_SUPPORT: "no-tls",
    }
    assert result.failure is not None
    return mapping[result.failure]
