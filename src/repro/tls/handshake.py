"""TLS handshake simulation.

A server-side :class:`TlsEndpoint` owns certificates keyed by server
name; :func:`handshake` plays the client, sending SNI, receiving the
selected certificate, and optionally validating it against a trust
store.  The failure modes mirror what the paper's scanner observed:

* servers with no TLS support at all (``NO_TLS_SUPPORT``);
* servers that send a fatal alert when no certificate matches the SNI
  (``NO_CERTIFICATE`` — the DMARCReport "SSL alert" class in §4.3.3);
* certificates that fail PKIX validation (delegated to
  :mod:`repro.pki.validation`).

Scanners can also complete the handshake *without* validation to
retrieve the certificate for offline analysis, exactly as the
instrumented SMTP client in §4.1 does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.clock import Instant
from repro.dns.name import DnsName, canonical_host
from repro.errors import TlsError, TlsFailure
from repro.pki.ca import TrustStore
from repro.pki.certificate import Certificate, hostname_matches
from repro.pki.validation import ValidationResult, validate_chain_cached


@dataclass(slots=True)
class TlsEndpoint:
    """Server-side TLS configuration.

    *certificates* maps exact or wildcard server-name patterns to the
    certificate presented for that SNI.  *default_certificate* is used
    when no pattern matches and *strict_sni* is off; with *strict_sni*
    on, an unmatched SNI produces a fatal alert (the
    ``unrecognized_name`` behaviour common on shared hosting).
    """

    enabled: bool = True
    certificates: Dict[str, Certificate] = field(default_factory=dict)
    default_certificate: Optional[Certificate] = None
    strict_sni: bool = False
    #: SNIs answered with a fatal alert regardless of other config —
    #: models shared hosting that never installed a certificate for one
    #: particular customer name.
    alert_snis: set = field(default_factory=set)

    def install(self, pattern: str, cert: Certificate, *,
                default: bool = False) -> None:
        pattern = canonical_host(pattern)
        self.certificates[pattern] = cert
        self.alert_snis.discard(pattern)
        if default or self.default_certificate is None:
            self.default_certificate = cert

    def uninstall(self, pattern: str) -> None:
        self.certificates.pop(canonical_host(pattern), None)

    def alert_for(self, sni: str) -> None:
        """Make this endpoint fatally alert for one SNI."""
        sni = canonical_host(sni)
        self.certificates.pop(sni, None)
        self.alert_snis.add(sni)

    def select_certificate(self, sni: str) -> Optional[Certificate]:
        sni = canonical_host(sni)
        if sni in self.alert_snis:
            return None
        exact = self.certificates.get(sni)
        if exact is not None:
            return exact
        for pattern, cert in sorted(self.certificates.items()):
            if hostname_matches(pattern, sni):
                return cert
        if self.strict_sni:
            return None
        return self.default_certificate


@dataclass
class TlsSession:
    """A completed handshake: the certificate the server presented."""

    server_name: str
    certificate: Certificate
    validation: Optional[ValidationResult] = None

    @property
    def validated(self) -> bool:
        return self.validation is not None and self.validation.valid


def handshake(endpoint: TlsEndpoint, server_name: str | DnsName,
              *, trust_store: Optional[TrustStore] = None,
              now: Optional[Instant] = None) -> TlsSession:
    """Client side of a TLS handshake with *endpoint*.

    With *trust_store* and *now* supplied the certificate is validated
    and a failed validation raises :class:`TlsError`; without them the
    handshake completes unauthenticated (certificate retrieval mode)
    unless the server cannot negotiate TLS at all.
    """
    name = server_name.text if isinstance(server_name, DnsName) else server_name
    name = canonical_host(name)

    if not endpoint.enabled:
        raise TlsError(TlsFailure.NO_TLS_SUPPORT,
                       f"{name}: server does not support TLS")
    certificate = endpoint.select_certificate(name)
    if certificate is None:
        raise TlsError(TlsFailure.NO_CERTIFICATE,
                       f"{name}: fatal alert, no certificate for SNI")

    validation: Optional[ValidationResult] = None
    if trust_store is not None:
        if now is None:
            raise ValueError("validation requires the current instant")
        validation = validate_chain_cached(certificate, name, trust_store, now)
        if not validation.valid:
            assert validation.failure is not None
            raise TlsError(validation.failure,
                           f"{name}: {validation.detail}")
    return TlsSession(name, certificate, validation)
