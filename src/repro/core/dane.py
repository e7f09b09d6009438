"""DANE for SMTP (RFC 7672) — the paper's baseline mechanism.

DANE pins an MX host's certificate or public key in DNSSEC-signed TLSA
records at ``_25._tcp.<mx-host>``.  The validator here implements the
usage/selector/matching-type combinations that matter for SMTP
(DANE-EE(3) and DANE-TA(2) usages; Cert(0)/SPKI(1) selectors;
Full(0)/SHA-256(1) matching collapse to fingerprint equality in the
simulated PKI) plus the DNSSEC gate: without a secure chain, TLSA
records are unusable and the sender behaves opportunistically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.dns.dnssec import ChainStatus, DnssecAuthority
from repro.dns.name import DnsName, canonical_host
from repro.dns.records import RRType, TlsaRecord
from repro.dns.resolver import Resolver
from repro.errors import DnsError
from repro.pki.certificate import Certificate


@dataclass
class TlsaVerdict:
    """The result of DANE verification against one presented cert."""

    matched: bool
    usable_records: int = 0
    detail: str = ""


def _record_matches(record: TlsaRecord, cert: Certificate) -> bool:
    if record.matching_type not in (0, 1):
        return False
    if record.selector == 1:
        presented = cert.spki_fingerprint()
    else:
        presented = cert.cert_fingerprint()
    return record.association == presented


def verify_dane(records: List[TlsaRecord],
                certificate: Optional[Certificate]) -> TlsaVerdict:
    """Match TLSA records against the presented certificate.

    Only usages 2 (DANE-TA) and 3 (DANE-EE) are usable for SMTP per
    RFC 7672; usage-3 matches directly against the leaf, usage-2
    against the issuer in a real chain — approximated here by matching
    the leaf's issuer key fingerprint.
    """
    usable = [r for r in records if r.usage in (2, 3)]
    if not usable:
        return TlsaVerdict(False, 0, "no usable TLSA records (usage 2/3)")
    if certificate is None:
        return TlsaVerdict(False, len(usable), "no certificate presented")
    for record in usable:
        if record.usage == 3 and _record_matches(record, certificate):
            return TlsaVerdict(True, len(usable), "DANE-EE match")
        if record.usage == 2:
            issuer_fp = certificate.issuer_key.fingerprint()
            if record.association == issuer_fp:
                return TlsaVerdict(True, len(usable), "DANE-TA match")
    return TlsaVerdict(False, len(usable),
                       "no TLSA record matches the presented certificate")


class DaneValidator:
    """Resolves and verifies TLSA records through the DNSSEC gate."""

    def __init__(self, resolver: Resolver, dnssec: DnssecAuthority):
        self._resolver = resolver
        self._dnssec = dnssec

    def tlsa_records(self, mx_hostname: str | DnsName) -> List[TlsaRecord]:
        name_text = canonical_host(
            mx_hostname.text if isinstance(mx_hostname, DnsName)
            else mx_hostname)
        tlsa_name = self._resolver.name(f"_25._tcp.{name_text}")
        try:
            answer = self._resolver.resolve(tlsa_name, RRType.TLSA)
        except DnsError:
            return []
        return [r for r in answer.records if isinstance(r, TlsaRecord)]

    def chain_secure(self, mx_hostname: str | DnsName) -> bool:
        name = (self._resolver.name(mx_hostname)
                if isinstance(mx_hostname, str) else mx_hostname)
        return self._dnssec.validate(name) is ChainStatus.SECURE

    def domain_has_dane(self, domain: str | DnsName) -> bool:
        """Whether any MX of *domain* publishes usable, secure TLSA."""
        if isinstance(domain, str):
            domain = self._resolver.name(domain)
        answer = self._resolver.try_resolve(domain, RRType.MX)
        if answer is None:
            return False
        for record in answer.records:
            exchange = record.exchange  # type: ignore[attr-defined]
            if (self.chain_secure(exchange)
                    and self.tlsa_records(exchange)):
                return True
        return False

    def verify_mx(self, mx_hostname: str,
                  certificate: Optional[Certificate]) -> TlsaVerdict:
        if not self.chain_secure(mx_hostname):
            return TlsaVerdict(False, 0, "DNSSEC chain not secure")
        records = self.tlsa_records(mx_hostname)
        if not records:
            return TlsaVerdict(False, 0, "no TLSA records")
        return verify_dane(records, certificate)
