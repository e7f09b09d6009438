"""ACME-style domain-validated certificate issuance.

Policy delegation (Section 2.5 / Table 2) only works because the
third-party host can pass an ACME domain-validation challenge for
``mta-sts.customer.example``: the customer's CNAME hands the provider
control of the name.  This module simulates that flow, including the
behaviour the paper calls out — providers that *keep renewing*
certificates for opted-out customers as long as the CNAME persists
(DMARCReport, EasyDMARC, Sendmarc, OnDMARC), versus providers that
stop answering (NXDOMAIN), after which issuance fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clock import Clock
from repro.dns.resolver import Resolver
from repro.errors import DnsError, ReproError
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import Certificate, CertTemplate
from repro.pki.keys import KeyPair


class AcmeChallengeError(ReproError):
    """Domain validation failed; no certificate can be issued."""


@dataclass
class AcmeService:
    """A CA front-end that issues only after a DNS-based check.

    The simulated challenge verifies that the requested name resolves
    to an address the requester claims to control (HTTP-01's essence)
    — i.e. the CNAME/A records must already point at the requester.
    """

    ca: CertificateAuthority
    resolver: Resolver
    clock: Clock

    def issue_dv(self, names: list[str], controlled_ips: set[str],
                 *, key: KeyPair | None = None,
                 lifetime_days: int = 90) -> Certificate:
        """Issue a DV certificate after validating every requested name.

        *controlled_ips* is the set of IP addresses (as text) on which
        the requester can answer challenges.
        """
        for name in names:
            self._validate_control(name, controlled_ips)
        template = CertTemplate(names=names, key=key,
                                lifetime_days=lifetime_days)
        return self.ca.issue(template)

    def _validate_control(self, name: str, controlled_ips: set[str]) -> None:
        if name.startswith("*."):
            # Wildcards require DNS-01; approximate by validating the base.
            name = name[2:]
        try:
            parsed = self.resolver.name(name)
        except ValueError as exc:
            raise AcmeChallengeError(f"unparseable name {name!r}") from exc
        try:
            addresses = self.resolver.resolve_address(parsed)
        except DnsError as exc:
            raise AcmeChallengeError(
                f"{name}: challenge lookup failed ({exc})") from exc
        if not any(a.text in controlled_ips for a in addresses):
            raise AcmeChallengeError(
                f"{name} resolves to {[a.text for a in addresses]}, "
                f"none controlled by requester")
