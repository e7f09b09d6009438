"""Simulated MX hosts.

An :class:`MxHost` speaks enough SMTP for the paper's methodology:
EHLO (falling back to HELO), STARTTLS capability advertisement, the
STARTTLS transition presenting a certificate, and mail acceptance.
Behaviour toggles reproduce the operational quirks §4.1 footnotes:
greylisting (temporary 4xx before STARTTLS can be probed) and servers
that hide STARTTLS from unknown peers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.dns.name import DnsName, canonical_host
from repro.netsim.ip import IpAddress
from repro.netsim.network import Network
from repro.tls.handshake import TlsEndpoint

SMTP_PORT = 25

_SMTP_VERBS = ("greet", "ehlo", "helo", "starttls_endpoint",
               "accept_message")


def speaks_smtp(obj) -> bool:
    """Structural check for the MX-host interface.

    Clients use this rather than ``isinstance(obj, MxHost)`` so that
    transparent proxies — such as the STARTTLS-stripping attacker in
    :mod:`repro.attacks.mitm` — are indistinguishable from real
    servers, exactly as they are on the wire.
    """
    return obj is not None and all(hasattr(obj, verb)
                                   for verb in _SMTP_VERBS)


@dataclass(frozen=True)
class EhloResponse:
    """The server's EHLO/HELO reply."""

    code: int
    hostname: str
    extensions: tuple[str, ...] = ()

    @property
    def starttls_offered(self) -> bool:
        return "STARTTLS" in self.extensions


@dataclass(slots=True)
class StoredMessage:
    sender: str
    recipient: str
    body: str
    over_tls: bool


class MxHost:
    """One inbound mail server, addressable by one or more hostnames."""

    __slots__ = ("hostname", "ip", "tls", "ehlo_supported",
                 "greylist_first_contact", "hide_starttls_from_unknown",
                 "reject_all_mail", "require_fcrdns_with", "_seen_peers",
                 "mailbox", "session_count")

    def __init__(self, hostname: str | DnsName, ip: IpAddress,
                 network: Network, *, tls: Optional[TlsEndpoint] = None,
                 ehlo_supported: bool = True):
        self.hostname = canonical_host(
            hostname.text if isinstance(hostname, DnsName) else hostname)
        self.ip = ip
        self.tls = tls if tls is not None else TlsEndpoint()
        self.ehlo_supported = ehlo_supported
        self.greylist_first_contact = False
        self.hide_starttls_from_unknown = False
        self.reject_all_mail = False       # Tutanota's opted-out behaviour
        #: When set (to a Resolver), EHLO clients must pass the FCrDNS
        #: check: their IP's PTR names the EHLO hostname and that name
        #: resolves back to the IP.  §4.1's scanner is built to satisfy
        #: exactly this.
        self.require_fcrdns_with: Optional[object] = None
        self._seen_peers: Set[str] = set()
        self.mailbox: List[StoredMessage] = []
        self.session_count = 0
        network.register(ip, SMTP_PORT, self, description=f"smtp:{self.hostname}")

    # -- SMTP verbs -----------------------------------------------------------

    def greet(self) -> tuple[int, str]:
        self.session_count += 1
        return 220, f"{self.hostname} ESMTP ready"

    def ehlo(self, client_name: str,
             client_ip: Optional[IpAddress] = None) -> EhloResponse:
        """EHLO; servers without ESMTP answer 502 so clients fall back."""
        if not self.ehlo_supported:
            return EhloResponse(502, self.hostname)
        if self.require_fcrdns_with is not None:
            from repro.dns.reverse import fcrdns_check
            if client_ip is None:
                return EhloResponse(554, self.hostname)
            result = fcrdns_check(self.require_fcrdns_with, client_ip,
                                  client_name)
            if not result.passed:
                return EhloResponse(554, self.hostname)
        if self.greylist_first_contact and client_name not in self._seen_peers:
            self._seen_peers.add(client_name)
            return EhloResponse(451, self.hostname)
        extensions = ["PIPELINING", "8BITMIME", "SIZE 52428800"]
        offer_tls = self.tls.enabled
        if self.hide_starttls_from_unknown and client_name not in self._seen_peers:
            offer_tls = False
        self._seen_peers.add(client_name)
        if offer_tls:
            extensions.append("STARTTLS")
        return EhloResponse(250, self.hostname, tuple(extensions))

    def helo(self, client_name: str) -> EhloResponse:
        """Plain HELO: no extension advertisement at all."""
        self._seen_peers.add(client_name)
        return EhloResponse(250, self.hostname)

    def starttls_endpoint(self) -> TlsEndpoint:
        """The TLS configuration used after the STARTTLS command."""
        return self.tls

    def accept_message(self, sender: str, recipient: str, body: str,
                       *, over_tls: bool) -> tuple[int, str]:
        if self.reject_all_mail:
            return 550, "5.7.1 recipient service discontinued"
        self.mailbox.append(StoredMessage(sender, recipient, body, over_tls))
        return 250, "2.0.0 message accepted"
