"""A sending MTA.

:class:`SendingMta` performs the plain SMTP delivery pipeline: resolve
the recipient's MXes, try them in preference order, negotiate STARTTLS
opportunistically, and hand the message over.  Security policy (MTA-STS
or DANE) is plugged in by :mod:`repro.core.sender` through the
``security_gate`` hook — this module stays protocol-only so that the
"opportunistic TLS" senders in §6.2 (93.2% of the sender population)
are just a :class:`SendingMta` with no gate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.clock import Clock
from repro.dns.name import DnsName, canonical_host
from repro.dns.records import RRType
from repro.dns.resolver import Resolver
from repro.errors import (
    ConnectionRefused, ConnectionReset, ConnectionTimeout, DnsError,
    TlsError,
)
from repro.netsim.network import Network
from repro.pki.ca import TrustStore
from repro.pki.certificate import Certificate
from repro.pki.validation import validate_chain
from repro.smtp.server import (
    SMTP_PORT, MxHost, speaks_smtp as _speaks_smtp,
)
from repro.tls.handshake import handshake


class DeliveryStatus(enum.Enum):
    DELIVERED = "delivered"
    DELIVERED_PLAINTEXT = "delivered-plaintext"
    REFUSED_BY_POLICY = "refused-by-policy"     # our side refused (enforce)
    REJECTED_BY_SERVER = "rejected-by-server"   # 5xx from the MX
    NO_MX = "no-mx"
    UNREACHABLE = "unreachable"


@dataclass(frozen=True, slots=True)
class Message:
    sender: str
    recipient: str
    body: str = ""
    #: The recipient's domain, canonicalised once when the message is
    #: made: every delivery attempt routes, fetches and reports on it.
    recipient_domain: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # canonical_host, not .lower(): the policy matcher and the
        # mismatch classifier both casefold (ẞ → ss, İ → i̇), so the
        # domain a delivery routes on must fold the same way or a
        # recipient spelled with a non-trivial case mapping would fetch
        # policies under one name and match mx patterns under another.
        object.__setattr__(self, "recipient_domain", canonical_host(
            self.recipient.rsplit("@", 1)[-1]))


@dataclass
class MxAttempt:
    """What happened at one candidate MX host."""

    mx_hostname: str
    connected: bool = False
    starttls: bool = False
    certificate: Optional[Certificate] = None
    cert_valid: bool = False
    gate_verdict: str = ""
    smtp_code: Optional[int] = None
    detail: str = ""


@dataclass
class DeliveryAttempt:
    """The full outcome of delivering one message."""

    message: Message
    status: DeliveryStatus
    attempts: List[MxAttempt] = field(default_factory=list)
    detail: str = ""

    @property
    def delivered(self) -> bool:
        return self.status in (DeliveryStatus.DELIVERED,
                               DeliveryStatus.DELIVERED_PLAINTEXT)


# A security gate inspects a candidate MX before and after STARTTLS.
# Returning (allow, require_tls, detail): see repro.core.sender.
GateDecision = tuple


class SendingMta:
    """A sender with pluggable transport-security policy.

    Parameters
    ----------
    require_pkix:
        When True the sender refuses any MX whose certificate fails
        PKIX validation, regardless of MTA-STS/DANE (the 1.3% of
        senders §6.2 found that always require valid certificates).
    security_gate:
        Optional callable ``gate(domain, mx_hostname, certificate) ->
        (allow, detail)`` consulted once the TLS handshake (if any)
        has completed.  MTA-STS enforcement lives here.
    mx_preflight:
        Optional callable ``preflight(domain, mx_hostname) -> (allow,
        detail)`` consulted before connecting, used for MTA-STS mx
        pattern matching.
    """

    __slots__ = ("identity", "_network", "_resolver", "_trust_store",
                 "_clock", "require_pkix", "opportunistic_tls",
                 "security_gate", "mx_preflight", "_attempt_index")

    def __init__(self, identity: str, network: Network, resolver: Resolver,
                 trust_store: TrustStore, clock: Clock,
                 *, require_pkix: bool = False,
                 opportunistic_tls: bool = True,
                 security_gate: Optional[Callable] = None,
                 mx_preflight: Optional[Callable] = None):
        self.identity = identity
        self._network = network
        self._resolver = resolver
        self._trust_store = trust_store
        self._clock = clock
        self.require_pkix = require_pkix
        self.opportunistic_tls = opportunistic_tls
        self.security_gate = security_gate
        self.mx_preflight = mx_preflight
        self._attempt_index = 0

    # -- MX selection -------------------------------------------------------

    def lookup_mx(self, domain: str | DnsName) -> List[str]:
        if isinstance(domain, str):
            domain = self._resolver.name(domain)
        answer = self._resolver.try_resolve(domain, RRType.MX)
        if answer is not None:
            records = sorted(
                answer.records,
                key=lambda r: (r.preference, r.exchange.text))  # type: ignore[attr-defined]
            return [r.exchange.text for r in records]  # type: ignore[attr-defined]
        if self._resolver.try_resolve(domain, RRType.A) is not None:
            return [domain.text]
        return []

    # -- delivery -------------------------------------------------------------

    def send(self, message: Message, *, attempt: int = 0) -> DeliveryAttempt:
        """Deliver one message.

        *attempt* is the retry ordinal the caller's queue is on (0 for
        the first try); it is threaded into every TCP connect so
        attempt-scoped fault injections (refuse-twice, greylist-style
        timeouts) recover on a later queue retry exactly as they would
        for a real MTA.
        """
        self._attempt_index = attempt
        domain = message.recipient_domain
        if not domain:
            return DeliveryAttempt(
                message, DeliveryStatus.NO_MX,
                detail=f"unroutable recipient {message.recipient!r}")
        mx_hosts = self.lookup_mx(domain)
        if not mx_hosts:
            return DeliveryAttempt(message, DeliveryStatus.NO_MX,
                                   detail=f"no MX or A record for {domain}")

        outcome = DeliveryAttempt(message, DeliveryStatus.UNREACHABLE)
        policy_refusals = 0
        for mx_hostname in mx_hosts:
            attempt = MxAttempt(mx_hostname=mx_hostname)
            outcome.attempts.append(attempt)

            if self.mx_preflight is not None:
                allow, detail = self.mx_preflight(domain, mx_hostname)
                attempt.gate_verdict = detail
                if not allow:
                    attempt.detail = f"preflight refused: {detail}"
                    policy_refusals += 1
                    continue

            server = self._connect(mx_hostname, attempt)
            if server is None:
                continue

            certificate = self._negotiate_tls(server, mx_hostname, attempt)
            if self.require_pkix and not attempt.cert_valid:
                attempt.detail = "PKIX required but certificate invalid"
                policy_refusals += 1
                continue

            if self.security_gate is not None:
                allow, detail = self.security_gate(
                    domain, mx_hostname, certificate)
                attempt.gate_verdict = detail
                if not allow:
                    attempt.detail = f"gate refused: {detail}"
                    policy_refusals += 1
                    continue

            over_tls = certificate is not None
            code, reply = server.accept_message(
                message.sender, message.recipient, message.body,
                over_tls=over_tls)
            attempt.smtp_code = code
            if code == 250:
                outcome.status = (DeliveryStatus.DELIVERED if over_tls
                                  else DeliveryStatus.DELIVERED_PLAINTEXT)
                return outcome
            attempt.detail = reply
            outcome.status = DeliveryStatus.REJECTED_BY_SERVER

        if policy_refusals and not outcome.delivered:
            if all(a.detail.startswith(("preflight refused", "gate refused",
                                        "PKIX required"))
                   for a in outcome.attempts if a.detail):
                outcome.status = DeliveryStatus.REFUSED_BY_POLICY
                outcome.detail = "every MX refused by transport policy"
        return outcome

    # -- helpers ----------------------------------------------------------------

    def _connect(self, mx_hostname: str, attempt: MxAttempt) -> Optional[MxHost]:
        try:
            name = self._resolver.name(mx_hostname)
            addresses = self._resolver.resolve_address(name)
        except (ValueError, DnsError) as exc:
            attempt.detail = f"dns: {exc}"
            return None
        for address in addresses:
            try:
                server = self._network.connect(address, SMTP_PORT,
                                               attempt=self._attempt_index)
            except (ConnectionRefused, ConnectionReset,
                    ConnectionTimeout) as exc:
                attempt.detail = f"tcp: {exc}"
                continue
            if _speaks_smtp(server):
                attempt.connected = True
                server.greet()
                return server
        return None

    def _negotiate_tls(self, server: MxHost, mx_hostname: str,
                       attempt: MxAttempt) -> Optional[Certificate]:
        ehlo = server.ehlo(self.identity)
        if ehlo.code == 451:
            ehlo = server.ehlo(self.identity)
        if ehlo.code == 502:
            ehlo = server.helo(self.identity)
        if not ehlo.starttls_offered or not self.opportunistic_tls:
            return None
        try:
            session = handshake(server.starttls_endpoint(), mx_hostname)
        except TlsError as exc:
            attempt.detail = f"tls: {exc}"
            return None
        attempt.starttls = True
        attempt.certificate = session.certificate
        validation = validate_chain(session.certificate, mx_hostname,
                                    self._trust_store, self._clock.now())
        attempt.cert_valid = validation.valid
        return session.certificate
