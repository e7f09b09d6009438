"""A validating HTTPS client with staged failure reporting.

:class:`HttpsClient.fetch` walks the exact pipeline RFC 8461 senders
(and the paper's scanner) walk when retrieving a policy:

1. **DNS** — resolve the host (following CNAME delegation);
2. **TCP** — connect to port 443;
3. **TLS** — handshake with SNI and full PKIX validation;
4. **HTTP** — issue the GET and require a 200 (redirects are refused
   per RFC 8461 §3.3).

:class:`FetchOutcome` records which stage failed, giving Figure 5 its
x-axis for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import trace
from repro.clock import Clock
from repro.dns.name import DnsName, canonical_host
from repro.dns.resolver import Resolver
from repro.errors import (
    DnsError, NetworkError, PolicyFetchStage, TlsError, TlsFailure,
)
from repro.netsim.ip import IpAddress
from repro.netsim.network import Network
from repro.netsim.retry import (
    DEFAULT_RETRY_POLICY, RetryPolicy, connect_with_retries,
)
from repro.pki.ca import TrustStore
from repro.pki.certificate import Certificate
from repro.tls.handshake import handshake
from repro.web.server import HTTPS_PORT, WebServer


@dataclass
class FetchOutcome:
    """Result of one staged HTTPS fetch."""

    url: str
    body: Optional[str] = None
    status: Optional[int] = None
    failed_stage: Optional[PolicyFetchStage] = None
    tls_failure: Optional[TlsFailure] = None
    certificate: Optional[Certificate] = None
    detail: str = ""
    resolved_ips: list[IpAddress] = field(default_factory=list)
    #: The failed stage died on a fault-injected transient error that
    #: survived the retry budget (never set on successful fetches).
    transient: bool = False

    @property
    def ok(self) -> bool:
        return self.failed_stage is None


class HttpsClient:
    """Fetches URLs over the simulated network with PKIX validation."""

    def __init__(self, network: Network, resolver: Resolver,
                 trust_store: TrustStore, clock: Clock,
                 *, retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY):
        self._network = network
        self._resolver = resolver
        self._trust_store = trust_store
        self._clock = clock
        self._retry_policy = retry_policy

    def fetch(self, host: str | DnsName, path: str) -> FetchOutcome:
        host_text = canonical_host(host)
        outcome = FetchOutcome(url=f"https://{host_text}{path}")

        # Stage 1: DNS
        try:
            # The resolver parses (and interns) the text; a malformed
            # name raises ValueError from there.
            addresses = self._resolver.resolve_address(host_text)
        except (ValueError, DnsError) as exc:
            outcome.failed_stage = PolicyFetchStage.DNS
            outcome.transient = getattr(exc, "transient", False)
            outcome.detail = str(exc)
            if trace.TRACING:
                trace.event("fetch-stage", stage="dns", outcome=str(exc),
                            transient=outcome.transient)
            return outcome
        outcome.resolved_ips = addresses
        if trace.TRACING:
            trace.event("fetch-stage", stage="dns",
                        outcome=f"ok:{len(addresses)}")

        # Stage 2: TCP (each address retried under the policy)
        server = None
        tcp_error: Exception | None = None
        for address in addresses:
            try:
                server = connect_with_retries(
                    self._network, address, HTTPS_PORT,
                    policy=self._retry_policy,
                    key=f"https:{host_text}:{address.text}")
                break
            except NetworkError as exc:
                # Only the type, message and ``transient`` flag are read
                # below; the traceback would tie this frame into a cycle.
                tcp_error = exc.with_traceback(None)
        if server is None:
            outcome.failed_stage = PolicyFetchStage.TCP
            outcome.transient = getattr(tcp_error, "transient", False)
            outcome.detail = str(tcp_error)
            if trace.TRACING:
                trace.event("fetch-stage", stage="tcp",
                            outcome=str(tcp_error),
                            transient=outcome.transient)
            return outcome
        if not isinstance(server, WebServer):
            outcome.failed_stage = PolicyFetchStage.TCP
            outcome.detail = "endpoint is not an HTTPS server"
            if trace.TRACING:
                trace.event("fetch-stage", stage="tcp",
                            outcome=outcome.detail)
            return outcome
        if trace.TRACING:
            trace.event("fetch-stage", stage="tcp", outcome="connected")

        # Stage 3: TLS
        try:
            session = handshake(
                server.tls, host_text,
                trust_store=self._trust_store, now=self._clock.now())
            outcome.certificate = session.certificate
        except TlsError as exc:
            outcome.failed_stage = PolicyFetchStage.TLS
            outcome.tls_failure = exc.failure
            outcome.detail = str(exc)
            if trace.TRACING:
                trace.event("fetch-stage", stage="tls",
                            outcome=exc.failure.value)
            return outcome
        if trace.TRACING:
            trace.event("fetch-stage", stage="tls", outcome="established")

        # Stage 4: HTTP (redirects are treated as errors per RFC 8461)
        response = server.handle(host_text, path)
        outcome.status = response.status
        if response.status != 200:
            outcome.failed_stage = PolicyFetchStage.HTTP
            outcome.detail = f"HTTP {response.status}"
            if trace.TRACING:
                trace.event("fetch-stage", stage="http",
                            outcome=f"status:{response.status}")
            return outcome
        outcome.body = response.body
        if trace.TRACING:
            trace.event("fetch-stage", stage="http", outcome="status:200")
        return outcome
