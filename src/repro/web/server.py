"""Simulated HTTPS servers.

A :class:`WebServer` pairs a TLS endpoint with a virtual-host routing
table: ``(host, path) -> response``.  MTA-STS policy hosting is just a
route at ``/.well-known/mta-sts.txt`` for the ``mta-sts.<domain>``
host.  Fault hooks cover the HTTP-level errors in Figure 5: 404s
(policy file removed or never published), 5xx, and redirects — which
RFC 8461 forbids senders from following (senders "MUST NOT follow
HTTP redirects"), so the client treats 3xx as an HTTP error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.dns.name import canonical_host
from repro.netsim.ip import IpAddress
from repro.netsim.network import Network
from repro.tls.handshake import TlsEndpoint

HTTPS_PORT = 443

WELL_KNOWN_STS_PATH = "/.well-known/mta-sts.txt"


@dataclass(frozen=True, slots=True)
class HttpResponse:
    status: int
    body: str = ""
    content_type: str = "text/plain"

    @classmethod
    def ok(cls, body: str) -> "HttpResponse":
        return cls(200, body)

    @classmethod
    def not_found(cls) -> "HttpResponse":
        return cls(404, "not found")


class WebServer:
    """A virtual-hosting HTTPS server on the simulated network."""

    __slots__ = ("name", "ip", "tls", "_routes", "_default_response",
                 "request_count")

    def __init__(self, name: str, ip: IpAddress, network: Network,
                 *, tls: Optional[TlsEndpoint] = None):
        self.name = name
        self.ip = ip
        self.tls = tls or TlsEndpoint()
        self._routes: Dict[Tuple[str, str], HttpResponse] = {}
        self._default_response = HttpResponse.not_found()
        self.request_count = 0
        network.register(ip, HTTPS_PORT, self, description=f"https:{name}")

    # -- content management ------------------------------------------------

    def set_route(self, host: str, path: str, response: HttpResponse) -> None:
        self._routes[(canonical_host(host), path)] = response

    def remove_route(self, host: str, path: str) -> None:
        self._routes.pop((canonical_host(host), path), None)

    def host_policy(self, domain: str, policy_text: str,
                    *, status: int = 200) -> None:
        """Publish an MTA-STS policy for *domain* at the well-known URI."""
        host = f"mta-sts.{canonical_host(domain)}"
        self.set_route(host, WELL_KNOWN_STS_PATH,
                       HttpResponse(status, policy_text))

    def unhost_policy(self, domain: str) -> None:
        host = f"mta-sts.{canonical_host(domain)}"
        self.remove_route(host, WELL_KNOWN_STS_PATH)

    # -- request handling ----------------------------------------------------

    def handle(self, host: str, path: str) -> HttpResponse:
        self.request_count += 1
        response = self._routes.get((canonical_host(host), path))
        if response is None:
            return self._default_response
        return response
