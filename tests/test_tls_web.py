"""Unit tests for the TLS handshake simulation and the HTTPS stack."""

import pytest

from repro.clock import Clock, Instant
from repro.dns.name import DnsName
from repro.dns.records import ARecord, CnameRecord
from repro.dns.resolver import Resolver
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import Zone
from repro.errors import PolicyFetchStage, TlsError, TlsFailure
from repro.netsim.ip import IpAddress, IpPool
from repro.netsim.network import Network, TcpBehavior
from repro.pki.ca import CertificateAuthority, TrustStore
from repro.pki.certificate import CertTemplate, make_self_signed
from repro.tls.handshake import TlsEndpoint, handshake
from repro.web.client import HttpsClient
from repro.web.server import (
    HTTPS_PORT, HttpResponse, WebServer, WELL_KNOWN_STS_PATH,
)


@pytest.fixture
def clock():
    return Clock(Instant.parse("2024-06-01"))


@pytest.fixture
def ca(clock):
    return CertificateAuthority("CA", clock)


@pytest.fixture
def store(ca):
    return TrustStore([ca.root])


class TestTlsEndpoint:
    def test_sni_selects_exact_certificate(self, ca):
        endpoint = TlsEndpoint()
        a = ca.issue(CertTemplate(["a.example.com"]))
        b = ca.issue(CertTemplate(["b.example.com"]))
        endpoint.install("a.example.com", a)
        endpoint.install("b.example.com", b)
        assert handshake(endpoint, "b.example.com").certificate is b

    def test_wildcard_pattern_selection(self, ca):
        endpoint = TlsEndpoint()
        cert = ca.issue(CertTemplate(["*.example.com"]))
        endpoint.install("*.example.com", cert)
        assert handshake(endpoint, "xyz.example.com").certificate is cert

    def test_default_certificate_fallback(self, ca):
        endpoint = TlsEndpoint()
        default = ca.issue(CertTemplate(["shared.host.net"]))
        endpoint.install("shared.host.net", default, default=True)
        session = handshake(endpoint, "unrelated.org")
        assert session.certificate is default

    def test_strict_sni_alerts(self, ca):
        endpoint = TlsEndpoint(strict_sni=True)
        endpoint.install("a.example.com",
                         ca.issue(CertTemplate(["a.example.com"])))
        with pytest.raises(TlsError) as excinfo:
            handshake(endpoint, "b.example.com")
        assert excinfo.value.failure is TlsFailure.NO_CERTIFICATE

    def test_alert_for_specific_sni(self, ca):
        # The DMARCReport pattern: shared host, one customer's name
        # gets a fatal alert.
        endpoint = TlsEndpoint()
        endpoint.install("*.host.net", ca.issue(CertTemplate(["*.host.net"])),
                         default=True)
        endpoint.alert_for("mta-sts.customer.com")
        with pytest.raises(TlsError) as excinfo:
            handshake(endpoint, "mta-sts.customer.com")
        assert excinfo.value.failure is TlsFailure.NO_CERTIFICATE

    def test_install_clears_alert(self, ca):
        endpoint = TlsEndpoint()
        endpoint.alert_for("x.com")
        endpoint.install("x.com", ca.issue(CertTemplate(["x.com"])))
        assert handshake(endpoint, "x.com").certificate is not None

    def test_no_tls_support(self):
        endpoint = TlsEndpoint(enabled=False)
        with pytest.raises(TlsError) as excinfo:
            handshake(endpoint, "x.com")
        assert excinfo.value.failure is TlsFailure.NO_TLS_SUPPORT

    def test_validation_inline(self, ca, store, clock):
        endpoint = TlsEndpoint()
        endpoint.install("x.com", ca.issue(CertTemplate(["y.com"])),
                         default=True)
        with pytest.raises(TlsError) as excinfo:
            handshake(endpoint, "x.com", trust_store=store, now=clock.now())
        assert excinfo.value.failure is TlsFailure.HOSTNAME_MISMATCH

    def test_retrieval_mode_skips_validation(self, ca, clock):
        endpoint = TlsEndpoint()
        endpoint.install("x.com", make_self_signed(CertTemplate(["x.com"]),
                                                   clock.now()), default=True)
        session = handshake(endpoint, "x.com")
        assert session.certificate.self_signed
        assert not session.validated

    def test_validation_requires_now(self, ca, store):
        endpoint = TlsEndpoint()
        endpoint.install("x.com", ca.issue(CertTemplate(["x.com"])))
        with pytest.raises(ValueError):
            handshake(endpoint, "x.com", trust_store=store)


@pytest.fixture
def https_world(clock, ca, store):
    network = Network()
    pool = IpPool()
    ns = AuthoritativeServer("ns", pool.allocate(), network)
    zone = Zone(apex=DnsName.parse("example.com"))
    web_ip = IpAddress.v4(10, 20, 0, 1)
    zone.add(ARecord(DnsName.parse("mta-sts.example.com"), 300, web_ip))
    ns.add_zone(zone)
    resolver = Resolver(network, clock)
    resolver.delegate("example.com", [ns.ip])
    web = WebServer("policy", web_ip, network)
    cert = ca.issue(CertTemplate(["mta-sts.example.com"]))
    web.tls.install("mta-sts.example.com", cert, default=True)
    web.host_policy("example.com",
                    "version: STSv1\nmode: testing\nmx: m.example.com\n"
                    "max_age: 86400\n")
    client = HttpsClient(network, resolver, store, clock)
    return network, resolver, web, client, zone


class TestHttpsClient:
    def test_successful_fetch(self, https_world):
        *_, client, _ = https_world
        outcome = client.fetch("mta-sts.example.com", WELL_KNOWN_STS_PATH)
        assert outcome.ok
        assert "STSv1" in outcome.body

    def test_dns_failure_stage(self, https_world):
        *_, client, _ = https_world
        outcome = client.fetch("mta-sts.ghost.com", WELL_KNOWN_STS_PATH)
        assert outcome.failed_stage is PolicyFetchStage.DNS

    def test_tcp_failure_stage(self, https_world):
        network, resolver, web, client, zone = https_world
        network.set_behavior(web.ip, HTTPS_PORT, TcpBehavior.REFUSE)
        outcome = client.fetch("mta-sts.example.com", WELL_KNOWN_STS_PATH)
        assert outcome.failed_stage is PolicyFetchStage.TCP

    def test_tls_failure_stage(self, https_world, clock):
        network, resolver, web, client, zone = https_world
        bad = make_self_signed(CertTemplate(["mta-sts.example.com"]),
                               clock.now())
        web.tls.install("mta-sts.example.com", bad)
        outcome = client.fetch("mta-sts.example.com", WELL_KNOWN_STS_PATH)
        assert outcome.failed_stage is PolicyFetchStage.TLS
        assert outcome.tls_failure is TlsFailure.SELF_SIGNED

    def test_http_404_stage(self, https_world):
        network, resolver, web, client, zone = https_world
        web.unhost_policy("example.com")
        outcome = client.fetch("mta-sts.example.com", WELL_KNOWN_STS_PATH)
        assert outcome.failed_stage is PolicyFetchStage.HTTP
        assert outcome.status == 404

    def test_redirect_is_an_error(self, https_world):
        # RFC 8461 §3.3: senders MUST NOT follow redirects.
        network, resolver, web, client, zone = https_world
        web.set_route("mta-sts.example.com", WELL_KNOWN_STS_PATH,
                      HttpResponse(301, "moved"))
        outcome = client.fetch("mta-sts.example.com", WELL_KNOWN_STS_PATH)
        assert outcome.failed_stage is PolicyFetchStage.HTTP

    def test_cname_chased_to_provider(self, https_world, ca, clock):
        network, resolver, web, client, zone = https_world
        # Delegate customer.example.com's policy host via CNAME to the
        # same web server.
        zone.add(CnameRecord(DnsName.parse("mta-sts.delegated.example.com"),
                             300, DnsName.parse("mta-sts.example.com")))
        cert = ca.issue(CertTemplate(["mta-sts.delegated.example.com"]))
        web.tls.install("mta-sts.delegated.example.com", cert)
        web.set_route("mta-sts.delegated.example.com", WELL_KNOWN_STS_PATH,
                      HttpResponse.ok("version: STSv1\nmode: none\n"
                                      "max_age: 60\n"))
        outcome = client.fetch("mta-sts.delegated.example.com",
                               WELL_KNOWN_STS_PATH)
        assert outcome.ok
        assert "none" in outcome.body


class TestWebServer:
    def test_vhost_routing(self, https_world):
        *_, web, client, zone = https_world
        web.set_route("other.example.com", "/x", HttpResponse.ok("hi"))
        assert web.handle("other.example.com", "/x").body == "hi"
        assert web.handle("other.example.com", "/y").status == 404

    def test_request_counter(self, https_world):
        network, resolver, web, client, zone = https_world
        before = web.request_count
        client.fetch("mta-sts.example.com", WELL_KNOWN_STS_PATH)
        assert web.request_count == before + 1
