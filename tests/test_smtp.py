"""Unit tests for MX hosts, the instrumented probe, and plain delivery."""

import pytest

from repro.clock import Clock, Instant
from repro.dns.name import DnsName
from repro.dns.records import ARecord, MxRecord
from repro.dns.resolver import Resolver
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import Zone
from repro.netsim.ip import IpAddress, IpPool
from repro.netsim.network import Network
from repro.pki.ca import CertificateAuthority, TrustStore
from repro.pki.certificate import CertTemplate, make_self_signed
from repro.smtp.client import SmtpProbe
from repro.smtp.delivery import DeliveryStatus, Message, SendingMta
from repro.smtp.server import MxHost
from repro.tls.handshake import TlsEndpoint


@pytest.fixture
def env():
    network = Network()
    clock = Clock(Instant.parse("2024-06-01"))
    ca = CertificateAuthority("CA", clock)
    store = TrustStore([ca.root])
    pool = IpPool()
    ns = AuthoritativeServer("ns", pool.allocate(), network)
    zone = Zone(apex=DnsName.parse("example.com"))
    mx_ip = IpAddress.v4(10, 30, 0, 1)
    zone.add(MxRecord(DnsName.parse("example.com"), 3600, 10,
                      DnsName.parse("mail.example.com")))
    zone.add(ARecord(DnsName.parse("mail.example.com"), 3600, mx_ip))
    ns.add_zone(zone)
    resolver = Resolver(network, clock)
    resolver.delegate("example.com", [ns.ip])
    tls = TlsEndpoint()
    tls.install("mail.example.com",
                ca.issue(CertTemplate(["mail.example.com"])), default=True)
    mx = MxHost("mail.example.com", mx_ip, network, tls=tls)
    return network, clock, ca, store, resolver, zone, mx


class TestMxHost:
    def test_ehlo_advertises_starttls(self, env):
        *_, mx = env
        response = mx.ehlo("scanner.example.net")
        assert response.code == 250
        assert response.starttls_offered

    def test_ehlo_without_tls(self, env):
        *_, mx = env
        mx.tls.enabled = False
        assert not mx.ehlo("scanner").starttls_offered

    def test_helo_fallback(self, env):
        *_, mx = env
        mx.ehlo_supported = False
        assert mx.ehlo("scanner").code == 502
        helo = mx.helo("scanner")
        assert helo.code == 250
        assert not helo.starttls_offered

    def test_greylisting_clears_on_retry(self, env):
        *_, mx = env
        mx.greylist_first_contact = True
        assert mx.ehlo("scanner").code == 451
        assert mx.ehlo("scanner").code == 250

    def test_hide_starttls_from_unknown(self, env):
        *_, mx = env
        mx.hide_starttls_from_unknown = True
        assert not mx.ehlo("stranger").starttls_offered
        assert mx.ehlo("stranger").starttls_offered   # now known

    def test_accept_and_reject_message(self, env):
        *_, mx = env
        code, _ = mx.accept_message("a@b.c", "x@example.com", "hi",
                                    over_tls=True)
        assert code == 250
        assert mx.mailbox[0].over_tls
        mx.reject_all_mail = True   # the Tutanota opt-out behaviour
        code, _ = mx.accept_message("a@b.c", "x@example.com", "hi",
                                    over_tls=True)
        assert code == 550


class TestProbe:
    def make_probe(self, env, **kwargs):
        network, clock, ca, store, resolver, zone, mx = env
        return SmtpProbe(network, resolver, store, clock, **kwargs)

    def test_valid_host(self, env):
        probe = self.make_probe(env)
        result = probe.probe_host("mail.example.com")
        assert result.reachable
        assert result.starttls_offered
        assert result.cert_valid
        assert result.failure_class() == "valid"

    def test_unresolvable_host(self, env):
        probe = self.make_probe(env)
        result = probe.probe_host("mail.ghost.org")
        assert not result.reachable
        assert result.failure_class() == "unreachable"

    def test_self_signed_cert_detected(self, env):
        network, clock, ca, store, resolver, zone, mx = env
        mx.tls.install("mail.example.com",
                       make_self_signed(CertTemplate(["mail.example.com"]),
                                        clock.now()), default=True)
        result = self.make_probe(env).probe_host("mail.example.com")
        assert result.tls_established
        assert not result.cert_valid
        assert result.failure_class() == "self-signed"

    def test_cn_mismatch_detected(self, env):
        network, clock, ca, store, resolver, zone, mx = env
        mx.tls.install("mail.example.com",
                       ca.issue(CertTemplate(["legacy.example.com"])),
                       default=True)
        result = self.make_probe(env).probe_host("mail.example.com")
        assert result.failure_class() == "cn-mismatch"

    def test_greylist_retry(self, env):
        network, clock, ca, store, resolver, zone, mx = env
        mx.greylist_first_contact = True
        result = self.make_probe(env).probe_host("mail.example.com")
        assert result.greylisted
        assert result.starttls_offered    # retried and succeeded

    def test_greylist_no_retry(self, env):
        network, clock, ca, store, resolver, zone, mx = env
        mx.greylist_first_contact = True
        probe = self.make_probe(env, retry_greylist=False)
        result = probe.probe_host("mail.example.com")
        assert result.greylisted
        assert not result.starttls_offered

    def test_helo_fallback_recorded(self, env):
        network, clock, ca, store, resolver, zone, mx = env
        mx.ehlo_supported = False
        result = self.make_probe(env).probe_host("mail.example.com")
        assert result.used_helo_fallback
        assert result.failure_class() == "no-starttls"


class TestDelivery:
    def make_mta(self, env, **kwargs):
        network, clock, ca, store, resolver, zone, mx = env
        return SendingMta("sender.example.net", network, resolver, store,
                          clock, **kwargs)

    def test_delivers_over_tls(self, env):
        *_, mx = env
        mta = self.make_mta(env)
        attempt = mta.send(Message("a@sender.example.net", "b@example.com"))
        assert attempt.status is DeliveryStatus.DELIVERED
        assert mx.mailbox[0].over_tls

    def test_plaintext_when_no_starttls(self, env):
        *_, mx = env
        mx.tls.enabled = False
        attempt = self.make_mta(env).send(
            Message("a@s.net", "b@example.com"))
        assert attempt.status is DeliveryStatus.DELIVERED_PLAINTEXT
        assert not mx.mailbox[0].over_tls

    def test_no_mx_and_no_apex(self, env):
        attempt = self.make_mta(env).send(Message("a@s.net", "b@ghost.org"))
        assert attempt.status is DeliveryStatus.NO_MX

    def test_require_pkix_refuses_bad_cert(self, env):
        network, clock, ca, store, resolver, zone, mx = env
        mx.tls.install("mail.example.com",
                       make_self_signed(CertTemplate(["mail.example.com"]),
                                        clock.now()), default=True)
        mta = self.make_mta(env, require_pkix=True)
        attempt = mta.send(Message("a@s.net", "b@example.com"))
        assert attempt.status is DeliveryStatus.REFUSED_BY_POLICY

    def test_mx_preflight_gate(self, env):
        mta = self.make_mta(
            env, mx_preflight=lambda d, mx: (False, "blocked"))
        attempt = mta.send(Message("a@s.net", "b@example.com"))
        assert attempt.status is DeliveryStatus.REFUSED_BY_POLICY

    def test_security_gate_allows(self, env):
        mta = self.make_mta(
            env, security_gate=lambda d, mx, cert: (True, "ok"))
        attempt = mta.send(Message("a@s.net", "b@example.com"))
        assert attempt.delivered

    def test_server_rejection(self, env):
        *_, mx = env
        mx.reject_all_mail = True
        attempt = self.make_mta(env).send(Message("a@s.net", "b@example.com"))
        assert attempt.status is DeliveryStatus.REJECTED_BY_SERVER

    def test_mx_preference_order(self, env):
        network, clock, ca, store, resolver, zone, mx = env
        backup_ip = IpAddress.v4(10, 30, 0, 2)
        zone.add(MxRecord(DnsName.parse("example.com"), 3600, 5,
                          DnsName.parse("primary.example.com")))
        zone.add(ARecord(DnsName.parse("primary.example.com"), 3600,
                         backup_ip))
        tls = TlsEndpoint()
        tls.install("primary.example.com",
                    ca.issue(CertTemplate(["primary.example.com"])),
                    default=True)
        primary = MxHost("primary.example.com", backup_ip, network, tls=tls)
        resolver.flush_cache()
        mta = self.make_mta(env)
        assert mta.lookup_mx("example.com") == [
            "primary.example.com", "mail.example.com"]
        attempt = mta.send(Message("a@s.net", "b@example.com"))
        assert primary.mailbox and not mx.mailbox
