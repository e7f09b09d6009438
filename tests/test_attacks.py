"""Tests for the attack simulations and MTA-STS's protection matrix."""

import pytest

from repro.attacks import DnsSpoofer, PolicyHostBlocker, StarttlsStripper
from repro.core.policy import Policy, PolicyMode
from repro.core.sender import MtaStsSender
from repro.ecosystem.deployment import DomainSpec, deploy_domain
from repro.smtp.delivery import DeliveryStatus, Message, SendingMta


@pytest.fixture
def victim(world):
    return deploy_domain(world, DomainSpec(
        domain="victim.com",
        policy=Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                      max_age=7 * 86400,
                      mx_patterns=("mail.victim.com",))))


def make_sts_sender(world, fetcher):
    return MtaStsSender("relay.net", world.network, world.resolver,
                        world.trust_store, world.clock, fetcher)


class TestStarttlsStripping:
    def test_opportunistic_sender_downgraded(self, world, victim):
        attacker = StarttlsStripper(world.network)
        attacker.attack(victim.mx_hosts[0])
        sender = SendingMta("naive.net", world.network, world.resolver,
                            world.trust_store, world.clock)
        attempt = sender.send(Message("a@naive.net", "b@victim.com"))
        assert attempt.status is DeliveryStatus.DELIVERED_PLAINTEXT
        assert attacker.stripped_sessions >= 1
        assert attacker.plaintext_captured      # the attacker read it

    def test_mta_sts_sender_refuses_downgrade(self, world, fetcher,
                                              victim):
        attacker = StarttlsStripper(world.network)
        attacker.attack(victim.mx_hosts[0])
        sender = make_sts_sender(world, fetcher)
        attempt = sender.send(Message("a@relay.net", "b@victim.com"))
        assert attempt.status is DeliveryStatus.REFUSED_BY_POLICY
        assert not attacker.plaintext_captured

    def test_cached_policy_protects_after_attack_starts(self, world,
                                                        fetcher, victim):
        sender = make_sts_sender(world, fetcher)
        assert sender.send(Message("a@r.net", "b@victim.com")).delivered
        attacker = StarttlsStripper(world.network)
        attacker.attack(victim.mx_hosts[0])
        attempt = sender.send(Message("a@r.net", "b@victim.com"))
        assert attempt.status is DeliveryStatus.REFUSED_BY_POLICY
        assert not attacker.plaintext_captured

    def test_withdraw_restores_service(self, world, fetcher, victim):
        attacker = StarttlsStripper(world.network)
        attacker.attack(victim.mx_hosts[0])
        attacker.withdraw()
        sender = make_sts_sender(world, fetcher)
        attempt = sender.send(Message("a@r.net", "b@victim.com"))
        assert attempt.status is DeliveryStatus.DELIVERED


class TestFirstContactTofu:
    def test_blocked_policy_plus_strip_downgrades_first_contact(
            self, world, fetcher, victim):
        """Footnote 2's weakness: no cache + blocked policy fetch +
        stripped STARTTLS = plaintext interception, even though the
        domain 'has' MTA-STS."""
        stripper = StarttlsStripper(world.network)
        stripper.attack(victim.mx_hosts[0])
        blocker = PolicyHostBlocker(world.resolver)
        blocker.block_policy_host("victim.com")

        sender = make_sts_sender(world, fetcher)   # empty cache
        attempt = sender.send(Message("a@r.net", "b@victim.com"))
        assert attempt.status is DeliveryStatus.DELIVERED_PLAINTEXT
        assert stripper.plaintext_captured
        assert blocker.blocked_lookups >= 1

    def test_cache_defeats_the_same_attack(self, world, fetcher, victim):
        sender = make_sts_sender(world, fetcher)
        sender.send(Message("a@r.net", "b@victim.com"))   # prime cache

        stripper = StarttlsStripper(world.network)
        stripper.attack(victim.mx_hosts[0])
        blocker = PolicyHostBlocker(world.resolver)
        blocker.block_policy_host("victim.com")
        world.resolver.flush_cache()

        attempt = sender.send(Message("a@r.net", "b@victim.com"))
        assert attempt.status is DeliveryStatus.REFUSED_BY_POLICY
        assert not stripper.plaintext_captured


class TestDnsSpoofing:
    def _attacker_mx(self, world):
        from repro.dns.records import ARecord
        from repro.dns.zone import Zone
        from repro.dns.name import DnsName
        from repro.smtp.server import MxHost
        from repro.tls.handshake import TlsEndpoint

        ip = world.fresh_ip("mx")
        tls = TlsEndpoint()
        cert = world.issue_cert(["mx.evil.net"])   # valid cert, own name
        tls.install("mx.evil.net", cert, default=True)
        host = MxHost("mx.evil.net", ip, world.network, tls=tls)
        zone = Zone(apex=DnsName.parse("evil.net"))
        zone.add(ARecord(DnsName.parse("mx.evil.net"), 60, ip))
        world.host_zone(zone)
        return host

    def test_opportunistic_sender_follows_spoofed_mx(self, world, victim):
        evil = self._attacker_mx(world)
        spoofer = DnsSpoofer(world.resolver)
        spoofer.spoof_mx("victim.com", "mx.evil.net")
        sender = SendingMta("naive.net", world.network, world.resolver,
                            world.trust_store, world.clock)
        attempt = sender.send(Message("a@naive.net", "b@victim.com"))
        assert attempt.delivered
        assert evil.mailbox      # the attacker received the message

    def test_mta_sts_sender_rejects_spoofed_mx(self, world, fetcher,
                                               victim):
        evil = self._attacker_mx(world)
        spoofer = DnsSpoofer(world.resolver)
        spoofer.spoof_mx("victim.com", "mx.evil.net")
        sender = make_sts_sender(world, fetcher)
        attempt = sender.send(Message("a@relay.net", "b@victim.com"))
        # mx.evil.net matches no mx pattern: enforce mode refuses.
        assert attempt.status is DeliveryStatus.REFUSED_BY_POLICY
        assert not evil.mailbox
        assert spoofer.spoofed_lookups >= 1

    def test_withdraw_restores_resolution(self, world, fetcher, victim):
        spoofer = DnsSpoofer(world.resolver)
        spoofer.spoof_mx("victim.com", "mx.evil.net")
        spoofer.withdraw()
        world.resolver.flush_cache()
        sender = make_sts_sender(world, fetcher)
        assert sender.send(Message("a@r.net", "b@victim.com")).delivered
