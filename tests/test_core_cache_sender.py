"""Tests for the TOFU policy cache and the MTA-STS-compliant sender."""

import pytest

from repro.clock import Duration
from repro.core.cache import PolicyCache
from repro.core.dane import DaneValidator
from repro.core.policy import Policy, PolicyMode
from repro.core.sender import MtaStsSender, SenderPolicyConfig
from repro.dns.name import DnsName
from repro.dns.records import TlsaRecord
from repro.ecosystem.deployment import DomainSpec, deploy_domain
from repro.ecosystem.misconfig import Fault, apply_fault
from repro.smtp.delivery import DeliveryStatus, Message


def make_policy(mode=PolicyMode.ENFORCE, max_age=86400,
                patterns=("mail.example.com",)):
    return Policy(version="STSv1", mode=mode, max_age=max_age,
                  mx_patterns=patterns)


class TestPolicyCache:
    def test_store_and_get(self, world):
        cache = PolicyCache(world.clock)
        cache.store("example.com", make_policy(), "id1")
        entry = cache.get("example.com")
        assert entry is not None
        assert entry.record_id == "id1"

    def test_expiry_by_max_age(self, world):
        cache = PolicyCache(world.clock)
        cache.store("example.com", make_policy(max_age=3600), "id1")
        world.clock.advance(Duration(3601))
        assert cache.get("example.com") is None
        assert len(cache) == 0

    def test_fresh_until_max_age(self, world):
        # RFC 8461 caps lifetime at max_age: last fresh second is
        # fetched_at + max_age - 1; at exactly max_age the entry expires.
        cache = PolicyCache(world.clock)
        cache.store("example.com", make_policy(max_age=3600), "id1")
        world.clock.advance(Duration(3599))
        assert cache.get("example.com") is not None
        world.clock.advance(Duration(1))
        assert cache.get("example.com") is None

    def test_casefold_keying(self, world):
        # ẞ and İ casefold differently from .lower(); the cache must
        # key exactly as canonical_host() does, or a ẞ/İ sender domain
        # would cache under a key the matcher and scanner never read.
        cache = PolicyCache(world.clock)
        cache.store("STRAẞE.example.", make_policy(), "id1")
        assert cache.get("strasse.example") is not None
        cache.store("İSTANBUL.example", make_policy(), "id2")
        assert cache.get("i̇stanbul.example") is not None
        assert cache.needs_refresh("strasse.example", "id1") is False
        cache.evict("STRASSE.example")
        assert cache.peek("strasse.example") is None

    def test_refresh_probes_do_not_count_hits(self, world):
        # RefreshDaemon freshness probes must not inflate hit_count:
        # the delivery engine reports it as the cache hit-rate metric.
        cache = PolicyCache(world.clock)
        cache.store("example.com", make_policy(), "id1")
        assert cache.hit_count == 0
        for _ in range(5):
            cache.needs_refresh("example.com", "id1")
        assert cache.hit_count == 0
        cache.get("example.com")
        assert cache.hit_count == 1

    def test_refresh_on_id_change(self, world):
        cache = PolicyCache(world.clock)
        cache.store("example.com", make_policy(), "id1")
        assert not cache.needs_refresh("example.com", "id1")
        assert cache.needs_refresh("example.com", "id2")

    def test_missing_record_keeps_cached_policy(self, world):
        # The §2.6 hazard: removing the record does NOT evict caches.
        cache = PolicyCache(world.clock)
        cache.store("example.com", make_policy(), "id1")
        assert not cache.needs_refresh("example.com", None)

    def test_unknown_domain_needs_refresh(self, world):
        cache = PolicyCache(world.clock)
        assert cache.needs_refresh("example.com", "id1")

    def test_case_insensitive_domains(self, world):
        cache = PolicyCache(world.clock)
        cache.store("Example.COM", make_policy(), "id1")
        assert cache.get("example.com") is not None

    def test_evict_and_flush(self, world):
        cache = PolicyCache(world.clock)
        cache.store("a.com", make_policy(), "1")
        cache.store("b.com", make_policy(), "1")
        cache.evict("a.com")
        assert cache.get("a.com") is None
        cache.flush()
        assert len(cache) == 0


@pytest.fixture
def sender(world, fetcher):
    return MtaStsSender("sender.example.net", world.network, world.resolver,
                        world.trust_store, world.clock, fetcher)


class TestMtaStsSender:
    def test_delivers_to_healthy_domain(self, world, sender, simple_domain):
        attempt = sender.send(Message("a@s.net", "b@example.com"))
        assert attempt.delivered
        assert sender.last_mechanism == "mta-sts"
        assert sender.cache.get("example.com") is not None

    def test_enforce_refuses_mx_mismatch(self, world, sender):
        deployed = deploy_domain(world, DomainSpec(
            domain="strict.com", policy=make_policy(
                patterns=("mail.strict.com",))))
        apply_fault(world, deployed, Fault.MISMATCH_DOMAIN)
        attempt = sender.send(Message("a@s.net", "b@strict.com"))
        assert attempt.status is DeliveryStatus.REFUSED_BY_POLICY

    def test_testing_mode_delivers_despite_mismatch(self, world, sender):
        deployed = deploy_domain(world, DomainSpec(
            domain="testing.com", policy=make_policy(
                mode=PolicyMode.TESTING, patterns=("mail.testing.com",))))
        apply_fault(world, deployed, Fault.MISMATCH_DOMAIN)
        attempt = sender.send(Message("a@s.net", "b@testing.com"))
        assert attempt.delivered
        assert any(e.action == "testing-mismatch" for e in sender.events)

    def test_enforce_refuses_bad_certificate(self, world, sender):
        deployed = deploy_domain(world, DomainSpec(
            domain="badcert.com", policy=make_policy(
                patterns=("mail.badcert.com",))))
        apply_fault(world, deployed, Fault.MX_CERT_SELF_SIGNED,
                    mx_index=None)
        attempt = sender.send(Message("a@s.net", "b@badcert.com"))
        assert attempt.status is DeliveryStatus.REFUSED_BY_POLICY

    def test_none_mode_is_opportunistic(self, world, sender):
        deployed = deploy_domain(world, DomainSpec(
            domain="nonemode.com", policy=make_policy(
                mode=PolicyMode.NONE, patterns=())))
        apply_fault(world, deployed, Fault.MX_CERT_SELF_SIGNED,
                    mx_index=None)
        attempt = sender.send(Message("a@s.net", "b@nonemode.com"))
        assert attempt.delivered

    def test_no_policy_is_opportunistic(self, world, sender):
        deploy_domain(world, DomainSpec(domain="plain.com",
                                        deploy_sts=False))
        attempt = sender.send(Message("a@s.net", "b@plain.com"))
        assert attempt.delivered
        assert sender.last_mechanism == "opportunistic"

    def test_cached_policy_survives_policy_server_outage(self, world,
                                                         sender,
                                                         simple_domain):
        # First send caches the policy...
        sender.send(Message("a@s.net", "b@example.com"))
        # ...then the policy server breaks; a fresh cache still applies.
        apply_fault(world, simple_domain, Fault.POLICY_HTTP_404)
        world.resolver.flush_cache()
        attempt = sender.send(Message("a@s.net", "b@example.com"))
        assert attempt.delivered
        assert sender.last_mechanism == "mta-sts"

    def test_cached_enforce_policy_blocks_after_abrupt_breakage(
            self, world, fetcher):
        deployed = deploy_domain(world, DomainSpec(
            domain="abrupt.com",
            policy=make_policy(patterns=("mail.abrupt.com",),
                               max_age=7 * 86400)))
        sender = MtaStsSender("s.net", world.network, world.resolver,
                              world.trust_store, world.clock, fetcher)
        sender.send(Message("a@s.net", "b@abrupt.com"))
        # The domain abruptly migrates MX without updating anything and
        # the new MX has a bad certificate.
        apply_fault(world, deployed, Fault.MX_CERT_SELF_SIGNED,
                    mx_index=None)
        world.resolver.flush_cache()
        attempt = sender.send(Message("a@s.net", "b@abrupt.com"))
        assert attempt.status is DeliveryStatus.REFUSED_BY_POLICY

    def test_record_id_bump_triggers_refetch(self, world, fetcher,
                                             simple_domain):
        sender = MtaStsSender("s.net", world.network, world.resolver,
                              world.trust_store, world.clock, fetcher)
        sender.send(Message("a@s.net", "b@example.com"))
        assert sender.cache.get("example.com").policy.mode is \
            PolicyMode.TESTING
        # Publish an updated policy + a new record id.
        new_policy = make_policy(mode=PolicyMode.ENFORCE,
                                 patterns=("mail.example.com",))
        from repro.core.policy import render_policy
        simple_domain.set_policy_text(render_policy(new_policy))
        simple_domain.set_record("v=STSv1; id=20990101;")
        world.resolver.flush_cache()
        sender.send(Message("a@s.net", "b@example.com"))
        assert sender.cache.get("example.com").policy.mode is \
            PolicyMode.ENFORCE

    def test_validation_disabled_sender(self, world, fetcher):
        deployed = deploy_domain(world, DomainSpec(
            domain="ignored.com", policy=make_policy(
                patterns=("mail.ignored.com",))))
        apply_fault(world, deployed, Fault.MX_CERT_SELF_SIGNED,
                    mx_index=None)
        sender = MtaStsSender(
            "s.net", world.network, world.resolver, world.trust_store,
            world.clock, fetcher,
            config=SenderPolicyConfig(validate_mta_sts=False))
        attempt = sender.send(Message("a@s.net", "b@ignored.com"))
        assert attempt.delivered     # opportunistic: bad cert accepted


class TestDanePrecedence:
    def _dane_domain(self, world, *, sts_cert_invalid: bool):
        deployed = deploy_domain(world, DomainSpec(
            domain="dual.com",
            policy=make_policy(patterns=("mail.dual.com",))))
        mx = deployed.mx_hosts[0]
        if sts_cert_invalid:
            apply_fault(world, deployed, Fault.MX_CERT_SELF_SIGNED,
                        mx_index=None)
        cert = mx.tls.select_certificate(mx.hostname)
        deployed.zone.add(TlsaRecord(
            DnsName.parse(f"_25._tcp.{mx.hostname}"), 3600, 3, 1, 1,
            cert.spki_fingerprint()))
        world.dnssec.sign_zone("dual.com")
        return deployed

    def make_sender(self, world, fetcher, prefer_sts=False):
        return MtaStsSender(
            "s.net", world.network, world.resolver, world.trust_store,
            world.clock, fetcher,
            config=SenderPolicyConfig(validate_mta_sts=True,
                                      validate_dane=True,
                                      prefer_mta_sts_over_dane=prefer_sts),
            dane=DaneValidator(world.resolver, world.dnssec))

    def test_dane_takes_precedence(self, world, fetcher):
        # The MX cert is self-signed (MTA-STS would refuse) but matches
        # the TLSA record: DANE-first senders deliver.
        self._dane_domain(world, sts_cert_invalid=True)
        sender = self.make_sender(world, fetcher)
        attempt = sender.send(Message("a@s.net", "b@dual.com"))
        assert attempt.delivered
        assert sender.last_mechanism == "dane"

    def test_milter_bug_prefers_mta_sts(self, world, fetcher):
        self._dane_domain(world, sts_cert_invalid=True)
        sender = self.make_sender(world, fetcher, prefer_sts=True)
        attempt = sender.send(Message("a@s.net", "b@dual.com"))
        # MTA-STS path sees the self-signed cert and refuses: the bug
        # turns a deliverable message into a refusal.
        assert attempt.status is DeliveryStatus.REFUSED_BY_POLICY
        assert sender.last_mechanism == "mta-sts"
