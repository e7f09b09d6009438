"""Unit tests for the simulated DNSSEC chain and DANE validation."""

from repro.core.dane import DaneValidator, verify_dane
from repro.dns.dnssec import ChainStatus, DnssecAuthority, ZoneSigningState
from repro.dns.name import DnsName
from repro.dns.records import TlsaRecord
from repro.pki.certificate import CertTemplate, make_self_signed
from repro.clock import Instant


def n(text):
    return DnsName.parse(text)


class TestDnssecChain:
    def test_fully_signed_chain_is_secure(self):
        authority = DnssecAuthority()
        authority.sign_zone("com")
        authority.sign_zone("example.com")
        assert authority.validate("mail.example.com") is ChainStatus.SECURE

    def test_unsigned_zone_is_insecure(self):
        authority = DnssecAuthority()
        authority.sign_zone("com")
        authority.set_state(ZoneSigningState(n("example.com"), signed=False))
        assert authority.validate("mail.example.com") is ChainStatus.INSECURE

    def test_missing_ds_is_insecure(self):
        authority = DnssecAuthority()
        authority.sign_zone("com")
        authority.sign_zone("example.com", publish_ds=False)
        assert authority.validate("example.com") is ChainStatus.INSECURE

    def test_ds_mismatch_is_bogus(self):
        authority = DnssecAuthority()
        authority.sign_zone("com")
        state = authority.sign_zone("example.com")
        state.ds_mismatch = True
        assert authority.validate("example.com") is ChainStatus.BOGUS

    def test_expired_signatures_are_bogus(self):
        authority = DnssecAuthority()
        authority.sign_zone("com")
        state = authority.sign_zone("example.com")
        state.signatures_expired = True
        assert authority.validate("mail.example.com") is ChainStatus.BOGUS

    def test_no_zones_at_all_is_insecure(self):
        authority = DnssecAuthority()
        assert authority.validate("example.com") is ChainStatus.INSECURE

    def test_below_insecure_delegation_never_bogus(self):
        authority = DnssecAuthority()
        authority.set_state(ZoneSigningState(n("com"), signed=False))
        state = authority.sign_zone("example.com")
        state.ds_mismatch = True
        assert authority.validate("example.com") is ChainStatus.INSECURE


class TestVerifyDane:
    def make_cert(self):
        return make_self_signed(CertTemplate(["mail.example.com"]),
                                Instant.parse("2024-01-01"))

    def tlsa(self, association, usage=3, selector=1):
        return TlsaRecord(n("_25._tcp.mail.example.com"), 3600, usage,
                          selector, 1, association)

    def test_dane_ee_spki_match(self):
        cert = self.make_cert()
        verdict = verify_dane([self.tlsa(cert.spki_fingerprint())], cert)
        assert verdict.matched
        assert verdict.detail == "DANE-EE match"

    def test_dane_ee_full_cert_match(self):
        cert = self.make_cert()
        record = self.tlsa(cert.cert_fingerprint(), selector=0)
        assert verify_dane([record], cert).matched

    def test_mismatch(self):
        cert = self.make_cert()
        verdict = verify_dane([self.tlsa("0" * 56)], cert)
        assert not verdict.matched
        assert verdict.usable_records == 1

    def test_dane_ta_matches_issuer(self):
        cert = self.make_cert()
        record = self.tlsa(cert.issuer_key.fingerprint(), usage=2)
        verdict = verify_dane([record], cert)
        assert verdict.matched
        assert verdict.detail == "DANE-TA match"

    def test_pkix_usages_unusable_for_smtp(self):
        cert = self.make_cert()
        records = [self.tlsa(cert.spki_fingerprint(), usage=0),
                   self.tlsa(cert.spki_fingerprint(), usage=1)]
        verdict = verify_dane(records, cert)
        assert not verdict.matched
        assert verdict.usable_records == 0

    def test_no_certificate(self):
        verdict = verify_dane([self.tlsa("ab")], None)
        assert not verdict.matched

    def test_any_matching_record_suffices(self):
        cert = self.make_cert()
        records = [self.tlsa("0" * 56),
                   self.tlsa(cert.spki_fingerprint())]
        assert verify_dane(records, cert).matched


class TestDaneValidator:
    def test_full_flow(self, world):
        from repro.ecosystem.deployment import DomainSpec, deploy_domain
        deployed = deploy_domain(world, DomainSpec(domain="dane.com",
                                                   deploy_sts=False))
        mx = deployed.mx_hosts[0]
        cert = mx.tls.select_certificate(mx.hostname)
        deployed.zone.add(TlsaRecord(
            n(f"_25._tcp.{mx.hostname}"), 3600, 3, 1, 1,
            cert.spki_fingerprint()))
        world.dnssec.sign_zone("dane.com")
        validator = DaneValidator(world.resolver, world.dnssec)
        assert validator.domain_has_dane("dane.com")
        verdict = validator.verify_mx(mx.hostname, cert)
        assert verdict.matched

    def test_insecure_chain_disables_dane(self, world):
        from repro.ecosystem.deployment import DomainSpec, deploy_domain
        deployed = deploy_domain(world, DomainSpec(domain="nodnssec.com",
                                                   deploy_sts=False))
        mx = deployed.mx_hosts[0]
        cert = mx.tls.select_certificate(mx.hostname)
        deployed.zone.add(TlsaRecord(
            n(f"_25._tcp.{mx.hostname}"), 3600, 3, 1, 1,
            cert.spki_fingerprint()))
        # zone not signed: TLSA unusable
        validator = DaneValidator(world.resolver, world.dnssec)
        assert not validator.domain_has_dane("nodnssec.com")
        assert not validator.verify_mx(mx.hostname, cert).matched

    def test_no_tlsa_records(self, world):
        from repro.ecosystem.deployment import DomainSpec, deploy_domain
        deployed = deploy_domain(world, DomainSpec(domain="plain.com",
                                                   deploy_sts=False))
        world.dnssec.sign_zone("plain.com")
        validator = DaneValidator(world.resolver, world.dnssec)
        assert not validator.domain_has_dane("plain.com")
