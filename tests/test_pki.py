"""Unit tests for the simulated PKI: certificates, CAs, validation, ACME."""

import hashlib
from dataclasses import replace

import pytest

from repro.clock import Clock, Instant
from repro.errors import TlsFailure
from repro.pki.acme import AcmeChallengeError, AcmeService
from repro.pki.ca import CertificateAuthority, TrustStore
from repro.pki.certificate import (
    CertTemplate, hostname_matches, make_self_signed,
)
from repro.pki.validation import (
    chain_cache_stats, classify_failure, flush_chain_cache,
    reset_chain_cache_stats, validate_chain, validate_chain_cached,
    verify_hostname,
)


@pytest.fixture
def clock():
    return Clock(Instant.parse("2024-01-01"))


@pytest.fixture
def ca(clock):
    return CertificateAuthority("Test CA", clock)


@pytest.fixture
def store(ca):
    return TrustStore([ca.root])


class TestHostnameMatching:
    def test_exact(self):
        assert hostname_matches("mail.example.com", "mail.example.com")

    def test_case_and_dots(self):
        assert hostname_matches("Mail.Example.COM.", "mail.example.com")

    def test_wildcard_single_label(self):
        assert hostname_matches("*.example.com", "mta-sts.example.com")
        assert not hostname_matches("*.example.com", "a.b.example.com")
        assert not hostname_matches("*.example.com", "example.com")

    def test_empty(self):
        assert not hostname_matches("", "example.com")


class TestCertificates:
    def test_issued_cert_validates(self, ca, store, clock):
        cert = ca.issue(CertTemplate(["mail.example.com"]))
        result = validate_chain(cert, "mail.example.com", store, clock.now())
        assert result.valid

    def test_san_takes_precedence_over_cn(self, ca):
        cert = ca.issue(CertTemplate(["a.example.com", "b.example.com"]))
        assert cert.covers_hostname("b.example.com")
        assert not cert.covers_hostname("c.example.com")

    def test_cn_fallback_when_no_san(self, ca, clock):
        from dataclasses import replace
        cert = ca.issue(CertTemplate(["mail.example.com"]))
        cn_only = replace(cert, san=())
        assert cn_only.covers_hostname("mail.example.com")

    def test_hostname_mismatch(self, ca, store, clock):
        cert = ca.issue(CertTemplate(["example.com"]))
        result = validate_chain(cert, "mta-sts.example.com", store,
                                clock.now())
        assert not result.valid
        assert result.failure is TlsFailure.HOSTNAME_MISMATCH
        assert classify_failure(result) == "cn-mismatch"

    def test_expired(self, ca, store, clock):
        cert = ca.issue(CertTemplate(["x.com"], lifetime_days=30),
                        backdate_days=60)
        result = validate_chain(cert, "x.com", store, clock.now())
        assert result.failure is TlsFailure.EXPIRED
        assert classify_failure(result) == "expired"

    def test_not_yet_valid(self, ca, store, clock):
        cert = ca.issue(CertTemplate(["x.com"]), backdate_days=-10)
        result = validate_chain(cert, "x.com", store, clock.now())
        assert result.failure is TlsFailure.NOT_YET_VALID

    def test_self_signed(self, store, clock):
        cert = make_self_signed(CertTemplate(["x.com"]), clock.now())
        result = validate_chain(cert, "x.com", store, clock.now())
        assert result.failure is TlsFailure.SELF_SIGNED
        assert classify_failure(result) == "self-signed"

    def test_trusted_self_signed_root_pattern(self, clock, store):
        # A self-signed cert explicitly added as a root is trusted.
        from dataclasses import replace
        cert = make_self_signed(CertTemplate(["private.corp"]), clock.now())
        root_like = replace(cert, is_ca=True)
        store.add_root(root_like)
        result = validate_chain(root_like, "private.corp", store, clock.now())
        assert result.valid

    def test_untrusted_issuer(self, clock, store):
        other_ca = CertificateAuthority("Rogue CA", Clock(clock.now()))
        cert = other_ca.issue(CertTemplate(["x.com"]))
        result = validate_chain(cert, "x.com", store, clock.now())
        assert result.failure is TlsFailure.UNTRUSTED_ROOT

    def test_revoked(self, ca, store, clock):
        cert = ca.revoke(ca.issue(CertTemplate(["x.com"])))
        result = validate_chain(cert, "x.com", store, clock.now())
        assert result.failure is TlsFailure.REVOKED

    def test_missing_certificate(self, store, clock):
        result = validate_chain(None, "x.com", store, clock.now())
        assert result.failure is TlsFailure.NO_CERTIFICATE

    def test_verify_hostname_only(self, ca):
        cert = ca.issue(CertTemplate(["*.example.com"]))
        assert verify_hostname(cert, "mta-sts.example.com").valid
        assert not verify_hostname(cert, "other.org").valid

    def test_signature_binds_issuer(self, ca, store, clock):
        from dataclasses import replace
        cert = ca.issue(CertTemplate(["x.com"]))
        tampered = replace(cert, san=("y.com",), subject_cn="y.com")
        result = validate_chain(tampered, "y.com", store, clock.now())
        assert not result.valid

    def test_fingerprints_stable_and_distinct(self, ca):
        a = ca.issue(CertTemplate(["a.com"]))
        b = ca.issue(CertTemplate(["b.com"]))
        assert a.spki_fingerprint() != b.spki_fingerprint()
        assert a.cert_fingerprint() == a.cert_fingerprint()


class TestIdentityMemo:
    """A key's fingerprint, a certificate's fingerprint and its signature
    verdict are computed once per frozen object and kept on it; a
    ``dataclasses.replace`` copy starts without them."""

    @pytest.fixture(autouse=True)
    def _fresh_chain_cache(self):
        flush_chain_cache()
        reset_chain_cache_stats()
        yield
        flush_chain_cache()
        reset_chain_cache_stats()

    def test_memoized_identity_equals_a_fresh_computation(self, ca):
        cert = ca.issue(CertTemplate(["x.com"]))
        fingerprint = cert.cert_fingerprint()
        assert cert.signature_valid()
        assert cert.cert_fingerprint() is fingerprint
        copy = replace(cert)
        assert copy == cert and copy is not cert
        assert copy.cert_fingerprint() == fingerprint == hashlib.sha256(
            (copy.tbs_payload() + copy.signature).encode()
        ).hexdigest()[:56]
        assert copy.signature_valid()
        key_copy = replace(cert.key)
        assert key_copy.fingerprint() == cert.key.fingerprint()
        assert key_copy.fingerprint() == hashlib.sha256(
            f"spki:{cert.key.key_id}".encode()).hexdigest()[:56]

    def test_tampered_signature_copy_still_fails(self, ca, store, clock):
        cert = ca.issue(CertTemplate(["x.com"]))
        assert validate_chain(cert, "x.com", store, clock.now()).valid
        tampered = replace(cert, signature="0" * 40)
        assert not tampered.signature_valid()
        assert tampered.cert_fingerprint() != cert.cert_fingerprint()
        result = validate_chain(tampered, "x.com", store, clock.now())
        assert result.failure is TlsFailure.HANDSHAKE_ALERT

    def test_revoked_copy_gets_its_own_chain_cache_key(self, ca, store,
                                                       clock):
        cert = ca.issue(CertTemplate(["x.com"]))
        now = clock.now()
        assert validate_chain_cached(cert, "x.com", store, now).valid
        revoked = ca.revoke(cert)
        # ``revoked`` is outside the signed payload: same fingerprint.
        assert revoked.cert_fingerprint() == cert.cert_fingerprint()
        result = validate_chain_cached(revoked, "x.com", store, now)
        assert result.failure is TlsFailure.REVOKED
        assert chain_cache_stats()["cache_hits"] == 0
        assert validate_chain_cached(cert, "x.com", store, now).valid
        assert chain_cache_stats()["cache_hits"] == 1


class TestTrustStore:
    def test_add_requires_ca(self, ca, clock):
        with pytest.raises(ValueError):
            TrustStore([ca.issue(CertTemplate(["leaf.com"]))])

    def test_remove_root(self, ca, store, clock):
        store.remove_root(ca.root)
        cert = ca.issue(CertTemplate(["x.com"]))
        assert not validate_chain(cert, "x.com", store, clock.now()).valid


class TestAcme:
    @pytest.fixture
    def acme_setup(self, clock, ca):
        from repro.dns.name import DnsName
        from repro.dns.records import ARecord
        from repro.dns.resolver import Resolver
        from repro.dns.server import AuthoritativeServer
        from repro.dns.zone import Zone
        from repro.netsim.ip import IpAddress, IpPool
        from repro.netsim.network import Network

        network = Network()
        pool = IpPool()
        server = AuthoritativeServer("ns", pool.allocate(), network)
        zone = Zone(apex=DnsName.parse("example.com"))
        zone.add(ARecord(DnsName.parse("mta-sts.example.com"), 300,
                         IpAddress.v4(10, 5, 5, 5)))
        server.add_zone(zone)
        resolver = Resolver(network, clock)
        resolver.delegate("example.com", [server.ip])
        return AcmeService(ca, resolver, clock)

    def test_issue_with_control(self, acme_setup):
        cert = acme_setup.issue_dv(["mta-sts.example.com"], {"10.5.5.5"})
        assert cert.covers_hostname("mta-sts.example.com")

    def test_issue_without_control_fails(self, acme_setup):
        with pytest.raises(AcmeChallengeError):
            acme_setup.issue_dv(["mta-sts.example.com"], {"10.6.6.6"})

    def test_unresolvable_name_fails(self, acme_setup):
        with pytest.raises(AcmeChallengeError):
            acme_setup.issue_dv(["mta-sts.ghost.com"], {"10.5.5.5"})
