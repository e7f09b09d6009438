"""Integration tests for policy discovery, fetch and the per-domain
verdict built on top of them."""

import pytest

from repro.core.matching import uncovered_mx_hosts
from repro.core.policy import Policy, PolicyMode
from repro.ecosystem.deployment import DomainSpec, deploy_domain
from repro.ecosystem.misconfig import Fault, apply_fault
from repro.ecosystem.providers import table2_providers
from repro.errors import (
    MisconfigCategory, PolicyFetchStage, StsRecordError, TlsFailure,
)
from repro.measurement.scanner import Scanner
from repro.measurement.taxonomy import categorize, delivery_failure_expected


class TestFetcher:
    def test_healthy_domain(self, world, fetcher, simple_domain):
        result = fetcher.fetch_policy("example.com")
        assert result.sts_enabled
        assert result.record is not None
        assert result.policy is not None
        assert result.failed_stage is None
        assert result.fully_valid

    def test_no_sts_domain(self, world, fetcher):
        deploy_domain(world, DomainSpec(domain="plain.com",
                                        deploy_sts=False))
        result = fetcher.fetch_policy("plain.com")
        assert not result.sts_enabled
        assert result.failed_stage is None

    def test_lookup_record_only_does_no_https(self, world, fetcher,
                                              simple_domain):
        result = fetcher.lookup_record("example.com")
        assert result.record is not None
        assert result.fetch is None

    def test_broken_record_still_fetches(self, world, fetcher,
                                          simple_domain):
        apply_fault(world, simple_domain, Fault.RECORD_INVALID_ID)
        world.resolver.flush_cache()
        result = fetcher.fetch_policy("example.com")
        assert result.record is None
        assert result.record_error is StsRecordError.INVALID_ID
        assert result.policy is not None    # scanner-mode fetch happened

    def test_cname_recorded(self, world, fetcher):
        provider = table2_providers()[1]    # DMARCReport
        deploy_domain(world, DomainSpec(domain="delegated.com",
                                        policy_provider=provider))
        result = fetcher.fetch_policy("delegated.com")
        assert result.policy_host_cname == \
            provider.canonical_host_for("delegated.com")
        assert result.fully_valid

    @pytest.mark.parametrize("fault, stage, tls_failure", [
        (Fault.POLICY_DNS_UNRESOLVABLE, PolicyFetchStage.DNS, None),
        (Fault.POLICY_TCP_CLOSED, PolicyFetchStage.TCP, None),
        (Fault.POLICY_TCP_TIMEOUT, PolicyFetchStage.TCP, None),
        (Fault.POLICY_TLS_CN_MISMATCH, PolicyFetchStage.TLS,
         TlsFailure.HOSTNAME_MISMATCH),
        (Fault.POLICY_TLS_SELF_SIGNED, PolicyFetchStage.TLS,
         TlsFailure.SELF_SIGNED),
        (Fault.POLICY_TLS_EXPIRED, PolicyFetchStage.TLS, TlsFailure.EXPIRED),
        (Fault.POLICY_TLS_NO_CERT, PolicyFetchStage.TLS,
         TlsFailure.NO_CERTIFICATE),
        (Fault.POLICY_HTTP_404, PolicyFetchStage.HTTP, None),
        (Fault.POLICY_HTTP_500, PolicyFetchStage.HTTP, None),
        (Fault.POLICY_SYNTAX_EMPTY, PolicyFetchStage.SYNTAX, None),
        (Fault.POLICY_SYNTAX_BAD_MX, PolicyFetchStage.SYNTAX, None),
    ])
    def test_every_figure5_stage(self, world, fetcher, simple_domain,
                                 fault, stage, tls_failure):
        apply_fault(world, simple_domain, fault)
        world.resolver.flush_cache()
        result = fetcher.fetch_policy("example.com")
        assert result.failed_stage is stage
        if tls_failure is not None:
            assert result.tls_failure is tls_failure


class TestValidator:
    """Validation scenarios judged by the one per-domain verdict:
    ``Scanner.scan_domain`` plus the taxonomy."""

    @staticmethod
    def assess(world, domain="example.com"):
        return Scanner(world).scan_domain(domain, 0)

    def test_healthy_assessment(self, world, simple_domain):
        snap = self.assess(world)
        assert snap.sts_like
        assert categorize(snap) == []
        assert not delivery_failure_expected(snap)

    def test_record_category(self, world, simple_domain):
        apply_fault(world, simple_domain, Fault.RECORD_MISSING_ID)
        world.resolver.flush_cache()
        assert MisconfigCategory.DNS_RECORD in categorize(self.assess(world))

    def test_policy_category(self, world, simple_domain):
        apply_fault(world, simple_domain, Fault.POLICY_HTTP_404)
        assert MisconfigCategory.POLICY_RETRIEVAL in \
            categorize(self.assess(world))

    def test_mx_cert_category(self, world, simple_domain):
        apply_fault(world, simple_domain, Fault.MX_CERT_EXPIRED)
        snap = self.assess(world)
        assert MisconfigCategory.MX_CERTIFICATE in categorize(snap)
        assert snap.any_invalid_mx_cert
        assert [o.failure_class for o in snap.mx_tls_capable
                if not o.cert_valid] == ["expired"]

    def test_inconsistency_category(self, world, simple_domain):
        apply_fault(world, simple_domain, Fault.MISMATCH_DOMAIN)
        snap = self.assess(world)
        assert MisconfigCategory.INCONSISTENCY in categorize(snap)
        assert uncovered_mx_hosts(snap.mx_patterns,
                                  snap.mx_hostnames) == ["mail.example.com"]

    def test_multiple_categories_coexist(self, world, simple_domain):
        apply_fault(world, simple_domain, Fault.RECORD_INVALID_ID)
        apply_fault(world, simple_domain, Fault.MX_CERT_SELF_SIGNED)
        world.resolver.flush_cache()
        categories = categorize(self.assess(world))
        assert MisconfigCategory.DNS_RECORD in categories
        assert MisconfigCategory.MX_CERTIFICATE in categories

    def test_enforce_mismatch_predicts_delivery_failure(self, world):
        deployed = deploy_domain(world, DomainSpec(
            domain="strict.com",
            policy=Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                          max_age=86400, mx_patterns=("mail.strict.com",))))
        apply_fault(world, deployed, Fault.MISMATCH_DOMAIN)
        assert delivery_failure_expected(self.assess(world, "strict.com"))

    def test_testing_mismatch_does_not_fail_delivery(self, world,
                                                     simple_domain):
        apply_fault(world, simple_domain, Fault.MISMATCH_DOMAIN)
        snap = self.assess(world)
        assert not delivery_failure_expected(snap)    # testing mode

    def test_enforce_all_invalid_mx_fails_delivery(self, world):
        deployed = deploy_domain(world, DomainSpec(
            domain="strict2.com",
            policy=Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                          max_age=86400, mx_patterns=("mail.strict2.com",))))
        apply_fault(world, deployed, Fault.MX_CERT_SELF_SIGNED, mx_index=None)
        assert delivery_failure_expected(self.assess(world, "strict2.com"))

    def test_enforce_partial_invalid_mx_survives(self, world):
        deployed = deploy_domain(world, DomainSpec(
            domain="strict3.com", self_mx_count=2,
            policy=Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                          max_age=86400,
                          mx_patterns=("mx1.strict3.com",
                                       "mx2.strict3.com"))))
        apply_fault(world, deployed, Fault.MX_CERT_SELF_SIGNED, mx_index=0)
        snap = self.assess(world, "strict3.com")
        assert snap.any_invalid_mx_cert and not snap.all_invalid_mx_cert
        assert not delivery_failure_expected(snap)

    def test_unretrievable_policy_cannot_fail_delivery(self, world):
        deployed = deploy_domain(world, DomainSpec(
            domain="strict4.com",
            policy=Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                          max_age=86400, mx_patterns=("mail.strict4.com",))))
        apply_fault(world, deployed, Fault.POLICY_HTTP_404)
        snap = self.assess(world, "strict4.com")
        assert categorize(snap)
        assert not delivery_failure_expected(snap)

    def test_3ld_mismatch(self, world, simple_domain):
        apply_fault(world, simple_domain, Fault.MISMATCH_3LD)
        snap = self.assess(world)
        assert not snap.consistent
        assert snap.mx_patterns == ["mta-sts.mail.example.com"]
