"""Tests for domain deployment, providers, and fault injection."""

import pytest

from repro.core.tlsrpt import TlsRptRecord
from repro.dns.name import DnsName
from repro.dns.records import RRType
from repro.ecosystem.deployment import (
    DomainSpec, deploy_domain, undeploy_domain,
)
from repro.ecosystem.misconfig import Fault, apply_fault
from repro.ecosystem.providers import (
    OptOutBehavior, default_email_providers, table2_providers,
)
from repro.errors import PolicyFetchStage
from repro.measurement.repair import RepairAction, apply_repairs


class TestDeployment:
    def test_self_managed_stack(self, world, simple_domain):
        assert simple_domain.mx_hosts
        assert simple_domain.policy_server is not None
        zone = simple_domain.zone
        apex = DnsName.parse("example.com")
        assert zone.lookup(apex, RRType.MX)
        assert zone.lookup(apex, RRType.NS)
        assert zone.lookup(DnsName.parse("_mta-sts.example.com"), RRType.TXT)
        assert zone.lookup(DnsName.parse("mta-sts.example.com"), RRType.A)

    def test_default_policy_covers_intended_mx(self, world, fetcher,
                                               simple_domain):
        result = fetcher.fetch_policy("example.com")
        assert result.policy.mx_patterns == ("mail.example.com",)

    def test_multi_mx(self, world):
        deployed = deploy_domain(world, DomainSpec(domain="multi.com",
                                                   self_mx_count=3))
        assert len(deployed.mx_hosts) == 3
        assert deployed.mx_record_hostnames() == [
            "mx1.multi.com", "mx2.multi.com", "mx3.multi.com"]

    def test_provider_mx_shared(self, world):
        google = default_email_providers()[0]
        a = deploy_domain(world, DomainSpec(domain="a.com",
                                            email_provider=google))
        b = deploy_domain(world, DomainSpec(domain="b.com",
                                            email_provider=google))
        assert a.mx_record_hostnames() == b.mx_record_hostnames()
        assert not a.mx_hosts       # the provider owns the hosts

    def test_unique_mx_provider(self, world):
        lucid = next(p for p in default_email_providers()
                     if p.assigns_unique_mx_per_customer)
        deployed = deploy_domain(world, DomainSpec(domain="cust.com",
                                                   email_provider=lucid))
        assert deployed.mx_record_hostnames() == \
            ["cust-com.mail.lucidgrow.com"]

    def test_no_sts_deployment(self, world):
        deployed = deploy_domain(world, DomainSpec(domain="nosts.com",
                                                   deploy_sts=False))
        zone = deployed.zone
        assert not zone.lookup(DnsName.parse("_mta-sts.nosts.com"),
                               RRType.TXT)
        assert deployed.policy_server is None

    def test_dns_provider_ns_records(self, world):
        deployed = deploy_domain(world, DomainSpec(
            domain="outsourced.com", dns_provider_sld="dns-provider.net"))
        ns = deployed.zone.lookup(DnsName.parse("outsourced.com"), RRType.NS)
        assert all(r.nsdname.text.endswith("dns-provider.net") for r in ns)


class TestNameIntern:
    """Deployment looks every name up in the world's intern
    (``Resolver.name``), so redeploying a domain — what the incremental
    materializer does for every changed domain each month — parses no
    spelling a second time."""

    @staticmethod
    def _specs():
        email = default_email_providers()
        lucid = next(p for p in email if p.assigns_unique_mx_per_customer)
        return [
            DomainSpec(domain="self.com", self_mx_count=2,
                       tlsrpt=TlsRptRecord("TLSRPTv1",
                                           ("mailto:tls@self.com",))),
            DomainSpec(domain="hosted.com", email_provider=email[0],
                       dns_provider_sld="dns-provider.net",
                       policy_provider=table2_providers()[2]),
            DomainSpec(domain="unique.com", email_provider=lucid,
                       policy_provider=table2_providers()[0]),
        ]

    @staticmethod
    def _record_parses(monkeypatch):
        """The list every spelling passed to :meth:`DnsName.parse`
        from now on is appended to."""
        parsed = []
        real_parse = DnsName.parse.__func__

        def counting_parse(cls, text):
            parsed.append(text)
            return real_parse(cls, text)

        monkeypatch.setattr(DnsName, "parse", classmethod(counting_parse))
        return parsed

    def test_redeploy_parses_no_name(self, world, monkeypatch):
        first = [deploy_domain(world, spec) for spec in self._specs()]
        for deployed in first:
            undeploy_domain(world, deployed)
        parsed = self._record_parses(monkeypatch)
        again = [deploy_domain(world, deployed.spec) for deployed in first]
        for deployed in again:
            deployed.set_record("v=STSv1; id=2;")
            deployed.set_mx_records(deployed.mx_record_hostnames())
            deployed.remove_record()
        assert parsed == []
        for old, new in zip(first, again):
            assert new.zone.apex is old.zone.apex

    def test_faults_and_repair_parse_no_name(self, world, monkeypatch):
        """The misconfiguration injector and the repair applier look
        their names up in the intern too: breaking and repairing a
        redeployed domain a second time parses nothing."""
        repair = RepairAction(1, "policy-host", "publish-policy-host-dns",
                              "publish the policy host's A record")

        def break_and_repair(deployed):
            for fault in (Fault.RECORD_DUPLICATE,
                          Fault.POLICY_DNS_UNRESOLVABLE,
                          Fault.OUTDATED_POLICY):
                apply_fault(world, deployed, fault)
            assert apply_repairs(world, deployed, [repair]) == [
                repair.action]

        spec = self._specs()[0]            # self-hosted MX and policy
        first = deploy_domain(world, spec)
        break_and_repair(first)
        undeploy_domain(world, first)
        again = deploy_domain(world, spec)
        parsed = self._record_parses(monkeypatch)
        break_and_repair(again)
        assert parsed == []


class TestPolicyProviders:
    def test_cname_delegation(self, world, fetcher):
        provider = table2_providers()[2]     # PowerDMARC
        deploy_domain(world, DomainSpec(domain="c.com",
                                        policy_provider=provider))
        result = fetcher.fetch_policy("c.com")
        assert result.fully_valid
        assert result.policy_host_cname == "c-com._mta.mta-sts.tech"

    def test_cname_patterns_match_table2(self):
        patterns = {p.name: p.canonical_host_for("a.com")
                    for p in table2_providers()}
        assert patterns["Tutanota"] == "_mta-sts.tutanota.de"
        assert patterns["DMARCReport"] == "a-com.mta-sts.dmarcinput.com"
        assert patterns["PowerDMARC"] == "a-com._mta.mta-sts.tech"
        assert patterns["EasyDMARC"] == "a_com__mta_sts.easydmarc.pro"
        assert patterns["Mailhardener"] == "a.com._mta-sts.mailhardener.com"
        assert patterns["URIports"] == "a-com._mta-sts.uriports.com"
        assert patterns["Sendmarc"] == "a.com._mta-sts.sdmarc.net"
        assert patterns["OnDMARC"] == \
            "_mta-sts.a.com._mta-sts.smart.ondmarc.com"


class TestOptOutBehaviors:
    @pytest.fixture
    def customer(self, world):
        def deploy_with(provider):
            return deploy_domain(world, DomainSpec(
                domain=f"cust-{provider.name.lower()}.com",
                policy_provider=provider,
                email_provider=None))
        return deploy_with

    def test_nxdomain_provider(self, world, fetcher, customer):
        provider = next(p for p in table2_providers()
                        if p.opt_out is OptOutBehavior.NXDOMAIN)
        deployed = customer(provider)
        provider.customer_opts_out(world, deployed.domain)
        world.resolver.flush_cache()
        result = fetcher.fetch_policy(deployed.domain)
        assert result.failed_stage is PolicyFetchStage.DNS

    def test_empty_policy_provider(self, world, fetcher, customer):
        provider = next(p for p in table2_providers()
                        if p.opt_out is OptOutBehavior.REISSUE_CERT_EMPTY_POLICY)
        deployed = customer(provider)
        provider.customer_opts_out(world, deployed.domain)
        world.resolver.flush_cache()
        result = fetcher.fetch_policy(deployed.domain)
        assert result.failed_stage is PolicyFetchStage.SYNTAX
        assert result.fetch.certificate is not None   # cert still valid

    def test_stale_policy_provider(self, world, fetcher, customer):
        provider = next(p for p in table2_providers()
                        if p.opt_out is OptOutBehavior.REISSUE_CERT_STALE_POLICY)
        deployed = customer(provider)
        provider.customer_opts_out(world, deployed.domain)
        world.resolver.flush_cache()
        result = fetcher.fetch_policy(deployed.domain)
        assert result.fully_valid     # the stale policy still serves

    def test_tutanota_rejects_mail(self, world, customer):
        provider = table2_providers()[0]
        provider.deploy(world)
        tutanota_mail = next(p for p in default_email_providers()
                             if p.name == "Tutanota")
        deployed = deploy_domain(world, DomainSpec(
            domain="cust-tuta.com", policy_provider=provider,
            email_provider=tutanota_mail))
        provider.customer_opts_out(world, "cust-tuta.com")
        tutanota_mail.mx_hosts[0].reject_all_mail = True
        code, _ = tutanota_mail.mx_hosts[0].accept_message(
            "a@b.c", "x@cust-tuta.com", "hello", over_tls=True)
        assert code == 550


class TestFaultInjection:
    def test_record_faults_change_txt(self, world, simple_domain):
        apply_fault(world, simple_domain, Fault.RECORD_BAD_VERSION)
        records = simple_domain.zone.lookup(
            DnsName.parse("_mta-sts.example.com"), RRType.TXT)
        assert records[0].text.startswith("v=STS1")

    def test_duplicate_record_fault(self, world, simple_domain):
        apply_fault(world, simple_domain, Fault.RECORD_DUPLICATE)
        records = simple_domain.zone.lookup(
            DnsName.parse("_mta-sts.example.com"), RRType.TXT)
        assert len(records) == 2

    def test_outdated_policy_migrates_mx(self, world, fetcher,
                                         simple_domain):
        apply_fault(world, simple_domain, Fault.OUTDATED_POLICY)
        world.resolver.flush_cache()
        assert simple_domain.mx_record_hostnames() == ["mx.example-mail.net"]
        result = fetcher.fetch_policy("example.com")
        assert result.policy.mx_patterns == ("mail.example.com",)
        # The new MX resolves and works.
        probe = world.smtp_probe.probe_host("mx.example-mail.net")
        assert probe.cert_valid

    def test_typo_fault_is_small_edit(self, world, fetcher, simple_domain):
        from repro.dns.name import levenshtein
        apply_fault(world, simple_domain, Fault.MISMATCH_TYPO)
        world.resolver.flush_cache()
        result = fetcher.fetch_policy("example.com")
        pattern = result.policy.mx_patterns[0]
        assert 0 < levenshtein(pattern, "mail.example.com") <= 3

    def test_tld_mismatch_fault(self, world, fetcher, simple_domain):
        apply_fault(world, simple_domain, Fault.MISMATCH_TLD)
        world.resolver.flush_cache()
        result = fetcher.fetch_policy("example.com")
        assert result.policy.mx_patterns == ("mail.example.net",)

    def test_fault_on_provider_hosted_policy(self, world, fetcher):
        provider = table2_providers()[1]
        deployed = deploy_domain(world, DomainSpec(
            domain="provfault.com", policy_provider=provider))
        apply_fault(world, deployed, Fault.POLICY_TLS_NO_CERT)
        result = fetcher.fetch_policy("provfault.com")
        assert result.failed_stage is PolicyFetchStage.TLS
        # Other customers of the same provider are unaffected.
        deploy_domain(world, DomainSpec(domain="healthy.com",
                                        policy_provider=provider))
        assert fetcher.fetch_policy("healthy.com").fully_valid
