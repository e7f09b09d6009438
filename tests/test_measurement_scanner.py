"""Tests for the scanner, snapshot store, and entity classification."""

from repro.ecosystem.deployment import DomainSpec, deploy_domain
from repro.ecosystem.misconfig import Fault, apply_fault
from repro.ecosystem.providers import default_email_providers, table2_providers
from repro.errors import ManagingEntity
from repro.measurement.classify import EntityClassifier
from repro.measurement.scanner import Scanner
from repro.measurement.snapshots import SnapshotStore


class TestScanner:
    def test_healthy_snapshot(self, world, simple_domain):
        snap = Scanner(world).scan_domain("example.com", 0)
        assert snap.sts_like
        assert snap.record_valid
        assert snap.policy_fetch_stage is None
        assert snap.policy_mode == "testing"
        assert snap.mx_patterns == ["mail.example.com"]
        assert snap.mx_hostnames == ["mail.example.com"]
        assert snap.mx_observations[0].cert_valid
        assert snap.consistent
        assert not snap.tlsrpt_present

    def test_non_sts_snapshot(self, world):
        deploy_domain(world, DomainSpec(domain="plain.com",
                                        deploy_sts=False))
        snap = Scanner(world).scan_domain("plain.com", 0)
        assert not snap.sts_like
        assert snap.mx_hostnames      # MX still scanned

    def test_fault_surfaces_in_snapshot(self, world, simple_domain):
        apply_fault(world, simple_domain, Fault.POLICY_TLS_EXPIRED)
        snap = Scanner(world).scan_domain("example.com", 0)
        assert snap.policy_fetch_stage == "tls"
        assert snap.policy_tls_failure == "expired"

    def test_ns_and_cname_recorded(self, world):
        provider = table2_providers()[1]
        deploy_domain(world, DomainSpec(domain="deleg.com",
                                        policy_provider=provider))
        snap = Scanner(world).scan_domain("deleg.com", 0)
        assert snap.policy_host_cname == "deleg-com.mta-sts.dmarcinput.com"
        assert snap.ns_hostnames == ["ns1.deleg.com", "ns2.deleg.com"]

    def test_scan_all_fills_store(self, world, simple_domain):
        deploy_domain(world, DomainSpec(domain="second.com"))
        store = Scanner(world).scan_all(["example.com", "second.com"], 3)
        assert len(store) == 2
        assert store.months() == [3]
        assert store.get(3, "example.com") is not None


class TestSnapshotStore:
    def test_history_ordered(self, world, simple_domain):
        scanner = Scanner(world)
        store = SnapshotStore()
        for month in (0, 1, 2):
            store.add(scanner.scan_domain("example.com", month))
        history = [store.get(month, "example.com")
                   for month in store.months()]
        assert [s.month_index for s in history] == [0, 1, 2]


class TestEntityClassifier:
    def _scan_fleet(self, world, specs):
        for spec in specs:
            deploy_domain(world, spec)
        scanner = Scanner(world)
        snaps = [scanner.scan_domain(spec.domain, 0) for spec in specs]
        return snaps, EntityClassifier(snaps, third_party_min=10)

    def test_self_managed_all_around(self, world):
        specs = [DomainSpec(domain=f"self{i}.com") for i in range(3)]
        snaps, classifier = self._scan_fleet(world, specs)
        verdict = classifier.classify(snaps[0])
        assert verdict.mx is ManagingEntity.SELF_MANAGED
        assert verdict.policy is ManagingEntity.SELF_MANAGED
        assert verdict.dns is ManagingEntity.SELF_MANAGED

    def test_provider_customers_classified_third_party(self, world):
        google = default_email_providers()[0]
        provider = table2_providers()[1]
        specs = [DomainSpec(domain=f"cust{i}.com", email_provider=google,
                            policy_provider=provider)
                 for i in range(12)]
        snaps, classifier = self._scan_fleet(world, specs)
        verdict = classifier.classify(snaps[0])
        assert verdict.mx is ManagingEntity.THIRD_PARTY
        assert verdict.mx_provider_sld == "google.com"
        assert verdict.policy is ManagingEntity.THIRD_PARTY
        assert verdict.policy_provider_sld == "dmarcinput.com"

    def test_cname_alone_implies_third_party(self, world):
        # Even a tiny provider is third-party when reached via CNAME.
        provider = table2_providers()[7]    # OnDMARC, single customer
        specs = [DomainSpec(domain="lonely.com", policy_provider=provider)]
        snaps, classifier = self._scan_fleet(world, specs)
        assert classifier.classify(snaps[0]).policy is \
            ManagingEntity.THIRD_PARTY

    def test_same_provider_detection_tutanota_pattern(self, world):
        tutanota_policy = table2_providers()[0]
        tutanota_mail = next(p for p in default_email_providers()
                             if p.name == "Tutanota")
        specs = [DomainSpec(domain=f"tuta{i}.com",
                            email_provider=tutanota_mail,
                            policy_provider=tutanota_policy)
                 for i in range(12)]
        snaps, classifier = self._scan_fleet(world, specs)
        verdict = classifier.classify(snaps[0])
        assert verdict.both_outsourced
        assert verdict.same_provider   # 'tutanota' label on both sides

    def test_different_providers_detected(self, world):
        google = default_email_providers()[0]
        provider = table2_providers()[1]
        specs = [DomainSpec(domain=f"mix{i}.com", email_provider=google,
                            policy_provider=provider)
                 for i in range(12)]
        snaps, classifier = self._scan_fleet(world, specs)
        verdict = classifier.classify(snaps[0])
        assert verdict.both_outsourced
        assert not verdict.same_provider

    def test_popular_but_single_admin_group_is_self(self, world):
        # The mxascen pattern: many domains, one MX, one policy IP,
        # A-record (not CNAME) policy hosting.
        from repro.ecosystem.providers import (
            OptOutBehavior, PolicyHostProvider,
        )
        mxascen = next(p for p in default_email_providers()
                       if p.name == "MxAscen")
        farm = PolicyHostProvider(
            name="policyfarm", sld="policyfarm.mxascen.com",
            cname_pattern="{dash}.policyfarm.mxascen.com",
            opt_out=OptOutBehavior.NXDOMAIN, delegate_via_cname=False)
        specs = [DomainSpec(domain=f"asc{i}.com", email_provider=mxascen,
                            policy_provider=farm)
                 for i in range(12)]
        snaps, classifier = self._scan_fleet(world, specs)
        verdict = classifier.classify(snaps[0])
        assert verdict.mx is ManagingEntity.SELF_MANAGED
        assert verdict.policy is ManagingEntity.SELF_MANAGED

    def test_mid_size_host_unclassified(self, world):
        from repro.ecosystem.providers import (
            OptOutBehavior, PolicyHostProvider,
        )
        boutique = PolicyHostProvider(
            name="boutique", sld="boutique.host",
            cname_pattern="{dash}.boutique.host",
            opt_out=OptOutBehavior.NXDOMAIN, delegate_via_cname=False)
        # 7 domains with differing MX sets on one policy IP: above the
        # self threshold (5), below the third-party one (10).
        specs = [DomainSpec(domain=f"bq{i}.com", policy_provider=boutique)
                 for i in range(7)]
        snaps, classifier = self._scan_fleet(world, specs)
        assert classifier.classify(snaps[0]).policy is \
            ManagingEntity.UNCLASSIFIED
