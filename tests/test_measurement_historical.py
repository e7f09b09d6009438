"""Tests for historical MX matching (Figure 9) and disclosure (§4.7)."""

import pytest

from repro.ecosystem.deployment import DomainSpec, deploy_domain
from repro.ecosystem.misconfig import Fault, apply_fault
from repro.errors import MismatchClass
from repro.measurement.historical import (
    historical_series, match_against_history,
)
from repro.measurement.inconsistency import classify_snapshot
from repro.measurement.notify import DisclosureCampaign
from repro.measurement.scanner import Scanner
from repro.measurement.snapshots import SnapshotStore


class TestHistoricalMatching:
    def test_migrated_domain_matches_history(self, world, simple_domain):
        scanner = Scanner(world)
        store = SnapshotStore()
        store.add(scanner.scan_domain("example.com", 0))
        # Month 1: the MX migrates; the policy keeps the old pattern.
        apply_fault(world, simple_domain, Fault.OUTDATED_POLICY)
        world.resolver.flush_cache()
        store.add(scanner.scan_domain("example.com", 1))

        current = store.get(1, "example.com")
        assert (classify_snapshot(current).mismatch_class
                is MismatchClass.DOMAIN)
        match = match_against_history(store, current)
        assert match.matched
        assert match.matched_month == 0
        assert match.historical_mx == ("mail.example.com",)

    def test_never_matching_domain(self, world, simple_domain):
        scanner = Scanner(world)
        store = SnapshotStore()
        apply_fault(world, simple_domain, Fault.MISMATCH_DOMAIN)
        world.resolver.flush_cache()
        store.add(scanner.scan_domain("example.com", 0))
        store.add(scanner.scan_domain("example.com", 1))
        current = store.get(1, "example.com")
        assert not match_against_history(store, current).matched

    def test_rate_combines_both(self, world):
        migrated = deploy_domain(world, DomainSpec(domain="moved.com"))
        never = deploy_domain(world, DomainSpec(domain="never.com"))
        apply_fault(world, never, Fault.MISMATCH_DOMAIN)
        scanner = Scanner(world)
        store = SnapshotStore()
        for d in ("moved.com", "never.com"):
            store.add(scanner.scan_domain(d, 0))
        apply_fault(world, migrated, Fault.OUTDATED_POLICY)
        world.resolver.flush_cache()
        for d in ("moved.com", "never.com"):
            store.add(scanner.scan_domain(d, 1))
        series = historical_series(store)
        assert [p["month_index"] for p in series] == [0, 1]
        rate = series[1]
        assert rate["candidates"] == 2
        assert rate["matched"] == 1
        assert rate["percent"] == 50.0

    def test_3ld_mismatch_not_a_candidate(self, world, simple_domain):
        apply_fault(world, simple_domain, Fault.MISMATCH_3LD)
        world.resolver.flush_cache()
        store = SnapshotStore()
        store.add(Scanner(world).scan_domain("example.com", 0))
        assert historical_series(store)[0]["candidates"] == 0


class TestDisclosure:
    def test_campaign_delivers_and_bounces(self, world):
        healthy = deploy_domain(world, DomainSpec(domain="fixable.com"))
        apply_fault(world, healthy, Fault.POLICY_HTTP_404)
        dead = deploy_domain(world, DomainSpec(domain="dead.com"))
        # dead.com's MX is unreachable entirely: bounce.
        from repro.netsim.network import TcpBehavior
        from repro.smtp.server import SMTP_PORT
        world.network.set_behavior(dead.mx_hosts[0].ip, SMTP_PORT,
                                   TcpBehavior.TIMEOUT)
        scanner = Scanner(world)
        snaps = [scanner.scan_domain("fixable.com", 0),
                 scanner.scan_domain("dead.com", 0)]
        campaign = DisclosureCampaign(world, extra_bounce_rate=0.0)
        report = campaign.run(snaps)
        assert report.notified == 2
        assert report.bounced == 1
        assert report.delivered == 1

    def test_remediation_rate_plausible(self, world):
        domains = []
        for i in range(120):
            deployed = deploy_domain(world, DomainSpec(domain=f"m{i}.com"))
            apply_fault(world, deployed, Fault.POLICY_HTTP_404)
            domains.append(f"m{i}.com")
        scanner = Scanner(world)
        snaps = [scanner.scan_domain(d, 0) for d in domains]
        report = DisclosureCampaign(world, seed=1).run(snaps)
        assert report.notified == 120
        # ~12% mailbox-level bounces, ~10% overall remediation.
        assert 0 < report.bounced < 40
        assert 0 < report.remediated < 30
