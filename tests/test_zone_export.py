"""Tests for the world's zones as master-file text: each served zone
survives a round trip through :func:`~repro.dns.zone.serialize_zone`
and the parser, and the offline assessment of that text sees the
DNS-side faults the world injected."""

from repro.dns.name import DnsName
from repro.dns.records import RRType
from repro.dns.zone import parse_master_file, serialize_zone
from repro.ecosystem.deployment import DomainSpec, deploy_domain
from repro.ecosystem.misconfig import Fault, apply_fault
from repro.measurement.offline import assess_zone


def zone_text(world, apex: str) -> str:
    """The master-file text of the zone *world* serves for *apex*."""
    return serialize_zone(
        world.server_for(apex).zone_for(DnsName.parse(apex)))


def error_components(world, domain: str) -> set:
    return {f.component
            for f in assess_zone(zone_text(world, domain), domain).errors}


class TestExportRoundTrip:
    def test_deployed_domain_round_trips(self, world, simple_domain):
        zone = parse_master_file(zone_text(world, "example.com"))
        apex = DnsName.parse("example.com")
        assert zone.lookup(apex, RRType.MX)
        assert zone.lookup(DnsName.parse("_mta-sts.example.com"),
                           RRType.TXT)
        original = world.server_for("example.com").zone_for(apex)
        assert zone.record_count() == original.record_count()

    def test_reverse_zone_round_trips(self, world):
        zone = parse_master_file(zone_text(world, "in-addr.arpa"))
        assert any(r.rrtype is RRType.PTR for r in zone.all_records())

    def test_rdata_preserved_exactly(self, world, simple_domain):
        zone = parse_master_file(zone_text(world, "example.com"))
        original = world.server_for("example.com").zone_for(
            DnsName.parse("example.com"))
        assert ({r.rdata_text() for r in zone.all_records()}
                == {r.rdata_text() for r in original.all_records()})


class TestCorpusAudit:
    def test_healthy_corpus_clean(self, world, simple_domain):
        assert error_components(world, "example.com") == set()

    def test_faults_visible_in_corpus(self, world, simple_domain):
        broken = deploy_domain(world, DomainSpec(domain="broken.com"))
        apply_fault(world, broken, Fault.RECORD_INVALID_ID)
        orphan = deploy_domain(world, DomainSpec(domain="orphan.com"))
        apply_fault(world, orphan, Fault.POLICY_DNS_UNRESOLVABLE)
        assert "record" in error_components(world, "broken.com")
        assert "policy-host" not in error_components(world, "broken.com")
        assert "policy-host" in error_components(world, "orphan.com")
        assert "record" not in error_components(world, "orphan.com")
