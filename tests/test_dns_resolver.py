"""Unit tests for the authoritative server and the caching resolver."""

import pytest

from repro.clock import Clock, Duration, Instant
from repro.dns.name import DnsName
from repro.dns.records import ARecord, CnameRecord, RRType, TxtRecord
from repro.dns.resolver import Resolver
from repro.dns.server import AuthoritativeServer, ServerFault
from repro.dns.zone import Zone
from repro.errors import (
    CnameLoop, DnsTimeout, NoData, NxDomain, ServFail,
)
from repro.netsim.ip import IpAddress, IpPool
from repro.netsim.network import Network


def n(text):
    return DnsName.parse(text)


@pytest.fixture
def setup():
    network = Network()
    clock = Clock(Instant.parse("2024-01-01"))
    pool = IpPool()
    server = AuthoritativeServer("ns1", pool.allocate(), network)
    zone = Zone(apex=n("example.com"))
    zone.add(ARecord(n("example.com"), 3600, IpAddress.v4(10, 9, 9, 9)))
    zone.add(TxtRecord(n("_mta-sts.example.com"), 300, "v=STSv1; id=1;"))
    zone.add(CnameRecord(n("www.example.com"), 3600, n("example.com")))
    server.add_zone(zone)
    resolver = Resolver(network, clock)
    resolver.delegate("example.com", [server.ip])
    return network, clock, server, zone, resolver


class TestAuthoritative:
    def test_positive_answer(self, setup):
        _, _, server, _, _ = setup
        result = server.query(n("example.com"), RRType.A)
        assert result.rcode == "NOERROR"
        assert len(result.records) == 1

    def test_nxdomain(self, setup):
        _, _, server, _, _ = setup
        assert server.query(n("nope.example.com"), RRType.A).rcode == \
            "NXDOMAIN"

    def test_nodata(self, setup):
        _, _, server, _, _ = setup
        result = server.query(n("example.com"), RRType.MX)
        assert result.rcode == "NOERROR"
        assert result.records == []

    def test_cname_returned_for_other_types(self, setup):
        _, _, server, _, _ = setup
        result = server.query(n("www.example.com"), RRType.A)
        assert result.cname is not None
        assert result.cname.target.text == "example.com"

    def test_servfail_fault(self, setup):
        _, _, server, _, _ = setup
        server.fault = ServerFault.SERVFAIL
        with pytest.raises(ServFail):
            server.query(n("example.com"), RRType.A)

    def test_lame_delegation(self, setup):
        _, _, server, _, _ = setup
        server.fault = ServerFault.LAME
        with pytest.raises(ServFail):
            server.query(n("example.com"), RRType.A)

    def test_longest_zone_match(self, setup):
        _, _, server, _, _ = setup
        child = Zone(apex=n("sub.example.com"))
        child.add(ARecord(n("sub.example.com"), 60, IpAddress.v4(10, 8, 8, 8)))
        server.add_zone(child)
        result = server.query(n("sub.example.com"), RRType.A)
        assert result.records[0].address.text == "10.8.8.8"


class TestResolver:
    def test_resolve(self, setup):
        *_, resolver = setup
        answer = resolver.resolve("example.com", RRType.A)
        assert answer.records[0].address.text == "10.9.9.9"

    def test_cname_chase(self, setup):
        *_, resolver = setup
        answer = resolver.resolve("www.example.com", RRType.A)
        assert answer.canonical_name.text == "example.com"
        assert len(answer.cname_chain) == 1
        assert answer.records[0].address.text == "10.9.9.9"

    def test_nxdomain_raised(self, setup):
        *_, resolver = setup
        with pytest.raises(NxDomain):
            resolver.resolve("missing.example.com", RRType.A)

    def test_nodata_raised(self, setup):
        *_, resolver = setup
        with pytest.raises(NoData):
            resolver.resolve("example.com", RRType.MX)

    def test_no_delegation_times_out(self, setup):
        *_, resolver = setup
        with pytest.raises(DnsTimeout):
            resolver.resolve("unknown.org", RRType.A)

    def test_cname_loop_detected(self, setup):
        network, clock, server, zone, resolver = setup
        zone.add(CnameRecord(n("a.example.com"), 60, n("b.example.com")))
        zone.add(CnameRecord(n("b.example.com"), 60, n("a.example.com")))
        with pytest.raises(CnameLoop):
            resolver.resolve("a.example.com", RRType.A)

    def test_try_resolve_swallows_errors(self, setup):
        *_, resolver = setup
        assert resolver.try_resolve("missing.example.com", RRType.A) is None
        assert resolver.try_resolve("example.com", RRType.A) is not None

    def test_resolve_address_helper(self, setup):
        *_, resolver = setup
        addresses = resolver.resolve_address("example.com")
        assert [a.text for a in addresses] == ["10.9.9.9"]

    def test_resolve_address_failure(self, setup):
        *_, resolver = setup
        with pytest.raises(NxDomain):
            resolver.resolve_address("missing.example.com")


class TestResolverCache:
    def test_positive_cache_hit(self, setup):
        *_, resolver = setup
        resolver.resolve("example.com", RRType.A)
        before = resolver.query_count
        resolver.resolve("example.com", RRType.A)
        assert resolver.query_count == before
        assert resolver.cache_hits >= 1

    def test_cache_expires_with_ttl(self, setup):
        network, clock, server, zone, resolver = setup
        resolver.resolve("example.com", RRType.A)
        clock.advance(Duration(3601))
        before = resolver.query_count
        resolver.resolve("example.com", RRType.A)
        assert resolver.query_count > before

    def test_cache_serves_stale_free_updates_after_flush(self, setup):
        network, clock, server, zone, resolver = setup
        resolver.resolve("_mta-sts.example.com", RRType.TXT)
        zone.replace(TxtRecord(n("_mta-sts.example.com"), 300,
                               "v=STSv1; id=2;"))
        cached = resolver.resolve("_mta-sts.example.com", RRType.TXT)
        assert cached.records[0].text.endswith("id=1;")
        resolver.flush_cache()
        fresh = resolver.resolve("_mta-sts.example.com", RRType.TXT)
        assert fresh.records[0].text.endswith("id=2;")

    def test_negative_cache(self, setup):
        network, clock, server, zone, resolver = setup
        with pytest.raises(NxDomain):
            resolver.resolve("ghost.example.com", RRType.A)
        # Publish the name; the negative entry hides it until TTL.
        zone.add(ARecord(n("ghost.example.com"), 60, IpAddress.v4(10, 1, 1, 1)))
        with pytest.raises(NxDomain):
            resolver.resolve("ghost.example.com", RRType.A)
        clock.advance(Duration(301))
        assert resolver.resolve("ghost.example.com", RRType.A)

    def test_unreachable_server_then_timeout(self, setup):
        network, clock, server, zone, resolver = setup
        resolver.delegate("dead.org", [IpAddress.v4(10, 99, 99, 99)])
        with pytest.raises(DnsTimeout):
            resolver.resolve("dead.org", RRType.A)



class TestResolverKeys:
    def test_spellings_share_one_cache_entry(self, setup):
        *_, resolver = setup
        resolver.resolve("Example.COM.", RRType.A)
        resolver.resolve("example.com", RRType.A)
        resolver.resolve(n("example.com"), RRType.A)
        assert resolver.query_count == 1
        assert resolver.cache_hits == 2
        assert resolver.cache_stats()["entries"] == 1

    def test_nested_delegation_goes_to_the_longest_apex(self, setup):
        network, clock, server, zone, resolver = setup
        child_server = AuthoritativeServer(
            "ns2", IpAddress.v4(10, 53, 0, 2), network)
        child = Zone(apex=n("sub.example.com"))
        child.add(ARecord(n("host.sub.example.com"), 60,
                          IpAddress.v4(10, 7, 7, 7)))
        child_server.add_zone(child)
        resolver.delegate("sub.example.com", [child_server.ip])
        # The parent server would answer NXDOMAIN for this name.
        answer = resolver.resolve("host.sub.example.com", RRType.A)
        assert answer.records[0].address.text == "10.7.7.7"
        assert (child_server.query_count, server.query_count) == (1, 0)
        resolver.resolve("example.com", RRType.A)
        assert (child_server.query_count, server.query_count) == (1, 1)

    def test_mutating_an_answer_leaves_the_cache_alone(self, setup):
        *_, resolver = setup
        first = resolver.resolve("example.com", RRType.A)
        with pytest.raises(AttributeError):
            first.records.append(first.records[0])
        first.records = ()
        second = resolver.resolve("example.com", RRType.A)
        assert resolver.query_count == 1
        assert [r.address.text for r in second.records] == ["10.9.9.9"]


class TestNameIntern:
    """The resolver is its world's one name intern: a spelling parses
    once for the resolver's lifetime, cache flushes included."""

    def test_repeated_spelling_is_the_identical_object(self, setup):
        *_, resolver = setup
        first = resolver.name("Mail.Example.COM.")
        assert first == n("mail.example.com")
        assert resolver.name("Mail.Example.COM.") is first

    def test_names_outlive_flush_cache_while_answers_do_not(self, setup):
        *_, resolver = setup
        name = resolver.name("example.com")
        resolver.resolve("example.com", RRType.A)
        assert resolver.cache_stats()["entries"] == 1
        resolver.flush_cache()
        assert resolver.cache_stats()["entries"] == 0
        assert resolver.name("example.com") is name
        assert resolver.resolve("example.com", RRType.A).name is name
        assert resolver.query_count == 2

    def test_invalid_spelling_raises_and_is_not_interned(self, setup):
        *_, resolver = setup
        # İ casefolds to "i" plus a combining dot: not an LDH label.
        spelling = "_smtp._tls.İstanbul.example"
        for _ in range(2):
            with pytest.raises(ValueError):
                resolver.name(spelling)
        assert spelling not in resolver._names
