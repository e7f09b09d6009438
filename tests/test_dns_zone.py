"""Unit tests for zones, records, and the master-file parser."""

import pytest

from repro.dns.name import DnsName
from repro.dns.records import (
    ARecord, CnameRecord, MxRecord, RRType, TxtRecord,
)
from repro.dns.zone import Zone, parse_master_file, serialize_zone
from repro.netsim.ip import IpAddress


def n(text: str) -> DnsName:
    return DnsName.parse(text)


class TestZone:
    def test_add_and_lookup(self):
        zone = Zone(apex=n("example.com"))
        record = ARecord(n("example.com"), 3600, IpAddress.v4(10, 0, 0, 1))
        zone.add(record)
        assert zone.lookup(n("example.com"), RRType.A) == [record]

    def test_out_of_zone_rejected(self):
        zone = Zone(apex=n("example.com"))
        with pytest.raises(ValueError):
            zone.add(ARecord(n("other.org"), 3600, IpAddress.v4(10, 0, 0, 1)))

    def test_cname_conflicts_with_data(self):
        zone = Zone(apex=n("example.com"))
        zone.add(ARecord(n("www.example.com"), 3600, IpAddress.v4(10, 0, 0, 1)))
        with pytest.raises(ValueError):
            zone.add(CnameRecord(n("www.example.com"), 3600, n("example.com")))

    def test_data_conflicts_with_cname(self):
        zone = Zone(apex=n("example.com"))
        zone.add(CnameRecord(n("www.example.com"), 3600, n("example.com")))
        with pytest.raises(ValueError):
            zone.add(ARecord(n("www.example.com"), 3600,
                             IpAddress.v4(10, 0, 0, 1)))

    def test_duplicate_cname_rejected(self):
        zone = Zone(apex=n("example.com"))
        zone.add(CnameRecord(n("www.example.com"), 3600, n("a.example.com")))
        with pytest.raises(ValueError):
            zone.add(CnameRecord(n("www.example.com"), 3600,
                                 n("b.example.com")))

    def test_replace_swaps_rrset(self):
        zone = Zone(apex=n("example.com"))
        zone.add(TxtRecord(n("_mta-sts.example.com"), 300, "v=STSv1; id=1;"))
        zone.replace(TxtRecord(n("_mta-sts.example.com"), 300,
                               "v=STSv1; id=2;"))
        records = zone.lookup(n("_mta-sts.example.com"), RRType.TXT)
        assert len(records) == 1
        assert records[0].text.endswith("id=2;")

    def test_remove_returns_count(self):
        zone = Zone(apex=n("example.com"))
        zone.add(MxRecord(n("example.com"), 3600, 10, n("mx1.example.com")))
        zone.add(MxRecord(n("example.com"), 3600, 20, n("mx2.example.com")))
        assert zone.remove(n("example.com"), RRType.MX) == 2
        assert zone.lookup(n("example.com"), RRType.MX) == []

    def test_name_exists_covers_empty_non_terminals(self):
        zone = Zone(apex=n("example.com"))
        zone.add(ARecord(n("a.b.example.com"), 3600, IpAddress.v4(10, 0, 0, 1)))
        assert zone.name_exists(n("b.example.com"))
        assert not zone.name_exists(n("c.example.com"))

    def test_removing_the_only_record_below_an_empty_non_terminal(self):
        zone = Zone(apex=n("example.com"))
        zone.add(ARecord(n("a.b.example.com"), 3600, IpAddress.v4(10, 0, 0, 1)))
        assert zone.remove(n("a.b.example.com"), RRType.A) == 1
        assert not zone.name_exists(n("b.example.com"))
        assert not zone.name_exists(n("a.b.example.com"))
        # The removed data no longer blocks a CNAME at its owner.
        zone.add(CnameRecord(n("a.b.example.com"), 3600, n("example.com")))
        assert zone.name_exists(n("b.example.com"))

    def test_replace_keeps_name_counts_exact(self):
        zone = Zone(apex=n("example.com"))
        zone.add(TxtRecord(n("_mta-sts.example.com"), 300, "v=STSv1; id=1;"))
        zone.add(TxtRecord(n("_mta-sts.example.com"), 300, "v=STSv1; id=2;"))
        zone.replace(TxtRecord(n("_mta-sts.example.com"), 300,
                               "v=STSv1; id=3;"))
        assert zone.remove(n("_mta-sts.example.com"), RRType.TXT) == 1
        assert not zone.name_exists(n("_mta-sts.example.com"))
        assert not zone.name_exists(n("example.com"))


MASTER = """\
$ORIGIN example.com.
$TTL 3600
@       IN SOA ns1.example.com. hostmaster.example.com. 42
@       IN NS ns1.example.com.
@       IN NS ns2.example.com.
@       300 IN MX 10 mail
mail    IN A 10.1.2.3
_mta-sts IN TXT "v=STSv1; id=20240101;"  ; the MTA-STS record
mta-sts IN CNAME mta-sts.provider.net.
_25._tcp.mail IN TLSA 3 1 1 abcdef0123456789
"""


class TestMasterFile:
    def test_parse_counts(self):
        zone = parse_master_file(MASTER)
        assert zone.apex.text == "example.com"
        assert zone.record_count() == 8

    def test_relative_and_absolute_names(self):
        zone = parse_master_file(MASTER)
        mx = zone.lookup(n("example.com"), RRType.MX)[0]
        assert mx.exchange.text == "mail.example.com"
        assert mx.ttl == 300
        a = zone.lookup(n("mail.example.com"), RRType.A)[0]
        assert a.address.text == "10.1.2.3"

    def test_quoted_txt_with_comment(self):
        zone = parse_master_file(MASTER)
        txt = zone.lookup(n("_mta-sts.example.com"), RRType.TXT)[0]
        assert txt.text == "v=STSv1; id=20240101;"

    def test_cross_zone_cname_target(self):
        zone = parse_master_file(MASTER)
        cname = zone.lookup(n("mta-sts.example.com"), RRType.CNAME)[0]
        assert cname.target.text == "mta-sts.provider.net"

    def test_tlsa_fields(self):
        zone = parse_master_file(MASTER)
        tlsa = zone.lookup(n("_25._tcp.mail.example.com"), RRType.TLSA)[0]
        assert (tlsa.usage, tlsa.selector, tlsa.matching_type) == (3, 1, 1)
        assert tlsa.association == "abcdef0123456789"

    def test_origin_argument(self):
        zone = parse_master_file("@ IN A 10.0.0.1\n", origin="test.org")
        assert zone.lookup(n("test.org"), RRType.A)

    def test_missing_origin_fails(self):
        with pytest.raises(ValueError):
            parse_master_file("@ IN A 10.0.0.1\n")

    def test_empty_file_fails(self):
        with pytest.raises(ValueError):
            parse_master_file("; only a comment\n", origin="x.com")

    def test_round_trip(self):
        zone = parse_master_file(MASTER)
        text = serialize_zone(zone)
        reparsed = parse_master_file(text)
        assert reparsed.record_count() == zone.record_count()
        assert {r.rdata_text() for r in reparsed.all_records()} == \
            {r.rdata_text() for r in zone.all_records()}

    def test_unsupported_type_fails(self):
        with pytest.raises(ValueError):
            parse_master_file("@ IN SRV 0 0 0 target\n", origin="x.com")
