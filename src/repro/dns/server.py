"""Authoritative DNS servers.

An :class:`AuthoritativeServer` serves one or more zones and registers
itself on the simulated network (UDP/TCP port 53 collapses to one
endpoint here).  Fault injection covers the failure modes the resolver
— and therefore the scanner — must classify: SERVFAIL, timeouts, and
lame delegations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.dns.name import DnsName, longest_suffix_match
from repro.dns.records import CnameRecord, ResourceRecord, RRType
from repro.dns.zone import Zone
from repro.errors import ServFail
from repro.netsim.ip import IpAddress
from repro.netsim.network import Network

DNS_PORT = 53


class ServerFault(enum.Enum):
    NONE = "none"
    SERVFAIL = "servfail"   # answers SERVFAIL to everything
    LAME = "lame"           # claims no knowledge of its zones


@dataclass(slots=True)
class QueryResult:
    """An authoritative response."""

    rcode: str                      # NOERROR | NXDOMAIN | SERVFAIL
    records: Sequence[ResourceRecord]   # a positive answer's zone RRset
    cname: CnameRecord | None = None


class AuthoritativeServer:
    """Serves zones over the simulated network."""

    __slots__ = ("name", "ip", "_zones", "fault", "query_count")

    def __init__(self, name: str, ip: IpAddress, network: Network):
        self.name = name
        self.ip = ip
        #: apex text -> zone
        self._zones: Dict[str, Zone] = {}
        self.fault = ServerFault.NONE
        self.query_count = 0
        network.register(ip, DNS_PORT, self, description=f"dns:{name}")

    def add_zone(self, zone: Zone) -> None:
        self._zones[zone.apex.text] = zone

    def zone_for(self, name: DnsName) -> Zone | None:
        """Longest-suffix zone match."""
        return longest_suffix_match(self._zones, name)

    def query(self, name: DnsName, rrtype: RRType) -> QueryResult:
        """Answer a query for *name*/*rrtype*.

        Raises :class:`ServFail` under fault injection; returns a
        :class:`QueryResult` otherwise.  CNAMEs found at the query name
        are returned for the resolver to chase (authoritative servers
        here do not follow cross-zone CNAMEs themselves).
        """
        self.query_count += 1
        if self.fault is ServerFault.SERVFAIL:
            raise ServFail(f"{self.name}: injected SERVFAIL")
        zone = self.zone_for(name)
        if zone is None or self.fault is ServerFault.LAME:
            raise ServFail(f"{self.name}: not authoritative for {name}")

        cname = zone.cname_at(name)
        if cname is not None and rrtype is not RRType.CNAME:
            return QueryResult("NOERROR", [], cname=cname)

        records = zone.rrset(name, rrtype)
        if records:
            return QueryResult("NOERROR", records)
        if zone.name_exists(name):
            return QueryResult("NOERROR", [])     # NODATA
        return QueryResult("NXDOMAIN", [])
