"""Resource record types.

Only the record types the paper's scanner touches are modelled:
A/AAAA (policy-host and MX addresses), MX, NS (management-entity
classification), TXT (``_mta-sts`` and ``_smtp._tls``), CNAME (policy
delegation), TLSA (the DANE baseline) and SOA (zone bookkeeping).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.dns.name import DnsName
from repro.netsim.ip import IpAddress


class RRType(enum.Enum):
    A = "A"
    AAAA = "AAAA"
    MX = "MX"
    NS = "NS"
    TXT = "TXT"
    CNAME = "CNAME"
    TLSA = "TLSA"
    SOA = "SOA"
    PTR = "PTR"


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    """Base record: every record has an owner name and a TTL."""

    name: DnsName
    ttl: int = 3600

    @property
    def rrtype(self) -> RRType:
        raise NotImplementedError

    def rdata_text(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class ARecord(ResourceRecord):
    address: IpAddress = field(default=IpAddress("0.0.0.0"))

    @property
    def rrtype(self) -> RRType:
        return RRType.A

    def rdata_text(self) -> str:
        return self.address.text


@dataclass(frozen=True, slots=True)
class AaaaRecord(ResourceRecord):
    address: IpAddress = field(default=IpAddress("::", 6))

    @property
    def rrtype(self) -> RRType:
        return RRType.AAAA

    def rdata_text(self) -> str:
        return self.address.text


@dataclass(frozen=True, slots=True)
class MxRecord(ResourceRecord):
    preference: int = 10
    exchange: DnsName = field(default=DnsName(("invalid",)))

    @property
    def rrtype(self) -> RRType:
        return RRType.MX

    def rdata_text(self) -> str:
        return f"{self.preference} {self.exchange.text}."


@dataclass(frozen=True, slots=True)
class NsRecord(ResourceRecord):
    nsdname: DnsName = field(default=DnsName(("invalid",)))

    @property
    def rrtype(self) -> RRType:
        return RRType.NS

    def rdata_text(self) -> str:
        return f"{self.nsdname.text}."


@dataclass(frozen=True, slots=True)
class TxtRecord(ResourceRecord):
    text: str = ""

    @property
    def rrtype(self) -> RRType:
        return RRType.TXT

    def rdata_text(self) -> str:
        return f'"{self.text}"'


@dataclass(frozen=True, slots=True)
class CnameRecord(ResourceRecord):
    target: DnsName = field(default=DnsName(("invalid",)))

    @property
    def rrtype(self) -> RRType:
        return RRType.CNAME

    def rdata_text(self) -> str:
        return f"{self.target.text}."


@dataclass(frozen=True, slots=True)
class TlsaRecord(ResourceRecord):
    """A DANE TLSA record (RFC 6698).

    *association* is the certificate or key fingerprint the record
    pins; in the simulation fingerprints are the opaque strings
    produced by :mod:`repro.pki.keys`.
    """

    usage: int = 3       # DANE-EE by default, the common SMTP deployment
    selector: int = 1    # SPKI
    matching_type: int = 1  # SHA-256
    association: str = ""

    @property
    def rrtype(self) -> RRType:
        return RRType.TLSA

    def rdata_text(self) -> str:
        return (f"{self.usage} {self.selector} {self.matching_type} "
                f"{self.association}")


@dataclass(frozen=True, slots=True)
class PtrRecord(ResourceRecord):
    """Reverse-mapping record under ``in-addr.arpa``; the basis of the
    forward-confirmed reverse DNS (FCrDNS) identity the paper's
    instrumented SMTP client presents (§4.1)."""

    ptrdname: DnsName = field(default=DnsName(("invalid",)))

    @property
    def rrtype(self) -> RRType:
        return RRType.PTR

    def rdata_text(self) -> str:
        return f"{self.ptrdname.text}."


@dataclass(frozen=True, slots=True)
class SoaRecord(ResourceRecord):
    mname: DnsName = field(default=DnsName(("ns1", "invalid")))
    rname: str = "hostmaster.invalid"
    serial: int = 1

    @property
    def rrtype(self) -> RRType:
        return RRType.SOA

    def rdata_text(self) -> str:
        return (f"{self.mname.text}. {self.rname}. {self.serial} "
                f"7200 3600 1209600 3600")
