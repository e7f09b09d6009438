"""Zones and an RFC-1035-style master-file parser.

A :class:`Zone` owns every record at or under its apex.  The master
file parser accepts the common subset of zone-file syntax (``$ORIGIN``,
``$TTL``, relative and absolute names, ``@``, comments) so that the
scanner can also ingest real zone files — the paper's raw input — in
addition to the synthetic registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.dns.name import DnsName
from repro.dns.records import (
    AaaaRecord, ARecord, CnameRecord, MxRecord, NsRecord, PtrRecord,
    ResourceRecord, RRType, SoaRecord, TlsaRecord, TxtRecord,
)
from repro.netsim.ip import IpAddress

_CNAME = RRType.CNAME.value


@dataclass(slots=True)
class Zone:
    """A DNS zone: an apex name and its records, indexed by (name, type).

    Both tables are keyed by plain strings: name text, and the
    RRType's value (read as ``_value_``, which skips the Python-level
    ``Enum.value`` property on the lookup path).  An RRset is an
    immutable tuple, so the server answers with it uncopied and the
    resolver caches that same tuple.  Besides the RRsets, the zone
    counts the records at or below every name (each suffix of each
    owner), so :meth:`name_exists` takes O(labels) and the
    CNAME-conflict check in :meth:`add` one probe per record type,
    rather than a scan of the zone.
    """

    apex: DnsName
    default_ttl: int = 3600
    #: (owner text, RRType value) -> RRset; empty RRsets are not kept
    _records: Dict[Tuple[str, str], Tuple[ResourceRecord, ...]] = field(
        default_factory=dict, init=False)
    #: name text -> records at or below that name
    _under: Dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def add(self, record: ResourceRecord) -> None:
        name = record.name
        if not name.is_subdomain_of(self.apex):
            raise ValueError(
                f"{name} is outside zone {self.apex}")
        text = name.text
        if (text, _CNAME) in self._records:
            if record.rrtype is RRType.CNAME:
                raise ValueError(f"duplicate CNAME at {name}")
            raise ValueError(f"data at {name} conflicts with CNAME")
        if record.rrtype is RRType.CNAME and any(
                (text, rrtype._value_) in self._records for rrtype in RRType):
            raise ValueError(f"CNAME at {name} conflicts with data")
        key = (text, record.rrtype._value_)
        self._records[key] = self._records.get(key, ()) + (record,)
        self._count(text, 1)

    def remove(self, name: DnsName, rrtype: RRType) -> int:
        """Delete the whole RRset; returns how many records were removed."""
        removed = self._records.pop((name.text, rrtype._value_), ())
        if removed:
            self._count(name.text, -len(removed))
        return len(removed)

    def replace(self, record: ResourceRecord) -> None:
        """Replace the RRset of this name/type with the single *record*."""
        self.remove(record.name, record.rrtype)
        self.add(record)

    def _count(self, text: str, delta: int) -> None:
        """Add *delta* records at *text* and at each of its ancestors."""
        under = self._under
        while True:
            count = under.get(text, 0) + delta
            if count:
                under[text] = count
            else:
                del under[text]
            dot = text.find(".")
            if dot < 0:
                return
            text = text[dot + 1:]

    def lookup(self, name: DnsName, rrtype: RRType) -> List[ResourceRecord]:
        return list(self.rrset(name, rrtype))

    def rrset(self, name: DnsName, rrtype: RRType
              ) -> Tuple[ResourceRecord, ...]:
        """The RRset itself: immutable, so it is handed out uncopied."""
        return self._records.get((name.text, rrtype._value_), ())

    def cname_at(self, name: DnsName) -> CnameRecord | None:
        records = self._records.get((name.text, _CNAME))
        return records[0] if records else None  # type: ignore[return-value]

    def name_exists(self, name: DnsName) -> bool:
        """True if any record exists at *name* or underneath it (ENT)."""
        return name.text in self._under

    def names(self) -> List[DnsName]:
        return sorted({records[0].name for records in self._records.values()})

    def all_records(self) -> List[ResourceRecord]:
        out: List[ResourceRecord] = []
        for records in self._records.values():
            out.extend(records)
        return out

    def record_count(self) -> int:
        return sum(len(r) for r in self._records.values())


# ---------------------------------------------------------------------------
# Master-file parsing
# ---------------------------------------------------------------------------

def _strip_comment(line: str) -> str:
    """Remove a ``;`` comment, honouring quoted strings."""
    out = []
    in_quote = False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
        if ch == ";" and not in_quote:
            break
        out.append(ch)
    return "".join(out)


def _tokenize(line: str) -> List[str]:
    """Split on whitespace, keeping quoted strings as single tokens."""
    tokens: List[str] = []
    current: List[str] = []
    in_quote = False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
            continue
        if ch.isspace() and not in_quote:
            if current:
                tokens.append("".join(current))
                current = []
        else:
            current.append(ch)
    if in_quote:
        raise ValueError(f"unterminated quote in {line!r}")
    if current:
        tokens.append("".join(current))
    return tokens


def _resolve_name(token: str, origin: DnsName) -> DnsName:
    if token == "@":
        return origin
    if token.endswith("."):
        return DnsName.parse(token)
    return DnsName.parse(f"{token}.{origin.text}")


def parse_master_file(text: str, origin: str | DnsName | None = None) -> Zone:
    """Parse zone-file *text* into a :class:`Zone`.

    Either the text carries a ``$ORIGIN`` directive or *origin* must be
    supplied.  Class fields (``IN``) are accepted and ignored.
    """
    current_origin = (DnsName.parse(origin) if isinstance(origin, str)
                      else origin)
    default_ttl = 3600
    zone: Zone | None = None
    pending: List[ResourceRecord] = []
    last_name: DnsName | None = None

    for raw_line in text.splitlines():
        line = _strip_comment(raw_line)
        if not line.strip():
            continue
        starts_with_space = line[0].isspace()
        tokens = _tokenize(line)
        if not tokens:
            continue

        if tokens[0] == "$ORIGIN":
            current_origin = DnsName.parse(tokens[1])
            continue
        if tokens[0] == "$TTL":
            default_ttl = int(tokens[1])
            continue
        if current_origin is None:
            raise ValueError("no $ORIGIN and no origin argument")

        if starts_with_space:
            if last_name is None:
                raise ValueError(f"continuation line before any owner: {raw_line!r}")
            name = last_name
        else:
            name = _resolve_name(tokens[0], current_origin)
            tokens = tokens[1:]
        last_name = name

        ttl = default_ttl
        while tokens and (tokens[0].isdigit() or tokens[0].upper() == "IN"):
            if tokens[0].isdigit():
                ttl = int(tokens[0])
            tokens = tokens[1:]
        if not tokens:
            raise ValueError(f"no record type in {raw_line!r}")
        rrtype_text, *rdata = tokens
        record = _build_record(name, ttl, rrtype_text.upper(), rdata,
                               current_origin)
        pending.append(record)
        if zone is None:
            zone = Zone(apex=current_origin, default_ttl=default_ttl)

    if zone is None:
        raise ValueError("zone file contains no records")
    for record in pending:
        zone.add(record)
    return zone


def _build_record(name: DnsName, ttl: int, rrtype: str,
                  rdata: List[str], origin: DnsName) -> ResourceRecord:
    if rrtype == "A":
        return ARecord(name, ttl, IpAddress.parse(rdata[0]))
    if rrtype == "AAAA":
        return AaaaRecord(name, ttl, IpAddress(rdata[0], 6))
    if rrtype == "MX":
        return MxRecord(name, ttl, int(rdata[0]),
                        _resolve_name(rdata[1], origin))
    if rrtype == "NS":
        return NsRecord(name, ttl, _resolve_name(rdata[0], origin))
    if rrtype == "CNAME":
        return CnameRecord(name, ttl, _resolve_name(rdata[0], origin))
    if rrtype == "TXT":
        return TxtRecord(name, ttl, " ".join(rdata))
    if rrtype == "TLSA":
        return TlsaRecord(name, ttl, int(rdata[0]), int(rdata[1]),
                          int(rdata[2]), rdata[3])
    if rrtype == "PTR":
        return PtrRecord(name, ttl, _resolve_name(rdata[0], origin))
    if rrtype == "SOA":
        return SoaRecord(name, ttl, _resolve_name(rdata[0], origin),
                         rdata[1].rstrip("."), int(rdata[2]) if len(rdata) > 2 else 1)
    raise ValueError(f"unsupported record type {rrtype!r}")


def serialize_zone(zone: Zone) -> str:
    """Render a zone back to master-file text (round-trips with the parser)."""
    lines = [f"$ORIGIN {zone.apex.text}.", f"$TTL {zone.default_ttl}"]
    for name in zone.names():
        for rrtype in RRType:
            for record in zone.lookup(name, rrtype):
                rdata = record.rdata_text()
                lines.append(
                    f"{record.name.text}. {record.ttl} IN "
                    f"{record.rrtype.value} {rdata}")
    return "\n".join(lines) + "\n"
