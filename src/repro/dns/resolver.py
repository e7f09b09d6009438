"""A caching recursive resolver.

The resolver holds a delegation registry (zone apex → authoritative
server addresses) standing in for the root/TLD referral chain, chases
CNAMEs across zones with loop protection, and caches both positive and
negative answers by TTL against the simulated clock.  All scanner
lookups in :mod:`repro.measurement.scanner` go through this class, so
its error surface (NXDOMAIN, NODATA, SERVFAIL, timeout) is exactly the
set of DNS outcomes the paper's Figure 5 "DNS" bar aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro import trace
from repro.clock import Clock, Duration, Instant
from repro.dns.name import DnsName
from repro.dns.records import CnameRecord, ResourceRecord, RRType
from repro.dns.server import DNS_PORT, AuthoritativeServer
from repro.errors import (
    CnameLoop, DnsError, DnsTimeout, NetworkError, NoData, NxDomain,
    ServFail,
)
from repro.netsim.ip import IpAddress
from repro.netsim.network import Network
from repro.netsim.retry import (
    DEFAULT_RETRY_POLICY, RetryPolicy, connect_with_retries,
)

MAX_CNAME_DEPTH = 8


@dataclass
class Answer:
    """A successful resolution."""

    name: DnsName                      # the name originally queried
    rrtype: RRType
    records: List[ResourceRecord]      # records at the end of any CNAME chain
    cname_chain: List[CnameRecord] = field(default_factory=list)
    from_cache: bool = False

    @property
    def canonical_name(self) -> DnsName:
        if self.cname_chain:
            return self.cname_chain[-1].target
        return self.name


@dataclass
class _CacheEntry:
    expires: Instant
    records: List[ResourceRecord] | None   # None encodes a negative entry
    negative: type | None = None           # NxDomain or NoData


class Resolver:
    """Recursive resolver with TTL-based positive and negative caching."""

    def __init__(self, network: Network, clock: Clock,
                 *, cache_enabled: bool = True,
                 negative_ttl: int = 300,
                 retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY):
        self._network = network
        self._clock = clock
        self._retry_policy = retry_policy
        self._delegations: Dict[DnsName, List[IpAddress]] = {}
        self._cache: Dict[Tuple[DnsName, RRType], _CacheEntry] = {}
        self._cache_enabled = cache_enabled
        self._negative_ttl = negative_ttl
        self.query_count = 0
        self.cache_hits = 0
        self.negative_cache_hits = 0
        #: Optional shard-scan journal (process backend): every live
        #: query that ends up *cached* — i.e. work a sibling worker may
        #: duplicate — is recorded with its network cost so the parent
        #: can merge per-worker counters back to serial-exact totals.
        self.journal = None

    # -- delegation registry -------------------------------------------

    def delegate(self, apex: DnsName | str,
                 servers: List[IpAddress]) -> None:
        """Register the authoritative servers for a zone apex."""
        if isinstance(apex, str):
            apex = DnsName.parse(apex)
        self._delegations[apex] = list(servers)

    def undelegate(self, apex: DnsName | str) -> None:
        if isinstance(apex, str):
            apex = DnsName.parse(apex)
        self._delegations.pop(apex, None)

    def servers_for(self, name: DnsName) -> List[IpAddress]:
        # Longest-suffix match via direct dict probes: every suffix of
        # *name* is a candidate apex, and the longest one wins.  This is
        # O(labels) instead of O(registered zones) — the delegation
        # registry holds one entry per deployed domain, so a linear scan
        # here dominated the entire scan pipeline at ecosystem scale.
        labels = name.labels
        delegations = self._delegations
        for i in range(len(labels)):
            servers = delegations.get(DnsName(labels[i:]))
            if servers is not None:
                return servers
        return []

    # -- resolution -----------------------------------------------------

    def resolve(self, name: DnsName | str, rrtype: RRType) -> Answer:
        """Resolve *name*/*rrtype*, chasing CNAMEs.

        Raises the appropriate :class:`~repro.errors.DnsError` subclass
        on failure.  NODATA (empty answer for an existing name) raises
        :class:`NoData` so callers never confuse "no record" with an
        empty RRset.
        """
        if isinstance(name, str):
            name = DnsName.parse(name)
        chain: List[CnameRecord] = []
        current = name
        seen = {current}
        for _ in range(MAX_CNAME_DEPTH + 1):
            records, cname = self._query_one(current, rrtype)
            if cname is not None:
                chain.append(cname)
                current = cname.target
                if current in seen:
                    raise CnameLoop(f"CNAME loop at {current}")
                seen.add(current)
                continue
            if not records:
                raise NoData(f"{current}/{rrtype.value}: no data")
            return Answer(name, rrtype, records, chain)
        raise CnameLoop(f"CNAME chain too long resolving {name}")

    def try_resolve(self, name: DnsName | str,
                    rrtype: RRType) -> Answer | None:
        """Like :meth:`resolve` but returns ``None`` on any DNS failure."""
        try:
            return self.resolve(name, rrtype)
        except DnsError:
            return None

    def resolve_detailed(self, name: DnsName | str, rrtype: RRType
                         ) -> Tuple[Answer | None, DnsError | None]:
        """:meth:`resolve` returning ``(answer, error)`` instead of
        raising.  The error (when set) carries the ``transient`` flag
        the scanner uses to separate retry-exhausted fault injections
        from deterministic failures."""
        try:
            return self.resolve(name, rrtype), None
        except DnsError as exc:
            return None, exc

    def resolve_address(self, name: DnsName | str) -> List[IpAddress]:
        """Resolve A then AAAA, returning every address found.

        Raises the A-lookup's error if both address families fail.
        """
        addresses: List[IpAddress] = []
        first_error: DnsError | None = None
        for rrtype in (RRType.A, RRType.AAAA):
            try:
                answer = self.resolve(name, rrtype)
            except DnsError as exc:
                if first_error is None:
                    first_error = exc
                continue
            addresses.extend(r.address for r in answer.records)  # type: ignore[attr-defined]
        if not addresses:
            raise first_error or NoData(f"{name}: no address records")
        return addresses

    # -- internals --------------------------------------------------------

    def _query_one(self, name: DnsName, rrtype: RRType
                   ) -> Tuple[List[ResourceRecord], CnameRecord | None]:
        key = (name, rrtype)
        tracer = trace.current_tracer() if trace.TRACING else None
        metrics = tracer.metrics if tracer is not None else None
        if self._cache_enabled:
            entry = self._cache.get(key)
            if entry is not None and entry.expires > self._clock.now():
                self.cache_hits += 1
                if metrics is not None:
                    metrics.count("dns.cache_hits")
                if entry.negative is not None:
                    self.negative_cache_hits += 1
                    if metrics is not None:
                        metrics.count("dns.negative_cache_hits")
                    raise entry.negative(f"{name}/{rrtype.value} (cached)")
                return self._entry_answer(entry, rrtype)
        self.query_count += 1
        if metrics is not None:
            metrics.count("dns.queries")
        return self._query_live(name, rrtype, key)

    @staticmethod
    def _entry_answer(entry: _CacheEntry, rrtype: RRType
                      ) -> Tuple[List[ResourceRecord], CnameRecord | None]:
        records = entry.records or []
        cname = None
        if (records and isinstance(records[0], CnameRecord)
                and rrtype is not RRType.CNAME):
            cname = records[0]
            records = []
        return records, cname

    def _query_live(self, name: DnsName, rrtype: RRType,
                    key: Tuple[DnsName, RRType]
                    ) -> Tuple[List[ResourceRecord], CnameRecord | None]:
        journal = self.journal
        if journal is None:
            return self._resolve_live(name, rrtype, key)
        token = journal.dns_started()
        try:
            return self._resolve_live(name, rrtype, key)
        finally:
            # Only *cached* outcomes are journaled: a cacheable answer
            # (positive, CNAME, NXDOMAIN, NODATA) is the work another
            # shard worker may redo where a serial scan would have hit
            # its cache.  Transient failures are never cached, execute
            # per-request under every backend, and need no correction.
            entry = self._cache.get(key)
            if entry is not None:
                journal.dns_finished(
                    f"{name.text}/{rrtype.value}",
                    entry.negative is not None, token)

    def _resolve_live(self, name: DnsName, rrtype: RRType,
                      key: Tuple[DnsName, RRType]
                      ) -> Tuple[List[ResourceRecord], CnameRecord | None]:
        servers = self.servers_for(name)
        if not servers:
            raise DnsTimeout(f"no delegation covers {name}")
        last_error: DnsError = DnsTimeout(f"all servers failed for {name}")
        for server_ip in servers:
            try:
                server = connect_with_retries(
                    self._network, server_ip, DNS_PORT,
                    policy=self._retry_policy,
                    key=f"dns:{server_ip.text}:{name.text}")
            except NetworkError as exc:
                # Transient (fault-injected) unreachability must not be
                # confused with — or negatively cached as — a dead
                # server, so the flag rides along on the DNS error.
                timeout = DnsTimeout(f"{server_ip} unreachable: {exc}")
                timeout.transient = getattr(exc, "transient", False)
                last_error = timeout
                continue
            if not isinstance(server, AuthoritativeServer):
                last_error = ServFail(f"{server_ip} is not a DNS server")
                continue
            try:
                result = server.query(name, rrtype)
            except ServFail as exc:
                last_error = exc
                continue
            if result.rcode == "NXDOMAIN":
                self._store_negative(key, NxDomain)
                raise NxDomain(f"{name} does not exist")
            if result.cname is not None:
                self._store_positive(key, [result.cname])
                return [], result.cname
            if not result.records:
                self._store_negative(key, NoData)
                return [], None
            self._store_positive(key, result.records)
            return list(result.records), None
        raise last_error

    def _store_positive(self, key, records: List[ResourceRecord]) -> None:
        if not self._cache_enabled:
            return
        ttl = min(r.ttl for r in records)
        self._cache[key] = _CacheEntry(
            self._clock.now() + Duration(ttl), list(records))

    def _store_negative(self, key, error_type: type) -> None:
        if not self._cache_enabled:
            return
        self._cache[key] = _CacheEntry(
            self._clock.now() + Duration(self._negative_ttl), None,
            error_type)

    def flush_cache(self) -> None:
        self._cache.clear()

    # -- instrumentation --------------------------------------------------

    def cache_stats(self) -> Dict[str, int | float]:
        """Counters for the scan instrumentation layer (``ScanStats``).

        ``cache_hits`` includes negative (NXDOMAIN/NODATA) hits;
        ``negative_cache_hits`` breaks those out separately.
        """
        lookups = self.query_count + self.cache_hits
        return {
            "queries": self.query_count,
            "cache_hits": self.cache_hits,
            "negative_cache_hits": self.negative_cache_hits,
            "hit_rate": self.cache_hits / lookups if lookups else 0.0,
            "entries": len(self._cache),
        }

    def reset_stats(self) -> None:
        self.query_count = 0
        self.cache_hits = 0
        self.negative_cache_hits = 0
