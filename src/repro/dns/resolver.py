"""A caching recursive resolver.

The resolver holds a delegation registry (zone apex → authoritative
server addresses) standing in for the root/TLD referral chain, chases
CNAMEs across zones with loop protection, and caches both positive and
negative answers by TTL against the simulated clock.  All scanner
lookups in :mod:`repro.measurement.scanner` go through this class, so
its error surface (NXDOMAIN, NODATA, SERVFAIL, timeout) is exactly the
set of DNS outcomes the paper's Figure 5 "DNS" bar aggregates.

A resolution that reached no nameserver (every connect to every
delegated server failed) is not cached: a transient failure must not
outlive its fault.  It is remembered for the current instant only,
though, and a repeat at the same instant under the same network
configuration is replayed — the same error, the same counter movements
— instead of run again (see :meth:`Resolver._query_one`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import trace
from repro.clock import Clock
from repro.dns.name import DnsName, longest_suffix_match
from repro.dns.records import CnameRecord, ResourceRecord, RRType
from repro.dns.server import DNS_PORT, AuthoritativeServer
from repro.errors import (
    CnameLoop, DnsError, DnsTimeout, NetworkError, NoData, NxDomain,
    ServFail,
)
from repro.netsim.ip import IpAddress
from repro.netsim.network import ConnectCharge, Network
from repro.netsim.retry import (
    DEFAULT_RETRY_POLICY, RetryPolicy, connect_with_retries,
)

MAX_CNAME_DEPTH = 8

#: Seconds a negative answer (NXDOMAIN or NODATA) stays cached.
NEGATIVE_TTL = 300

#: A resolved RRset.  Immutable, so the cache shares one with every
#: answer built from it and no caller can change a cached answer.
Records = Tuple[ResourceRecord, ...]


@dataclass(slots=True)
class Answer:
    """A successful resolution."""

    name: DnsName                      # the name originally queried
    rrtype: RRType
    records: Records                   # records at the end of any CNAME chain
    cname_chain: Tuple[CnameRecord, ...] = ()
    from_cache: bool = False

    @property
    def canonical_name(self) -> DnsName:
        if self.cname_chain:
            return self.cname_chain[-1].target
        return self.name


@dataclass(slots=True)
class _CacheEntry:
    """One cached outcome.  *negative* (``NxDomain`` or ``NoData``)
    marks a negative entry; *cname* is set when the name is an alias."""

    expires: int                        # epoch second the entry dies
    records: Records
    cname: CnameRecord | None
    negative: type | None


@dataclass(slots=True)
class _Failure:
    """A resolution that reached no nameserver: what it raised (kept as
    type, arguments and flag — an exception object would hold its
    traceback) and what its failed connects counted."""

    error_type: type
    args: tuple
    transient: bool
    charges: Tuple[ConnectCharge, ...]

    def error(self) -> DnsError:
        error = self.error_type(*self.args)
        error.transient = self.transient
        return error


class Resolver:
    """Recursive resolver with TTL-based positive and negative caching.

    Every table is keyed by plain values — name text, and the RRType's
    string value — so a lookup hashes in C; a positive answer shares the
    cached record tuple instead of copying it.
    """

    def __init__(self, network: Network, clock: Clock,
                 *, retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY):
        self._network = network
        self._clock = clock
        self._retry_policy = retry_policy
        #: apex text -> authoritative server addresses
        self._delegations: Dict[str, List[IpAddress]] = {}
        #: (name text, RRType value) -> cached outcome
        self._cache: Dict[Tuple[str, str], _CacheEntry] = {}
        #: name text as callers spell it -> its parsed name: the world's
        #: name intern (see :meth:`name`).  Answers expire, names do
        #: not, so :meth:`flush_cache` leaves it alone.
        self._names: Dict[str, DnsName] = {}
        #: (name text, RRType value) -> a resolution that reached no
        #: nameserver at ``_failed_at``: (epoch second, network version).
        self._failed: Dict[Tuple[str, str], _Failure] = {}
        self._failed_at: Tuple[int, Tuple[int, int]] | None = None
        self.query_count = 0
        self.cache_hits = 0
        self.negative_cache_hits = 0

    # -- delegation registry -------------------------------------------

    def delegate(self, apex: DnsName | str,
                 servers: List[IpAddress]) -> None:
        """Register the authoritative servers for a zone apex."""
        if isinstance(apex, str):
            apex = self.name(apex)
        self._delegations[apex.text] = list(servers)
        self._failed.clear()

    def undelegate(self, apex: DnsName | str) -> None:
        if isinstance(apex, str):
            apex = self.name(apex)
        self._delegations.pop(apex.text, None)
        self._failed.clear()

    def servers_for(self, name: DnsName) -> List[IpAddress]:
        # The registry holds one entry per deployed domain, so a scan
        # of it would dominate the scan pipeline at ecosystem scale;
        # the longest apex wins.
        return longest_suffix_match(self._delegations, name) or []

    # -- names ------------------------------------------------------------

    def name(self, text: str) -> DnsName:
        """*text* parsed as a DNS name, once per spelling for the
        resolver's lifetime: every lookup site of the world asks here
        instead of calling :meth:`DnsName.parse`, and a repeated
        spelling gets the identical object back.  A spelling that is
        not a DNS name raises ``ValueError`` and is not interned."""
        name = self._names.get(text)
        if name is None:
            name = self._names[text] = DnsName.parse(text)
        return name

    # -- resolution -----------------------------------------------------

    def resolve(self, name: DnsName | str, rrtype: RRType) -> Answer:
        """Resolve *name*/*rrtype*, chasing CNAMEs.

        Raises the appropriate :class:`~repro.errors.DnsError` subclass
        on failure.  NODATA (empty answer for an existing name) raises
        :class:`NoData` so callers never confuse "no record" with an
        empty RRset.  The answer's record tuple is shared with the
        cache.
        """
        if isinstance(name, str):
            name = self._names.get(name) or self.name(name)
        chain: Tuple[CnameRecord, ...] = ()
        current = name
        while True:
            records, cname = self._query_one(current, rrtype)
            if cname is None:
                if not records:
                    raise NoData(f"{current}/{rrtype.value}: no data")
                return Answer(name, rrtype, records, chain)
            current = cname.target
            # Chains are short: scanning one beats building a set.
            if current == name or any(c.target == current for c in chain):
                raise CnameLoop(f"CNAME loop at {current}")
            if len(chain) == MAX_CNAME_DEPTH:
                raise CnameLoop(f"CNAME chain too long resolving {name}")
            chain += (cname,)

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
        from deterministic failures; it comes without its traceback,
        which would tie the caller's frame into a reference cycle."""
        try:
            return self.resolve(name, rrtype), None
        except DnsError as exc:
            return None, exc.with_traceback(None)

    def resolve_address(self, name: DnsName | str) -> List[IpAddress]:
        """Resolve A then AAAA, returning every address found.

        Raises the A-lookup's error if both address families fail.
        """
        addresses: List[IpAddress] = []
        first_error: DnsError | None = None
        try:
            for rrtype in (RRType.A, RRType.AAAA):
                try:
                    answer = self.resolve(name, rrtype)
                except DnsError as exc:
                    if first_error is None:
                        first_error = exc
                    continue
                for record in answer.records:
                    addresses.append(record.address)  # type: ignore[attr-defined]
            if not addresses:
                raise first_error or NoData(f"{name}: no address records")
            return addresses
        finally:
            # A kept error's traceback holds this frame (a cycle).
            first_error = None

    # -- internals --------------------------------------------------------

    def _query_one(self, name: DnsName, rrtype: RRType
                   ) -> Tuple[Records, CnameRecord | None]:
        """One cache lookup, else one live resolution.

        A live resolution that reached no nameserver depends only on
        the delegation registry, the network's configuration
        (:attr:`Network.version`), the retry policy and the instant, so
        its repeat at the same instant under the same version is
        replayed from ``_failed``: the network counts the failed
        connects again and a fresh error of the same type, message and
        ``transient`` flag is raised.  While a tracer is bound the memo
        is neither filled nor consulted: a trace records every connect
        attempt (resource-span events and the ``retry.backoff``
        histogram), and a replay attempts none.
        """
        # ``_value_`` is ``rrtype.value`` without the Enum property's
        # Python-level descriptor call.
        key = (name.text, rrtype._value_)
        entry = self._cache.get(key)
        if (entry is not None
                and entry.expires > self._clock.now().epoch_seconds):
            self.cache_hits += 1
            if entry.negative is not None:
                self.negative_cache_hits += 1
                raise entry.negative(f"{name}/{rrtype.value} (cached)")
            return entry.records, entry.cname
        self.query_count += 1
        if trace.TRACING:
            return self._resolve_live(name, rrtype, key, False)
        failed = self._failed
        if failed:
            if self._failed_at != (self._clock.now().epoch_seconds,
                                   self._network.version):
                failed.clear()
            else:
                failure = failed.get(key)
                if failure is not None:
                    self._network.replay(*failure.charges)
                    raise failure.error()
        return self._resolve_live(name, rrtype, key, True)

    def _resolve_live(self, name: DnsName, rrtype: RRType,
                      key: Tuple[str, str], remember: bool
                      ) -> Tuple[Records, CnameRecord | None]:
        servers = self.servers_for(name)
        if not servers:
            raise DnsTimeout(f"no delegation covers {name}")
        last_error: DnsError | None = None
        charges: Tuple[ConnectCharge, ...] = ()
        try:
            for server_ip in servers:
                try:
                    server = connect_with_retries(
                        self._network, server_ip, DNS_PORT,
                        policy=self._retry_policy,
                        key=f"dns:{server_ip.text}:{name.text}")
                except NetworkError as exc:
                    # Transient (fault-injected) unreachability must not
                    # be confused with — or negatively cached as — a dead
                    # server, so the flag rides along on the DNS error.
                    last_error = DnsTimeout(f"{server_ip} unreachable: {exc}")
                    last_error.transient = exc.transient
                    charges += (exc.charge,)
                    continue
                remember = False        # a server was reached
                if not isinstance(server, AuthoritativeServer):
                    last_error = ServFail(f"{server_ip} is not a DNS server")
                    continue
                try:
                    result = server.query(name, rrtype)
                except ServFail as exc:
                    last_error = exc
                    continue
                records: Records = ()
                cname = result.cname
                negative = None
                if result.rcode == "NXDOMAIN":
                    ttl, negative = NEGATIVE_TTL, NxDomain
                elif cname is not None:
                    ttl = cname.ttl
                elif not result.records:
                    ttl, negative = NEGATIVE_TTL, NoData
                else:
                    # The zone's own RRset tuple: ``tuple`` copies nothing.
                    records = tuple(result.records)
                    ttl = records[0].ttl
                    for record in records:
                        if record.ttl < ttl:
                            ttl = record.ttl
                self._cache[key] = _CacheEntry(
                    self._clock.now().epoch_seconds + ttl, records, cname,
                    negative)
                if negative is NxDomain:
                    raise NxDomain(f"{name} does not exist")
                return records, cname
            if remember:
                self._remember(key, last_error, charges)
            raise last_error or DnsTimeout(f"all servers failed for {name}")
        finally:
            # The raised error's traceback holds this frame (a cycle).
            last_error = None

    def _remember(self, key: Tuple[str, str], error: DnsError,
                  charges: Tuple[ConnectCharge, ...]) -> None:
        at = (self._clock.now().epoch_seconds, self._network.version)
        if at != self._failed_at:
            self._failed.clear()
            self._failed_at = at
        self._failed[key] = _Failure(type(error), error.args,
                                     error.transient, charges)

    def flush_cache(self) -> None:
        """Forget every cached answer and remembered failure; the name
        intern stays."""
        self._cache.clear()
        self._failed.clear()

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
