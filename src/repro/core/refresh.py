"""Proactive policy refresh (RFC 8461 §3.3).

Senders SHOULD refresh cached policies before they expire, not only
on-demand at send time — otherwise a domain that is rarely mailed
falls out of cache and loses MTA-STS protection exactly when the next
(possibly attacked) delivery happens.  The :class:`RefreshDaemon`
implements the recommended behaviour: it tracks every cached policy
and refetches those within a configurable window of expiry, honouring
the record-id short-circuit (an unchanged ``id`` still restarts the
max_age clock, per the RFC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.clock import Clock, Duration, Instant
from repro.core.cache import CachedPolicy, PolicyCache
from repro.core.fetch import PolicyFetcher


@dataclass
class RefreshResult:
    domain: str
    action: str          # "refreshed" | "revalidated" | "fetch-failed" | "skipped"
    detail: str = ""


class RefreshDaemon:
    """Keeps a :class:`PolicyCache` warm.

    *refresh_window* controls how close to expiry an entry must be
    before the daemon refetches it; RFC 8461 suggests checking "at
    regular intervals", commonly daily with a window of a day or more.
    """

    __slots__ = ("_cache", "_fetcher", "_clock", "refresh_window")

    def __init__(self, cache: PolicyCache, fetcher: PolicyFetcher,
                 clock: Clock, *,
                 refresh_window: Duration = Duration(86_400)):
        self._cache = cache
        self._fetcher = fetcher
        self._clock = clock
        self.refresh_window = refresh_window

    def due_entries(self) -> List[CachedPolicy]:
        """Cached entries expiring within the refresh window."""
        now = self._clock.now()
        horizon = now + self.refresh_window
        return [entry for entry in list(self._cache._entries.values())
                if entry.expires_at() <= horizon]

    def next_due(self) -> Optional[Instant]:
        """The earliest instant at which :meth:`run_once` has work:
        the first cached expiry minus the refresh window (``None`` for
        an empty cache).  Until the cache changes, every run before
        that instant is a no-op."""
        entries = self._cache._entries
        if not entries:
            return None
        return (min(entry.expires_at() for entry in entries.values())
                - self.refresh_window)

    def run_once(self) -> List[RefreshResult]:
        """Refresh every due entry; returns what happened per domain."""
        results: List[RefreshResult] = []
        for entry in self.due_entries():
            results.append(self._refresh(entry))
        return results

    def _refresh(self, entry: CachedPolicy) -> RefreshResult:
        domain = entry.domain
        record_result = self._fetcher.lookup_record(domain)
        record = record_result.record
        if record is None:
            # The record vanished or broke.  RFC 8461: a cached policy
            # stays valid until max_age; the daemon leaves it to age
            # out rather than dropping protection early.
            return RefreshResult(domain, "skipped",
                                 "record missing/invalid; letting the "
                                 "cached policy age out")
        if record.id == entry.record_id:
            # Same id: the policy is unchanged.  Restart the clock
            # without refetching the body (the RFC allows treating the
            # cache as fresh again).
            self._cache.store(domain, entry.policy, record.id)
            return RefreshResult(domain, "revalidated",
                                 f"id {record.id} unchanged")
        fetch = self._fetcher.fetch_policy(domain)
        if fetch.policy is not None and fetch.failed_stage is None:
            self._cache.store(domain, fetch.policy, record.id)
            return RefreshResult(domain, "refreshed",
                                 f"new id {record.id}")
        return RefreshResult(
            domain, "fetch-failed",
            str(fetch.failed_stage.value if fetch.failed_stage else ""))
