"""The sender-side policy cache (RFC 8461 §3.3, §4.2).

MTA-STS is trust-on-first-use: once a sender has fetched a policy over
an authenticated channel it keeps honouring it for up to ``max_age``
seconds, refreshing proactively when the DNS record's ``id`` changes.
The cache semantics drive two of the paper's findings:

* abrupt MTA-STS removal strands senders with a cached ``enforce``
  policy (§2.6's four-step removal procedure exists to prevent this);
* updating the TXT record before the policy file (the ordering 23.8%
  of surveyed operators use) opens a window where senders refetch and
  may pick up a stale or missing policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.clock import Clock, Duration, Instant
from repro.core.policy import Policy, parse_policy, render_policy
from repro.dns.name import canonical_host


def ttl_fresh(stored_at: Instant, ttl_seconds: int, now: Instant) -> bool:
    """RFC 8461-style freshness shared by every TTL cache in the repo.

    The lifetime is capped *at* ``ttl_seconds``: an entry stored at T
    is last honoured at ``T + ttl - 1`` and expired at exactly
    ``T + ttl`` (a ``<=`` here would grant a ttl+1'th second).
    """
    return now < stored_at + Duration(ttl_seconds)


@dataclass(slots=True)
class CachedPolicy:
    """One domain's cached policy plus bookkeeping."""

    domain: str
    policy: Policy
    record_id: str
    fetched_at: Instant

    def expires_at(self) -> Instant:
        return self.fetched_at + Duration(self.policy.max_age)

    def fresh_at(self, now: Instant) -> bool:
        return ttl_fresh(self.fetched_at, self.policy.max_age, now)

    def to_dict(self) -> dict:
        """A JSON-serialisable form (the policy rides as its RFC 8461
        wire text, so the round-trip reuses the strict parser)."""
        return {"domain": self.domain,
                "policy": render_policy(self.policy),
                "record_id": self.record_id,
                "fetched_at": self.fetched_at.epoch_seconds}

    @classmethod
    def from_dict(cls, data: dict) -> "CachedPolicy":
        return cls(domain=str(data["domain"]),
                   policy=parse_policy(str(data["policy"])),
                   record_id=str(data["record_id"]),
                   fetched_at=Instant(int(data["fetched_at"])))


class PolicyCache:
    """Per-sender MTA-STS policy cache."""

    __slots__ = ("_clock", "_entries", "store_count", "hit_count")

    def __init__(self, clock: Clock):
        self._clock = clock
        self._entries: Dict[str, CachedPolicy] = {}
        self.store_count = 0
        self.hit_count = 0

    def store(self, domain: str, policy: Policy, record_id: str) -> CachedPolicy:
        domain = canonical_host(domain)
        entry = CachedPolicy(domain, policy, record_id, self._clock.now())
        self._entries[domain] = entry
        self.store_count += 1
        return entry

    def get(self, domain: str) -> Optional[CachedPolicy]:
        """Return the cached entry if still fresh; expire it otherwise."""
        entry = self._fresh_entry(domain)
        if entry is not None:
            self.hit_count += 1
        return entry

    def _fresh_entry(self, domain: str) -> Optional[CachedPolicy]:
        """Freshness check shared by :meth:`get` and
        :meth:`needs_refresh`: evicts stale entries but does *not*
        count a hit, so refresh-daemon probes don't inflate the
        delivery engine's cache hit-rate metric."""
        domain = canonical_host(domain)
        entry = self._entries.get(domain)
        if entry is None:
            return None
        if not entry.fresh_at(self._clock.now()):
            del self._entries[domain]
            return None
        return entry

    def peek(self, domain: str) -> Optional[CachedPolicy]:
        """Like :meth:`get` without freshness eviction or hit counting."""
        return self._entries.get(canonical_host(domain))

    def needs_refresh(self, domain: str,
                      current_record_id: Optional[str]) -> bool:
        """Whether a fresh DNS record id obliges a policy refetch.

        RFC 8461: senders SHOULD refetch when the record's ``id``
        differs from the cached one.  A missing record does *not*
        invalidate a fresh cached policy (that is what makes abrupt
        removal dangerous).
        """
        entry = self._fresh_entry(domain)
        if entry is None:
            return True
        if current_record_id is None:
            return False
        return current_record_id != entry.record_id

    def evict(self, domain: str) -> None:
        self._entries.pop(canonical_host(domain), None)

    def flush(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    # -- persistence (RFC 8461 §10.2 recommends caches survive
    # restarts: a sender that forgets its cache loses TOFU protection
    # exactly when an attacker wants it to) ---------------------------

    def to_dict(self) -> dict:
        """Serialise every entry (and the counters) deterministically,
        sorted by domain."""
        return {
            "entries": [self._entries[domain].to_dict()
                        for domain in sorted(self._entries)],
            "store_count": self.store_count,
            "hit_count": self.hit_count,
        }

    @classmethod
    def from_dict(cls, data: dict, clock: Clock) -> "PolicyCache":
        """Rehydrate a cache persisted by :meth:`to_dict`.

        Entries keep their original ``fetched_at``, so policies that
        expired while the process was down are already stale to
        :meth:`get` — a restart never extends ``max_age``.
        """
        cache = cls(clock)
        for entry_data in data.get("entries", ()):
            entry = CachedPolicy.from_dict(entry_data)
            cache._entries[entry.domain] = entry
        cache.store_count = int(data.get("store_count", 0))
        cache.hit_count = int(data.get("hit_count", 0))
        return cache

