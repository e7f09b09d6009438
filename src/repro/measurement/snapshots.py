"""The scan dataset schema.

A :class:`DomainSnapshot` is one domain's complete observation at one
scan instant — exactly the fields the paper's pipeline stores: the raw
TXT strings, MX/NS/A records, the policy host's CNAME and addresses,
the staged policy-fetch outcome, the parsed policy, and the per-MX
STARTTLS/certificate verdicts.  The :class:`SnapshotStore` indexes
snapshots by month and by domain, which is all the longitudinal
analyses (Figures 4-10) need.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.clock import Instant
from repro.errors import MisconfigCategory, PolicyFetchStage


@dataclass
class MxObservation:
    """One MX host's probe outcome inside a snapshot."""

    hostname: str
    addresses: List[str] = field(default_factory=list)
    reachable: bool = False
    starttls: bool = False
    tls_established: bool = False
    cert_valid: bool = False
    failure_class: str = ""       # valid | cn-mismatch | self-signed | ...
    transient: bool = False       # probe died on a retry-exhausted fault

    @classmethod
    def from_dict(cls, data: dict) -> "MxObservation":
        """Exact inverse of ``asdict``: unknown keys raise ``TypeError``
        so a schema drift surfaces instead of silently dropping data."""
        return cls(**data)


@dataclass
class DomainSnapshot:
    """One domain, one scan month."""

    domain: str
    tld: str
    month_index: int
    instant: Instant

    # DNS stage
    txt_strings: List[str] = field(default_factory=list)
    sts_like: bool = False
    record_valid: bool = False
    record_error: str = ""
    record_id: str = ""
    ns_hostnames: List[str] = field(default_factory=list)
    apex_addresses: List[str] = field(default_factory=list)
    mx_hostnames: List[str] = field(default_factory=list)
    tlsrpt_present: bool = False
    #: A DNS-stage lookup (NS/A/MX or the ``_mta-sts`` TXT) failed on a
    #: retry-exhausted injected fault: the DNS view is incomplete noise.
    dns_transient: bool = False

    # policy host stage
    policy_host_cname: Optional[str] = None
    policy_host_addresses: List[str] = field(default_factory=list)
    policy_fetch_stage: Optional[str] = None   # failed stage, None = ok
    policy_transient: bool = False  # fetch died on a retry-exhausted fault
    policy_tls_failure: str = ""
    policy_http_status: Optional[int] = None
    policy_syntax_errors: List[str] = field(default_factory=list)
    #: Non-fatal policy deviations (e.g. max_age over the RFC bound).
    policy_warnings: List[str] = field(default_factory=list)
    policy_mode: str = ""
    policy_max_age: Optional[int] = None
    mx_patterns: List[str] = field(default_factory=list)

    # MX probing stage
    mx_observations: List[MxObservation] = field(default_factory=list)

    # -- derived ------------------------------------------------------------

    @property
    def policy_retrieval_ok(self) -> bool:
        return self.policy_fetch_stage is None and bool(self.mx_patterns)

    @property
    def policy_ok(self) -> bool:
        return (self.policy_fetch_stage is None
                and not self.policy_syntax_errors)

    @property
    def mx_tls_capable(self) -> List[MxObservation]:
        return [o for o in self.mx_observations if o.tls_established]

    @property
    def any_invalid_mx_cert(self) -> bool:
        return any(not o.cert_valid for o in self.mx_tls_capable)

    @property
    def all_invalid_mx_cert(self) -> bool:
        capable = self.mx_tls_capable
        return bool(capable) and all(not o.cert_valid for o in capable)

    @property
    def any_transient(self) -> bool:
        """Any stage died on a fault-injected error after retries.

        A transient snapshot's observations are network noise, not
        evidence: the taxonomy files the domain under ``transient``
        instead of attributing a misconfiguration category.
        """
        return (self.dns_transient or self.policy_transient
                or any(o.transient for o in self.mx_observations))

    @property
    def consistent(self) -> bool:
        """At least one actual MX matches the policy's mx patterns."""
        from repro.core.matching import policy_covers_mx
        if not self.policy_ok or not self.mx_hostnames or not self.mx_patterns:
            return True
        return any(policy_covers_mx(self.mx_patterns, mx)
                   for mx in self.mx_hostnames)

    @property
    def enforce_mode(self) -> bool:
        return self.policy_mode == "enforce"

    def to_dict(self) -> dict:
        """A plain-data view of every recorded field.

        ``Instant`` collapses to its epoch seconds, so the output is
        JSON-serialisable and two snapshots are equal exactly when the
        scanner recorded the same observations.  Built by hand rather
        than ``dataclasses.asdict`` — the recursive deep-copy there
        dominates shard-commit and ``canonical_bytes`` cost; list
        fields are still copied so callers can mutate the result.
        """
        data = dict(self.__dict__)
        data["instant"] = self.instant.epoch_seconds
        for key in ("txt_strings", "ns_hostnames", "apex_addresses",
                    "mx_hostnames", "policy_host_addresses",
                    "policy_syntax_errors", "policy_warnings",
                    "mx_patterns"):
            data[key] = list(data[key])
        data["mx_observations"] = [
            {**obs.__dict__, "addresses": list(obs.addresses)}
            for obs in self.mx_observations]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DomainSnapshot":
        """Exact inverse of :meth:`to_dict`.

        ``instant`` rehydrates from its epoch seconds and every MX
        observation from its own dict; every other field is taken
        verbatim, so ``from_dict(s.to_dict()) == s`` for any snapshot
        the scanner can produce.  Unknown or missing keys raise
        ``TypeError`` — persistence callers turn that into an explicit
        corruption error rather than loading a partial snapshot.
        """
        data = dict(data)
        data["instant"] = Instant(int(data["instant"]))
        data["mx_observations"] = [
            MxObservation.from_dict(obs) for obs in data["mx_observations"]]
        return cls(**data)


class SnapshotStore:
    """All snapshots of one measurement campaign.

    Snapshots are indexed by month *and* by domain as they arrive, so
    :meth:`month` and :meth:`domain_history` — called per month by
    every figure series — cost O(that month / that domain's history),
    not O(whole store).
    """

    def __init__(self):
        #: month_index -> {domain -> snapshot}
        self._by_month: Dict[int, Dict[str, DomainSnapshot]] = {}
        #: domain -> {month_index -> snapshot}
        self._by_domain: Dict[str, Dict[int, DomainSnapshot]] = {}
        self._count = 0

    def add(self, snapshot: DomainSnapshot) -> None:
        month = self._by_month.setdefault(snapshot.month_index, {})
        if snapshot.domain not in month:
            self._count += 1
        month[snapshot.domain] = snapshot
        self._by_domain.setdefault(
            snapshot.domain, {})[snapshot.month_index] = snapshot

    def merge(self, other: "SnapshotStore") -> None:
        """Fold *other*'s snapshots in, in canonical (month, domain)
        order.  The scan executor merges per-shard stores through this,
        and the resume path re-merges checkpointed months, so key
        collisions are never legitimate unless the snapshots are equal
        (an idempotent re-merge): a colliding key whose incoming
        snapshot *differs* raises ``ValueError`` naming the key instead
        of silently overwriting either side.
        """
        for month_index in other.months():
            for snapshot in other.month(month_index):
                existing = self.get(month_index, snapshot.domain)
                if existing is None:
                    self.add(snapshot)
                elif existing != snapshot:
                    raise ValueError(
                        f"snapshot merge collision at (month={month_index}, "
                        f"domain={snapshot.domain!r}): incoming snapshot "
                        f"differs from the stored one")

    def months(self) -> List[int]:
        return sorted(self._by_month)

    def month(self, month_index: int) -> List[DomainSnapshot]:
        by_domain = self._by_month.get(month_index, {})
        return [by_domain[domain] for domain in sorted(by_domain)]

    def get(self, month_index: int, domain: str) -> Optional[DomainSnapshot]:
        return self._by_month.get(month_index, {}).get(domain)

    def domain_history(self, domain: str) -> List[DomainSnapshot]:
        by_month = self._by_domain.get(domain, {})
        return [by_month[month] for month in sorted(by_month)]

    def latest_month(self) -> int:
        if not self._by_month:
            raise ValueError("store is empty")
        return max(self._by_month)

    def latest(self) -> List[DomainSnapshot]:
        return self.month(self.latest_month())

    def __len__(self) -> int:
        return self._count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SnapshotStore):
            return NotImplemented
        return self._by_month == other._by_month

    def canonical_bytes(self) -> bytes:
        """A deterministic byte serialisation of the whole store.

        Snapshots are emitted in sorted (month, domain) order with
        sorted JSON keys, so two stores serialise identically iff they
        hold the same observations — the determinism tests compare
        serial and process scan outputs byte-for-byte through this,
        and the resume differentials compare interrupted-and-resumed
        campaigns against uninterrupted ones.
        """
        rows = [snapshot.to_dict() for snapshot in self.iter_snapshots()]
        return json.dumps(rows, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def iter_snapshots(self) -> Iterable[DomainSnapshot]:
        """Every snapshot in canonical (month, domain) order."""
        for month_index in self.months():
            yield from self.month(month_index)

    @classmethod
    def from_rows(cls, rows: Iterable[dict]) -> "SnapshotStore":
        """Rebuild a store from plain-data rows — the exact inverse of
        ``json.loads(store.canonical_bytes())``."""
        store = cls()
        for row in rows:
            store.add(DomainSnapshot.from_dict(row))
        return store
