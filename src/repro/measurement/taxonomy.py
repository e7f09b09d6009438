"""Folding snapshots into the paper's error taxonomy.

:func:`categorize` maps one domain snapshot onto the four Figure-4
categories; :func:`snapshot_summary` aggregates one month's
cross-section into every count the paper reports for a snapshot —
the inputs to Figures 4, 5, 6 and 7.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.matching import policy_covers_mx
from repro.errors import MisconfigCategory
from repro.measurement.classify import EntityVerdict
from repro.measurement.snapshots import DomainSnapshot


def categorize(snap: DomainSnapshot) -> List[MisconfigCategory]:
    """The Figure-4 categories one snapshot falls into (not exclusive).

    A snapshot carrying transient markers (retry-exhausted injected
    faults) additionally falls into ``TRANSIENT`` — its other
    observations are unreliable, which is why :func:`snapshot_summary`
    excludes transient snapshots from the misconfiguration tallies
    rather than letting network noise inflate Figure 4.
    """
    categories: List[MisconfigCategory] = []
    if snap.any_transient:
        categories.append(MisconfigCategory.TRANSIENT)
    if not snap.sts_like:
        return categories
    if not snap.record_valid:
        categories.append(MisconfigCategory.DNS_RECORD)
    if snap.policy_fetch_stage is not None or snap.policy_syntax_errors:
        categories.append(MisconfigCategory.POLICY_RETRIEVAL)
    if snap.any_invalid_mx_cert:
        categories.append(MisconfigCategory.MX_CERTIFICATE)
    if not snap.consistent:
        categories.append(MisconfigCategory.INCONSISTENCY)
    return categories


#: Every value :func:`primary_bucket` can return, in priority order.
PRIMARY_BUCKETS = ("transient", "not-sts", "dns-record",
                   "policy-retrieval", "mx-certificate", "inconsistency",
                   "ok")


def primary_bucket(snap: DomainSnapshot) -> str:
    """A *total, exclusive* classification of one snapshot.

    Every scanned domain lands in exactly one bucket: ``transient``
    (any retry-exhausted injected fault — the observation is noise),
    ``not-sts`` (no MTA-STS signal), the highest-priority Figure-4
    category, or ``ok``.  The fault-robustness property tests assert
    totality: no fault plan may make a domain unclassifiable.
    """
    if snap.any_transient:
        return "transient"
    if not snap.sts_like:
        return "not-sts"
    categories = categorize(snap)
    if categories:
        return categories[0].value
    return "ok"


def delivery_failure_expected(snap: DomainSnapshot) -> bool:
    """Would an RFC 8461-compliant sender fail to deliver? (§4's 3.2%)."""
    if not snap.enforce_mode or not snap.policy_ok:
        return False
    if not snap.mx_hostnames:
        return False
    matching = [mx for mx in snap.mx_hostnames
                if policy_covers_mx(snap.mx_patterns, mx)]
    if not matching:
        return True
    observed = {o.hostname: o for o in snap.mx_observations}
    verdicts = [observed[mx] for mx in matching if mx in observed]
    usable = [v for v in verdicts if v.tls_established]
    return bool(usable) and all(not v.cert_valid for v in usable)


@dataclass
class SnapshotSummary:
    """Every per-month aggregate the paper's figures use."""

    month_index: int
    total_sts: int = 0
    misconfigured: int = 0
    delivery_failures: int = 0
    #: Snapshots (STS or not) that died on retry-exhausted injected
    #: faults.  Excluded from every misconfiguration tally: transient
    #: network noise is not a misconfiguration.
    transient: int = 0
    category_counts: Counter = field(default_factory=Counter)
    # Figure 5: policy errors by stage x entity
    policy_errors_by_entity: Dict[str, Counter] = field(
        default_factory=lambda: {"self-managed": Counter(),
                                 "third-party": Counter(),
                                 "unclassified": Counter()})
    policy_entity_totals: Counter = field(default_factory=Counter)
    # Figure 6: MX cert failure classes x entity
    mx_cert_by_entity: Dict[str, Counter] = field(
        default_factory=lambda: {"self-managed": Counter(),
                                 "third-party": Counter(),
                                 "unclassified": Counter()})
    mx_entity_totals: Counter = field(default_factory=Counter)
    mx_invalid_by_entity: Counter = field(default_factory=Counter)
    # Figure 7
    all_invalid_mx: int = 0
    partially_invalid_mx: int = 0
    enforce_invalid_mx: int = 0
    # Figure 8 precursor: inconsistent domains and their modes
    inconsistent: int = 0
    enforce_inconsistent: int = 0

    def misconfigured_percent(self) -> float:
        return 100.0 * self.misconfigured / self.total_sts if self.total_sts else 0.0

    def category_percent(self, category: MisconfigCategory) -> float:
        if not self.total_sts:
            return 0.0
        return 100.0 * self.category_counts[category.value] / self.total_sts


def snapshot_summary(snapshots: List[DomainSnapshot],
                     verdicts: Optional[Dict[str, EntityVerdict]] = None
                     ) -> SnapshotSummary:
    """Aggregate one month's snapshots
    (:func:`~repro.measurement.columnar.snapshot_summary_view`).

    Entity attribution always comes from the month's own cross-section
    through the §4.3.1 rules, so *verdicts* — accepted for callers that
    already ran :class:`~repro.measurement.classify.EntityClassifier`
    over the same snapshots — is not consulted.
    """
    from repro.measurement.columnar import snapshot_summary_view, view_of
    return snapshot_summary_view(view_of(snapshots))
