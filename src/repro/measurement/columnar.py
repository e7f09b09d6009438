"""Columnar analysis: the one implementation of every month aggregation.

The paper's longitudinal outputs (Figures 4-10, the taxonomy census,
Table 2, the monitor's monthly registries) all fold one month's
cross-section into counts.  Large-scale ecosystem measurements
(Czybik et al., Mayer et al.) stay tractable by aggregating over
columnar/census representations instead of per-host records; this
module does the same for the campaign store:

* :class:`ColumnarStore` builds one :class:`MonthView` of per-field
  stdlib ``array``/``bytearray``/list columns per month, lazily.  It
  has two sources: :meth:`ColumnarStore.from_state_dir` parses a
  committed shard's rows straight into columns (no snapshot object is
  ever constructed), and :meth:`ColumnarStore.from_store` converts the
  snapshots of an in-memory :class:`SnapshotStore` through the same
  builder.  :func:`view_of` does the same for a bare snapshot list.
* Strings are dictionary-encoded: domains, policy modes, fetch
  stages, providers, and whole mx-pattern/MX-host tuples intern into
  store-level dictionaries, so every derived classification
  (``policy_covers_mx``, ``classify_mismatch``, eSLD extraction,
  provider identification) is computed once per *distinct* value and
  memoised, not once per row.
* Every month aggregation — the summary behind Figures 4-7, the
  taxonomy-bucket census behind the
  :class:`~repro.obs.monitor.CampaignMonitor` feed, the Figure-8
  mismatch census, the Figure-9 historical matcher, the Figure-10
  outsourcing census and the Table-2 delegation census — is a
  ``*_view`` function here over one :class:`MonthView` (or the store).
  The object-list entry points (``taxonomy.snapshot_summary``,
  ``inconsistency.mismatch_census``, ``delegation.delegation_census``,
  ``historical.historical_series``) are adapters over these ports.

The per-row derivations call the same pure functions the per-snapshot
predicates use (``policy_covers_mx``, ``classify_mismatch``,
``_esld``, ``delegation.provider_of``) and the §4.3.1 rules on
:class:`~repro.measurement.classify.EntityTallies`; every Counter is
filled in row order so ``most_common`` tie-breaks are stable.
``tests/test_analysis_golden.py`` pins every output.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.core.matching import policy_covers_mx
from repro.dns.name import registrable_part
from repro.errors import (
    ManagingEntity, MisconfigCategory, MismatchClass, PolicyFetchStage,
    StoreCorruption,
)
from repro.measurement.classify import (
    EntityTallies, EntityVerdict, _esld, eslds,
)
from repro.measurement.delegation import provider_of
from repro.measurement.inconsistency import classify_mismatch
from repro.measurement.taxonomy import PRIMARY_BUCKETS, SnapshotSummary

if TYPE_CHECKING:
    from repro.measurement.snapshots import DomainSnapshot, SnapshotStore
    from repro.measurement.store_io import MonthEntry

__all__ = [
    "ColumnarStore", "MonthView", "view_of",
    "snapshot_summary_view", "taxonomy_census_view",
    "mismatch_census_view", "delegation_census_view",
    "outsourcing_census_view", "historical_series_view",
]

# -- fixed encodings --------------------------------------------------------
#
# The category bits follow categorize()'s append order, so iterating set
# bits fills the summary's Counter in the same insertion order.

_CATEGORY_ORDER = (MisconfigCategory.DNS_RECORD,
                   MisconfigCategory.POLICY_RETRIEVAL,
                   MisconfigCategory.MX_CERTIFICATE,
                   MisconfigCategory.INCONSISTENCY)
_CATEGORY_BIT = {category: 1 << index
                 for index, category in enumerate(_CATEGORY_ORDER)}

_BUCKET_CODE = {bucket: index for index, bucket in enumerate(PRIMARY_BUCKETS)}
_B_TRANSIENT = _BUCKET_CODE["transient"]
_B_NOT_STS = _BUCKET_CODE["not-sts"]
_B_OK = _BUCKET_CODE["ok"]

#: Entity verdicts, encoded as indexes into the summary key strings.
ENTITY_KEYS = tuple(entity.value for entity in ManagingEntity)
_ENTITY_CODE = {entity: index for index, entity in enumerate(ManagingEntity)}

#: Mismatch classes, 1-based; 0 means "no mismatch".
_MISMATCH_CLASSES = tuple(MismatchClass)
_MISMATCH_CODE = {cls: index + 1
                  for index, cls in enumerate(_MISMATCH_CLASSES)}
_DOMAIN_MISMATCH_CODE = _MISMATCH_CODE[MismatchClass.DOMAIN]


@dataclass
class MonthView:
    """One month's cross-section as parallel per-field columns.

    Row order is the shard's canonical sorted-domain order, so row *i*
    of every column describes the same domain.  String-valued fields
    hold dictionary codes into the owning :class:`ColumnarStore`;
    boolean fields are ``bytearray`` flags; ``categories`` is a
    bitmask.
    """

    month_index: int
    store: "ColumnarStore"
    n: int
    domain_ids: array            # 'q': dictionary-encoded domain
    row_of_domain: Dict[int, int]
    sts: bytearray               # sts_like
    transient: bytearray         # any_transient
    stage: bytearray             # failed fetch stage code, 0 = ok
    syntax: bytearray            # has policy syntax errors
    enforce: bytearray           # policy mode is "enforce"
    categories: bytearray        # Figure-4 category bitmask
    bucket: bytearray            # primary_bucket code
    consistent: bytearray
    delivery_failure: bytearray  # delivery_failure_expected
    any_invalid: bytearray       # any_invalid_mx_cert
    all_invalid: bytearray       # all_invalid_mx_cert
    cert_classes: List[Tuple[str, ...]]  # failure classes of invalid MXs
    policy_entity: bytearray
    mx_entity: bytearray
    both_outsourced: bytearray
    same_provider: bytearray
    mismatch: bytearray          # classify_snapshot class code, 0 = none
    provider_ids: array          # 'q': delegation provider, -1 = none
    provider_examples: Dict[int, str]    # first-seen CNAME per provider
    patterns_ids: array          # 'q': interned mx-pattern tuple
    hosts_ids: array             # 'q': interned MX-hostname tuple

    def domain(self, row: int) -> str:
        return self.store.domain_name(self.domain_ids[row])


class ColumnarStore:
    """Lazy per-month column views over a campaign.

    Construct with :meth:`from_state_dir` (shards parse straight to
    columns, verified against the manifest exactly like
    ``store_io.load_state``) or :meth:`from_store` (an in-memory
    store's snapshots, through the same builder).  ``month_view``
    loads and caches one month at a time — analyses over a single
    month never pay for the rest of the campaign.
    """

    def __init__(self, *, state_dir: Optional[str] = None,
                 entries: Optional[Dict[int, "MonthEntry"]] = None,
                 population: Optional[dict] = None,
                 object_store: Optional["SnapshotStore"] = None):
        self.state_dir = state_dir
        self.entries: Dict[int, "MonthEntry"] = entries or {}
        self.population = population
        self._object_store = object_store
        self._views: Dict[int, MonthView] = {}
        # -- dictionaries (shared across months) -----------------------
        self._domain_ids: Dict[str, int] = {}
        self._domain_names: List[str] = []
        self._tuple_ids: Dict[Tuple[str, ...], int] = {}
        self._tuples: List[Tuple[str, ...]] = []
        self._empty_tuple = self._tuple_id(())
        self._stage_ids: Dict[str, int] = {}
        self._stage_names: List[str] = []
        for stage in PolicyFetchStage:
            self._intern_stage(stage.value)
        self._provider_ids: Dict[str, int] = {}
        self._provider_names: List[str] = []
        # -- memoised pure functions -----------------------------------
        self._covers_one_memo: Dict[Tuple[int, str], bool] = {}
        self._covers_any_memo: Dict[Tuple[int, int], bool] = {}
        self._mismatch_memo: Dict[Tuple[int, int], int] = {}
        self._esld_memo: Dict[str, str] = {}
        self._own_memo: Dict[str, str] = {}
        self._provider_memo: Dict[Tuple[str, str], Optional[str]] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def from_state_dir(cls, state_dir: str,
                       months: Optional[List[int]] = None) -> "ColumnarStore":
        """Attach to a committed state directory without loading any
        shard yet; months materialise on first ``month_view``."""
        from repro.measurement.store_io import (
            MANIFEST_NAME, MonthEntry, read_manifest,
        )
        state_dir = os.path.abspath(state_dir)
        manifest = read_manifest(state_dir)
        if manifest is None:
            raise StoreCorruption(
                f"{state_dir}: no {MANIFEST_NAME} — not a campaign state "
                f"directory")
        wanted = None if months is None else set(months)
        entries = {}
        for raw in manifest.get("months", ()):
            entry = MonthEntry.from_dict(raw)
            if wanted is None or entry.month in wanted:
                entries[entry.month] = entry
        return cls(state_dir=state_dir, entries=entries,
                   population=manifest.get("population"))

    @classmethod
    def from_store(cls, store: "SnapshotStore") -> "ColumnarStore":
        """Columnarise an in-memory store (lazily, month by month)."""
        return cls(object_store=store)

    # -- month access --------------------------------------------------

    def months(self) -> List[int]:
        if self._object_store is not None:
            return self._object_store.months()
        return sorted(self.entries)

    def month_view(self, month: int) -> MonthView:
        """One month's columns, built on first use and cached.

        A month the store never scanned raises :class:`KeyError`
        naming the scanned months, whichever source the store has.
        """
        view = self._views.get(month)
        if view is None:
            months = self.months()
            if month not in months:
                raise KeyError(f"month {month} was never scanned "
                               f"(scanned months: {months})")
            view = self._build_view(month, self._month_rows(month))
            self._views[month] = view
        return view

    def loaded_months(self) -> List[int]:
        """The months materialised so far (lazy-loading introspection)."""
        return sorted(self._views)

    def _month_rows(self, month: int) -> List[dict]:
        if self._object_store is not None:
            return [snapshot.to_dict()
                    for snapshot in self._object_store.month(month)]
        from repro.measurement.store_io import load_shard_rows
        return load_shard_rows(self.state_dir, self.entries[month])

    # -- dictionaries --------------------------------------------------

    def domain_name(self, domain_id: int) -> str:
        return self._domain_names[domain_id]

    def provider_name(self, provider_id: int) -> str:
        return self._provider_names[provider_id]

    def stage_name(self, code: int) -> str:
        return self._stage_names[code - 1]

    def _domain_id(self, domain: str) -> int:
        did = self._domain_ids.get(domain)
        if did is None:
            did = len(self._domain_names)
            self._domain_ids[domain] = did
            self._domain_names.append(domain)
        return did

    def _tuple_id(self, value: Tuple[str, ...]) -> int:
        tid = self._tuple_ids.get(value)
        if tid is None:
            tid = len(self._tuples)
            self._tuple_ids[value] = tid
            self._tuples.append(value)
        return tid

    def _intern_stage(self, stage: str) -> int:
        code = self._stage_ids.get(stage)
        if code is None:
            self._stage_names.append(stage)
            code = len(self._stage_names)
            self._stage_ids[stage] = code
        return code

    def _intern_provider(self, provider: str) -> int:
        pid = self._provider_ids.get(provider)
        if pid is None:
            pid = len(self._provider_names)
            self._provider_ids[provider] = pid
            self._provider_names.append(provider)
        return pid

    # -- memoised derivations ------------------------------------------

    def _covers_one(self, patterns_id: int, host: str) -> bool:
        key = (patterns_id, host)
        hit = self._covers_one_memo.get(key)
        if hit is None:
            hit = policy_covers_mx(self._tuples[patterns_id], host)
            self._covers_one_memo[key] = hit
        return hit

    def _covers_any(self, patterns_id: int, hosts_id: int) -> bool:
        key = (patterns_id, hosts_id)
        hit = self._covers_any_memo.get(key)
        if hit is None:
            hit = any(self._covers_one(patterns_id, host)
                      for host in self._tuples[hosts_id])
            self._covers_any_memo[key] = hit
        return hit

    def _mismatch_code(self, patterns_id: int, hosts_id: int) -> int:
        key = (patterns_id, hosts_id)
        code = self._mismatch_memo.get(key)
        if code is None:
            verdict = classify_mismatch(self._tuples[patterns_id],
                                        self._tuples[hosts_id])
            code = (_MISMATCH_CODE[verdict.mismatch_class]
                    if verdict.mismatch else 0)
            self._mismatch_memo[key] = code
        return code

    def _esld_of(self, hostname: str) -> str:
        value = self._esld_memo.get(hostname)
        if value is None:
            value = _esld(hostname)
            self._esld_memo[hostname] = value
        return value

    def _own_of(self, domain: str) -> str:
        value = self._own_memo.get(domain)
        if value is None:
            value = registrable_part(domain)
            self._own_memo[domain] = value
        return value

    def _provider_of(self, domain: str,
                     cname: Optional[str]) -> Optional[str]:
        """``delegation.provider_of``, memoised per (domain, CNAME)."""
        if not cname:
            return None
        key = (domain, cname)
        if key not in self._provider_memo:
            self._provider_memo[key] = provider_of(domain, cname)
        return self._provider_memo[key]

    # -- the column builder --------------------------------------------

    def _build_view(self, month: int, rows: List[dict]) -> MonthView:
        n = len(rows)
        esld_of = self._esld_of

        # Pass 1: the cross-section tallies the entity rules read
        # (paper §4.3.1).  The column path has no use for the DNS
        # verdict, so NS hostnames are not tallied.
        tallies = EntityTallies()
        row_slds: List[List[str]] = []
        row_ips: List[List[str]] = []
        for row in rows:
            slds = eslds(row["mx_hostnames"], esld_of)
            ips = [ip for obs in row["mx_observations"]
                   for ip in obs["addresses"]]
            row_slds.append(slds)
            row_ips.append(ips)
            tallies.add(slds, ips, (), row["mx_hostnames"],
                        row["policy_host_addresses"],
                        row["policy_host_cname"] is not None)

        # Pass 2: every per-row column in one sweep; each derived value
        # is computed exactly once (and memoised per distinct input).
        view = MonthView(
            month_index=month, store=self, n=n,
            domain_ids=array("q", bytes(8 * n)), row_of_domain={},
            sts=bytearray(n), transient=bytearray(n), stage=bytearray(n),
            syntax=bytearray(n), enforce=bytearray(n),
            categories=bytearray(n), bucket=bytearray(n),
            consistent=bytearray(n), delivery_failure=bytearray(n),
            any_invalid=bytearray(n), all_invalid=bytearray(n),
            cert_classes=[()] * n,
            policy_entity=bytearray(n), mx_entity=bytearray(n),
            both_outsourced=bytearray(n), same_provider=bytearray(n),
            mismatch=bytearray(n),
            provider_ids=array("q", bytes(8 * n)), provider_examples={},
            patterns_ids=array("q", bytes(8 * n)),
            hosts_ids=array("q", bytes(8 * n)))

        for i, row in enumerate(rows):
            domain = row["domain"]
            did = self._domain_id(domain)
            view.domain_ids[i] = did
            view.row_of_domain[did] = i

            sts = bool(row["sts_like"])
            view.sts[i] = sts
            mx_hosts = row["mx_hostnames"]
            patterns = row["mx_patterns"]
            pid = self._tuple_id(tuple(patterns))
            hid = self._tuple_id(tuple(mx_hosts))
            view.patterns_ids[i] = pid
            view.hosts_ids[i] = hid
            observations = row["mx_observations"]

            transient = bool(row["dns_transient"] or row["policy_transient"]
                             or any(obs["transient"]
                                    for obs in observations))
            view.transient[i] = transient

            stage_name = row["policy_fetch_stage"]
            stage_code = (0 if stage_name is None
                          else self._intern_stage(stage_name))
            view.stage[i] = stage_code
            syntax = bool(row["policy_syntax_errors"])
            view.syntax[i] = syntax
            policy_ok = stage_name is None and not syntax

            enforce = row["policy_mode"] == "enforce"
            view.enforce[i] = enforce

            capable = [obs for obs in observations
                       if obs["tls_established"]]
            any_invalid = any(not obs["cert_valid"] for obs in capable)
            view.any_invalid[i] = any_invalid
            view.all_invalid[i] = bool(capable) and all(
                not obs["cert_valid"] for obs in capable)
            if any_invalid:
                view.cert_classes[i] = tuple(sorted(
                    {obs["failure_class"] for obs in capable
                     if not obs["cert_valid"]}))

            consistent = True
            if policy_ok and mx_hosts and patterns:
                consistent = self._covers_any(pid, hid)
            view.consistent[i] = consistent

            if enforce and policy_ok and mx_hosts:
                matching = [mx for mx in mx_hosts
                            if self._covers_one(pid, mx)]
                if not matching:
                    view.delivery_failure[i] = True
                else:
                    observed = {obs["hostname"]: obs
                                for obs in observations}
                    usable = [observed[mx] for mx in matching
                              if mx in observed
                              and observed[mx]["tls_established"]]
                    view.delivery_failure[i] = bool(usable) and all(
                        not obs["cert_valid"] for obs in usable)

            bits = 0
            if sts:
                if not row["record_valid"]:
                    bits |= _CATEGORY_BIT[MisconfigCategory.DNS_RECORD]
                if stage_name is not None or syntax:
                    bits |= _CATEGORY_BIT[MisconfigCategory.POLICY_RETRIEVAL]
                if any_invalid:
                    bits |= _CATEGORY_BIT[MisconfigCategory.MX_CERTIFICATE]
                if not consistent:
                    bits |= _CATEGORY_BIT[MisconfigCategory.INCONSISTENCY]
            view.categories[i] = bits

            if transient:
                view.bucket[i] = _B_TRANSIENT
            elif not sts:
                view.bucket[i] = _B_NOT_STS
            else:
                bucket = _B_OK
                for category in _CATEGORY_ORDER:
                    if bits & _CATEGORY_BIT[category]:
                        bucket = _BUCKET_CODE[category.value]
                        break
                view.bucket[i] = bucket

            if policy_ok and patterns and mx_hosts:
                view.mismatch[i] = self._mismatch_code(pid, hid)

            own = self._own_of(domain)
            mx_entity, mx_sld = tallies.mx_entity(own, row_slds[i],
                                                  row_ips[i])
            cname = row["policy_host_cname"]
            policy_entity, policy_sld = tallies.policy_entity(
                own, sts, esld_of(cname) if cname else None,
                row["policy_host_addresses"])
            verdict = EntityVerdict(domain, mx=mx_entity,
                                    policy=policy_entity,
                                    mx_provider_sld=mx_sld,
                                    policy_provider_sld=policy_sld)
            view.mx_entity[i] = _ENTITY_CODE[mx_entity]
            view.policy_entity[i] = _ENTITY_CODE[policy_entity]
            view.both_outsourced[i] = verdict.both_outsourced
            view.same_provider[i] = verdict.same_provider

            provider = self._provider_of(domain, cname)
            if provider is None:
                view.provider_ids[i] = -1
            else:
                provider_id = self._intern_provider(provider)
                view.provider_ids[i] = provider_id
                if provider_id not in view.provider_examples:
                    view.provider_examples[provider_id] = cname or ""
        return view


def view_of(snapshots: Iterable["DomainSnapshot"]) -> MonthView:
    """One cross-section of snapshots, in the given order, as columns:
    the input of the object-list adapters.  The month is the first
    snapshot's (0 for none)."""
    rows = [snapshot.to_dict() for snapshot in snapshots]
    month = rows[0]["month_index"] if rows else 0
    return ColumnarStore()._build_view(month, rows)


# ---------------------------------------------------------------------------
# The month aggregations
# ---------------------------------------------------------------------------

def snapshot_summary_view(view: MonthView) -> SnapshotSummary:
    """Every per-month count behind Figures 4-7.  Snapshots carrying
    transient markers are tallied in ``summary.transient`` and dropped
    before attribution: a scan that lost a domain to network faults
    has no reliable observation to classify."""
    store = view.store
    transient_count = sum(view.transient)
    total_sts = sum(1 for i in range(view.n)
                    if view.sts[i] and not view.transient[i])
    summary = SnapshotSummary(
        month_index=view.month_index if view.n else 0,
        total_sts=total_sts, transient=transient_count)
    for i in range(view.n):
        if not view.sts[i] or view.transient[i]:
            continue
        bits = view.categories[i]
        if bits:
            summary.misconfigured += 1
            for category in _CATEGORY_ORDER:
                if bits & _CATEGORY_BIT[category]:
                    summary.category_counts[category.value] += 1
        if view.delivery_failure[i]:
            summary.delivery_failures += 1

        policy_entity = ENTITY_KEYS[view.policy_entity[i]]
        summary.policy_entity_totals[policy_entity] += 1
        if view.stage[i]:
            summary.policy_errors_by_entity[policy_entity][
                store.stage_name(view.stage[i])] += 1
        elif view.syntax[i]:
            summary.policy_errors_by_entity[policy_entity][
                "policy-syntax"] += 1

        mx_entity = ENTITY_KEYS[view.mx_entity[i]]
        summary.mx_entity_totals[mx_entity] += 1
        if view.any_invalid[i]:
            summary.mx_invalid_by_entity[mx_entity] += 1
            for failure_class in view.cert_classes[i]:
                summary.mx_cert_by_entity[mx_entity][failure_class] += 1
            if view.all_invalid[i]:
                summary.all_invalid_mx += 1
            else:
                summary.partially_invalid_mx += 1
            if view.enforce[i] and view.all_invalid[i]:
                summary.enforce_invalid_mx += 1

        if not view.consistent[i]:
            summary.inconsistent += 1
            if view.enforce[i]:
                summary.enforce_inconsistent += 1
    return summary


def taxonomy_census_view(view: MonthView) -> Dict[str, int]:
    """The total-and-exclusive ``primary_bucket`` census of one month,
    in :data:`PRIMARY_BUCKETS` order (the monitor registry's order)."""
    census = {bucket: 0 for bucket in PRIMARY_BUCKETS}
    for code in view.bucket:
        census[PRIMARY_BUCKETS[code]] += 1
    return census


def mismatch_census_view(view: MonthView) -> dict:
    """One month's Figure-8 row: counts per mismatch class plus the
    enforce-mode exposure."""
    counts = {cls: 0 for cls in MismatchClass}
    enforce = 0
    total_sts = 0
    for i in range(view.n):
        if not view.sts[i]:
            continue
        total_sts += 1
        code = view.mismatch[i]
        if not code:
            continue
        counts[_MISMATCH_CLASSES[code - 1]] += 1
        if view.enforce[i]:
            enforce += 1
    return {"total_sts": total_sts, "counts": counts, "enforce": enforce}


def delegation_census_view(view: MonthView, top: int = 8) -> List[dict]:
    """Table 2's left columns: the top policy hosting providers.  The
    Counter is filled in row (sorted-domain) order, so ``most_common``
    breaks count ties by first appearance."""
    counts: Counter = Counter()
    for provider_id in view.provider_ids:
        if provider_id >= 0:
            counts[provider_id] += 1
    rows = []
    for provider_id, count in counts.most_common(top):
        rows.append({
            "provider_sld": view.store.provider_name(provider_id),
            "domains": count,
            "cname_example": view.provider_examples[provider_id]})
    return rows


def outsourcing_census_view(view: MonthView) -> dict:
    """One month's Figure-10 row: among domains whose MX and policy
    hosting are both third-party, how many are inconsistent when one
    provider runs both versus when two different providers do."""
    same_total = same_bad = diff_total = diff_bad = 0
    for i in range(view.n):
        if not view.both_outsourced[i]:
            continue
        inconsistent = 1 if view.mismatch[i] else 0
        if view.same_provider[i]:
            same_total += 1
            same_bad += inconsistent
        else:
            diff_total += 1
            diff_bad += inconsistent
    return {
        "month_index": view.month_index,
        "same_total": same_total, "same_bad": same_bad,
        "same_pct": 100.0 * same_bad / same_total if same_total else 0.0,
        "diff_total": diff_total, "diff_bad": diff_bad,
        "diff_pct": 100.0 * diff_bad / diff_total if diff_total else 0.0,
    }


def historical_series_view(store: ColumnarStore) -> List[dict]:
    """Figure 9 over every month of *store*.

    For each month's complete-domain-mismatch candidates, walk the
    domain's earlier months (ascending) and ask whether the *current*
    patterns cover any earlier MX set — all through the interned
    tuple dictionary, so each (patterns, hosts) pair is matched once
    campaign-wide."""
    months = store.months()
    rows = []
    for month in months:
        view = store.month_view(month)
        candidates = [i for i in range(view.n)
                      if view.mismatch[i] == _DOMAIN_MISMATCH_CODE]
        matched = 0
        for i in candidates:
            patterns_id = view.patterns_ids[i]
            domain_id = view.domain_ids[i]
            for earlier_month in months:
                if earlier_month >= month:
                    break
                earlier = store.month_view(earlier_month)
                j = earlier.row_of_domain.get(domain_id)
                if j is None:
                    continue
                hosts_id = earlier.hosts_ids[j]
                if hosts_id == store._empty_tuple:
                    continue
                if store._covers_any(patterns_id, hosts_id):
                    matched += 1
                    break
        rows.append({
            "month_index": month,
            "candidates": len(candidates),
            "matched": matched,
            "percent": (100.0 * matched / len(candidates)
                        if candidates else 0.0),
        })
    return rows
