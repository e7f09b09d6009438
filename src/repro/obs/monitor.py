"""Feed health monitoring, driven by rule tables.

The paper's contribution is month-over-month dynamics (Fig. 9, §5) —
which makes the campaign itself a measurement instrument that can
silently degrade.  A transient-rate spike is indistinguishable from an
ecosystem regression unless the scanner's own health is tracked;
related large-scale scans (Mayer et al., Czybik et al.) all monitor
their pipelines for exactly this reason.  The delivery engine, the
``repro serve`` checker and the TLSRPT receiver need the same watch.

One :class:`FeedMonitor` serves them all.  It holds
:class:`FeedRecord` snapshots — an index, a date and a deterministic
:class:`~repro.trace.MetricsRegistry` per scan month, delivery wave or
metrics window — keeps their JSONL feed (live appends, atomic full
writes, offline re-reads), and evaluates its subclass's rule table
into a :class:`HealthReport` of OK/WARN/ALERT findings.  A
:class:`Rule` reads one :class:`Signal` (a counter, a counter ratio,
or a histogram's p99) over one scope (the record, the cumulative
totals, or the change since the previous record) and holds it against
one :class:`Bound` per level.  The threshold classes
(:class:`Thresholds`, :class:`DeliveryThresholds`,
:class:`ServeThresholds`) and the CLI threshold flags are generated
from the bounds, so a bound's name, default, kind and help text are
written once.

The subclasses keep only their own capture code:
:class:`CampaignMonitor` (:func:`build_month_registry`, the drift
table, re-evaluation from a campaign store), :class:`DeliveryMonitor`
(the backpressure bound from the campaign config) and
:class:`ServeMonitor`; the TLSRPT monitor lives in
:mod:`repro.obs.tlsrpt_monitor`.

Everything recorded here is an integer (or a rounded-to-milliseconds
virtual duration), so every feed inherits its workload's
run-to-run byte-identity.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass, field, fields, make_dataclass
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple, Union,
)

from repro.measurement.taxonomy import PRIMARY_BUCKETS
from repro.obs.exporters import (
    append_jsonl_line, month_jsonl_line, read_month_records,
    write_lines_atomic,
)
from repro.trace import MetricsRegistry

if TYPE_CHECKING:
    from repro.measurement.executor import ScanStats
    from repro.measurement.snapshots import DomainSnapshot

__all__ = [
    "OK", "WARN", "ALERT",
    "RECORD", "CUMULATIVE", "CHANGE", "UP", "DOWN", "EITHER",
    "RATE", "NUMBER", "COUNT",
    "Signal", "Bound", "Rule", "make_threshold_class",
    "FeedRecord", "HealthFinding", "HealthReport", "FeedMonitor",
    "Thresholds", "CampaignMonitor", "build_month_registry",
    "DeliveryThresholds", "DeliveryMonitor",
    "ServeThresholds", "ServeMonitor",
]

OK, WARN, ALERT = "OK", "WARN", "ALERT"
_SEVERITY = {OK: 0, WARN: 1, ALERT: 2}

#: Rule scopes: the record alone, the totals of every record so far,
#: or the change since the previous record.
RECORD, CUMULATIVE, CHANGE = "record", "cumulative", "change"
#: The direction a rule guards against: the signal (or its change)
#: going up, going down, or moving either way.
UP, DOWN, EITHER = "up", "down", "either"
#: Bound value kinds: a rate in [0, 1], a finite non-negative number,
#: a positive integer.
RATE, NUMBER, COUNT = "rate", "number", "count"


# ---------------------------------------------------------------------------
# The rule table vocabulary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signal:
    """A number read off one registry: the sum of *counters*, that sum
    over the sum of the *over* counters (0.0 when they are zero), or
    the p99 of histogram *p99_of* (0.0 when it is absent)."""

    counters: Tuple[str, ...] = ()
    over: Tuple[str, ...] = ()
    p99_of: Optional[str] = None

    def read(self, metrics: MetricsRegistry) -> float:
        if self.p99_of is not None:
            histogram = metrics.histograms.get(self.p99_of)
            return histogram.quantile(0.99) if histogram is not None else 0.0
        value = sum(metrics.get(key) for key in self.counters)
        if not self.over:
            return value
        total = sum(metrics.get(key) for key in self.over)
        return value / total if total else 0.0


@dataclass(frozen=True)
class Bound:
    """One bound of a rule: the level a crossing raises, and the name,
    default, value kind, help text and (optional) CLI metavar of its
    threshold.  A bound without a default is not a threshold: the
    monitor attribute of that name supplies it, and ``None`` there
    disarms it."""

    level: str
    name: str
    default: Optional[float] = None
    kind: str = RATE
    help: str = ""
    metavar: Optional[str] = None


@dataclass(frozen=True)
class Rule:
    """One health check of a monitor's rule table.

    *signal* is one :class:`Signal`, or a mapping from key to signal
    that expands the rule over its keys (``{key}`` in *metric* and
    *detail* names the key).  The bounds are tried from the most severe
    down; the first one crossed raises the finding.  *detail* is a
    :meth:`str.format` template over ``value`` (the measured value),
    ``bound``, ``key``, ``change`` and ``previous`` (the signed change
    and the previous record's index, for change rules) and ``metrics``
    (the record's counters, by key).
    """

    metric: str
    scope: str
    signal: Union[Signal, Mapping[str, Signal]]
    bad: str
    bounds: Tuple[Bound, ...]
    detail: str

    def signals(self) -> Iterable[Tuple[Optional[str], Signal]]:
        if isinstance(self.signal, Signal):
            return ((None, self.signal),)
        return self.signal.items()

    def measure(self, now: float, before: Optional[float]) -> float:
        """The value held against the bounds: the signal itself, or
        for a change rule its rise, its fall, or its move either way."""
        if self.scope != CHANGE:
            return now
        if self.bad == UP:
            return now - before
        if self.bad == DOWN:
            return before - now
        return abs(now - before)

    def crossed(self, measured: float, bound: float) -> bool:
        if self.scope != CHANGE and self.bad == DOWN:
            return measured < bound
        return measured > bound


def make_threshold_class(name: str, rules: Iterable[Rule],
                         doc: str) -> type:
    """The threshold dataclass of a rule table: one field per bound
    with a default, in table order.  The class keeps the bounds as
    ``bounds`` (the CLI generates its flags from them)."""
    bounds = tuple(bound for rule in rules for bound in rule.bounds
                   if bound.default is not None)

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    return make_dataclass(
        name, [(bound.name, type(bound.default),
                field(default=bound.default)) for bound in bounds],
        namespace={"__doc__": doc, "__module__":
                   sys._getframe(1).f_globals["__name__"],
                   "bounds": bounds, "as_dict": as_dict})


# ---------------------------------------------------------------------------
# Records, findings, reports
# ---------------------------------------------------------------------------

@dataclass
class FeedRecord:
    """One record of a metrics feed: a scan month, a delivery wave or a
    metrics window."""

    index: int
    date: str
    metrics: MetricsRegistry

    @property
    def month_index(self) -> int:
        """The index under the feed's JSON key, ``month``."""
        return self.index


@dataclass
class HealthFinding:
    """One evaluated check: what was measured, against which bound."""

    level: str
    index: int
    metric: str
    value: float
    threshold: float
    detail: str

    def render(self, unit: str) -> str:
        return (f"[{self.level:<5}] {unit[0]}{self.index:02d} "
                f"{self.metric:<24} {self.detail}")


@dataclass
class HealthReport:
    """Every OK/WARN/ALERT finding of one monitor's evaluation, under
    the monitor's name and unit of record."""

    name: str
    unit: str
    findings: List[HealthFinding] = field(default_factory=list)

    @property
    def level(self) -> str:
        worst = OK
        for finding in self.findings:
            if _SEVERITY[finding.level] > _SEVERITY[worst]:
                worst = finding.level
        return worst

    def ok(self) -> bool:
        return self.level == OK

    def at_level(self, level: str) -> List[HealthFinding]:
        return [f for f in self.findings if f.level == level]

    def render(self) -> str:
        lines = [f"{self.name} health: {self.level} "
                 f"({len(self.at_level(ALERT))} alert(s), "
                 f"{len(self.at_level(WARN))} warning(s), "
                 f"{len(self.at_level(OK))} {self.unit}(s) clean)"]
        lines.extend(finding.render(self.unit) for finding in self.findings)
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {"level": self.level,
                "findings": [{"level": f.level, "month": f.index,
                              "metric": f.metric, "value": f.value,
                              "threshold": f.threshold,
                              "detail": f.detail}
                             for f in self.findings]}


# ---------------------------------------------------------------------------
# The monitor
# ---------------------------------------------------------------------------

class FeedMonitor:
    """Collects feed records and evaluates the subclass's rule table.

    ``jsonl_path`` turns on the live feed: every added record is
    appended to that file as it arrives, so a crashed run still leaves
    the records it finished.  :meth:`write_jsonl` writes the whole feed
    atomically (temp file + ``os.replace``); :meth:`from_jsonl` reads
    it back for offline re-evaluation.
    """

    #: set by each subclass: the report title, the unit of record, the
    #: rule table, the threshold class made from it, and the detail
    #: template of a clean record's OK row (``metrics`` by key)
    name: str
    unit: str
    rules: Tuple[Rule, ...]
    threshold_class: type
    ok_detail: str

    def __init__(self, thresholds=None, *,
                 jsonl_path: Optional[str] = None):
        self.thresholds = thresholds or self.threshold_class()
        self.records: List[FeedRecord] = []
        self.jsonl_path = jsonl_path

    # -- capture ------------------------------------------------------

    def add_record(self, record: FeedRecord) -> FeedRecord:
        self.records.append(record)
        self.records.sort(key=lambda r: r.index)
        if self.jsonl_path is not None:
            append_jsonl_line(
                self.jsonl_path,
                month_jsonl_line(record.index, record.date, record.metrics))
        return record

    # -- (de)serialisation --------------------------------------------

    def to_jsonl_lines(self) -> List[str]:
        return [month_jsonl_line(r.index, r.date, r.metrics)
                for r in self.records]

    def to_jsonl(self) -> str:
        return "\n".join(self.to_jsonl_lines()) + "\n"

    def write_jsonl(self, path: str) -> int:
        """Atomically write the full feed; returns the record count."""
        return write_lines_atomic(path, self.to_jsonl_lines())

    @classmethod
    def from_jsonl(cls, text: str, thresholds=None, **options):
        """A monitor over a saved feed; *options* go to the
        constructor."""
        monitor = cls(thresholds, **options)
        monitor.records = [FeedRecord(index, date, registry)
                           for index, date, registry
                           in read_month_records(text)]
        return monitor

    # -- evaluation ---------------------------------------------------

    def _limit(self, bound: Bound) -> Optional[float]:
        """The value *bound* takes in this monitor (``None``: unarmed)."""
        if bound.default is None:
            return getattr(self, bound.name)
        return getattr(self.thresholds, bound.name)

    def health(self) -> HealthReport:
        """Evaluate the rule table over every record; every input is an
        integer counter or an integer-bucket histogram, so the report
        is byte-identical across backends."""
        report = HealthReport(self.name, self.unit)
        cumulative = MetricsRegistry()
        previous: Optional[FeedRecord] = None
        for record in self.records:
            cumulative.merge(record.metrics)
            findings: List[HealthFinding] = []
            for rule in self.rules:
                if rule.scope == CHANGE and previous is None:
                    continue
                read_from = (cumulative if rule.scope == CUMULATIVE
                             else record.metrics)
                for key, signal in rule.signals():
                    now = signal.read(read_from)
                    before = (signal.read(previous.metrics)
                              if rule.scope == CHANGE else None)
                    finding = self._check(rule, key, record, previous,
                                          now, before)
                    if finding is not None:
                        findings.append(finding)
            if not findings:
                findings.append(HealthFinding(
                    OK, record.index, "all-checks", 0.0, 0.0,
                    self.ok_detail.format(metrics=_counters(record))))
            report.findings.extend(findings)
            previous = record
        return report

    def _check(self, rule: Rule, key: Optional[str], record: FeedRecord,
               previous: Optional[FeedRecord], now: float,
               before: Optional[float]) -> Optional[HealthFinding]:
        measured = rule.measure(now, before)
        for bound in sorted(rule.bounds,
                            key=lambda b: -_SEVERITY[b.level]):
            limit = self._limit(bound)
            if limit is None or not rule.crossed(measured, limit):
                continue
            return HealthFinding(
                bound.level, record.index, rule.metric.format(key=key),
                measured, limit, rule.detail.format(
                    value=measured, bound=limit, key=key,
                    change=None if before is None else now - before,
                    previous=None if previous is None else previous.index,
                    metrics=_counters(record)))
        return None


def _counters(record: FeedRecord) -> Dict[str, int]:
    """The record's counters for detail templates (missing keys read 0)."""
    return defaultdict(int, record.metrics.counters)


# ---------------------------------------------------------------------------
# Campaign health
# ---------------------------------------------------------------------------

#: ScanStats integer counters mirrored into the monthly registry, by
#: (stats attribute, registry key).  Wall-clock fields are deliberately
#: absent — they would break run-to-run byte-identity.
_STAT_COUNTERS = (
    ("domains_scanned", "scan.domains"),
    ("transient_domains", "scan.transient_domains"),
    ("dns_queries", "dns.queries"),
    ("dns_cache_hits", "dns.cache_hits"),
    ("dns_negative_cache_hits", "dns.negative_cache_hits"),
    ("policy_fetches", "policy.fetches"),
    ("smtp_probes", "smtp.probes"),
    ("smtp_probe_cache_hits", "smtp.cache_hits"),
    ("pkix_validations", "pkix.validations"),
    ("pkix_cache_hits", "pkix.cache_hits"),
    ("connect_retries", "net.connect_retries"),
    ("faults_injected", "net.faults_injected"),
)


def build_month_registry(stats: "ScanStats",
                         *, build_stats: Optional[Dict[str, int]] = None,
                         bucket_census: Optional[Dict[str, int]] = None,
                         ) -> MetricsRegistry:
    """The deterministic metrics snapshot for one scan month.

    Combines the executor's integer :class:`ScanStats` counters, the
    month's total-and-exclusive taxonomy-bucket census
    (:func:`~repro.measurement.columnar.taxonomy_census_view`; absent
    buckets count 0), and (when given) the materialiser's world-build
    churn.  Virtual backoff is recorded in whole milliseconds: the
    underlying float sum is order-sensitive in its last bits across
    thread interleavings, integer milliseconds are not.
    """
    registry = MetricsRegistry()
    for attribute, key in _STAT_COUNTERS:
        registry.count(key, getattr(stats, attribute))
    registry.count("net.backoff_millis",
                   round(stats.retry_backoff_seconds * 1_000))
    census = bucket_census or {}
    for bucket in PRIMARY_BUCKETS:
        registry.count(f"taxonomy.{bucket}", int(census.get(bucket, 0)))
    for key, value in sorted((build_stats or {}).items()):
        registry.count(f"build.{key}", int(value))
    return registry


#: The campaign signals, shared by the rules and the drift table.
TRANSIENT_RATE = Signal(("scan.transient_domains",), over=("scan.domains",))
RETRIES_PER_DOMAIN = Signal(("net.connect_retries",), over=("scan.domains",))
#: cache hit share (hits over work plus hits), by stage
CACHE_HIT_RATE = {
    stage: Signal((f"{stage}.cache_hits",),
                  over=(work, f"{stage}.cache_hits"))
    for stage, work in (("dns", "dns.queries"), ("smtp", "smtp.probes"))}
BUCKET_SHARE = {bucket: Signal((f"taxonomy.{bucket}",), over=("scan.domains",))
                for bucket in sorted(PRIMARY_BUCKETS)}

CAMPAIGN_RULES = (
    Rule("transient-rate", RECORD, TRANSIENT_RATE, UP,
         (Bound(ALERT, "transient_rate_alert", 0.02,
                help="ALERT when a month's transient share exceeds R"),),
         "transient share {value:.2%} exceeds {bound:.2%} — scanner or "
         "network pathology, month is untrustworthy"),
    Rule("transient-rate-jump", CHANGE, TRANSIENT_RATE, UP,
         (Bound(ALERT, "transient_jump_alert", 0.01,
                help="ALERT when the transient share jumps by more than "
                     "R month-over-month"),),
         "transient share jumped {value:+.2%} vs m{previous:02d}"),
    Rule("{key}-cache-collapse", CHANGE, CACHE_HIT_RATE, DOWN,
         (Bound(WARN, "cache_hit_drop_warn", 0.25,
                help="WARN when a cache hit rate drops by more than R "
                     "month-over-month"),),
         "{key} cache hit rate dropped {value:.2%} vs m{previous:02d}"),
    Rule("taxonomy-shift:{key}", CHANGE, BUCKET_SHARE, EITHER,
         (Bound(WARN, "bucket_shift_warn", 0.15,
                help="WARN when a taxonomy bucket's share moves by more "
                     "than R month-over-month"),),
         "bucket '{key}' moved {change:+.2%} vs m{previous:02d}"),
    Rule("retry-spike", CHANGE, RETRIES_PER_DOMAIN, UP,
         (Bound(WARN, "retry_jump_warn", 0.5, NUMBER,
                help="WARN when connect retries per domain jump by more "
                     "than N month-over-month"),),
         "connect retries per domain jumped {value:+.2f} vs "
         "m{previous:02d}"),
)

Thresholds = make_threshold_class(
    "Thresholds", CAMPAIGN_RULES,
    """Campaign drift bounds; defaults calibrated so the clean 12-month
    campaign is all-OK while a seeded fault-rate bump alerts.""")


class CampaignMonitor(FeedMonitor):
    """Per-month registry snapshots of a scan campaign, with drift.

    Hooks into :func:`repro.analysis.series.run_campaign`; saved feeds
    re-evaluate offline through :meth:`from_jsonl` and checkpointed
    campaigns through :meth:`from_state` (the CLI ``monitor``
    subcommand).
    """

    name, unit = "campaign", "month"
    rules = CAMPAIGN_RULES
    threshold_class = Thresholds
    ok_detail = "{metrics[scan.domains]} domains, all checks passed"

    def observe_month(self, month_index: int, date: str,
                      stats: "ScanStats",
                      snapshots: Iterable["DomainSnapshot"] = (),
                      *, build_stats: Optional[Dict[str, int]] = None,
                      bucket_census: Optional[Dict[str, int]] = None,
                      ) -> FeedRecord:
        """Snapshot one finished scan month into the monitor.

        *bucket_census* is the month's
        :func:`~repro.measurement.columnar.taxonomy_census_view`;
        without it the census is taken from *snapshots* through the
        same port.
        """
        if bucket_census is None:
            from repro.measurement.columnar import (
                taxonomy_census_view, view_of,
            )
            bucket_census = taxonomy_census_view(view_of(snapshots))
        registry = build_month_registry(stats, build_stats=build_stats,
                                        bucket_census=bucket_census)
        return self.add_record(FeedRecord(month_index, date, registry))

    @classmethod
    def from_state(cls, state_dir: str,
                   thresholds=None) -> "CampaignMonitor":
        """Re-evaluate campaign health from a checkpointed state dir.

        Each committed month's registry is rebuilt from the manifest's
        persisted :class:`ScanStats` counters, the taxonomy census of
        the month's shard (decoded straight to columns), and the
        recorded world-build churn — exactly the inputs
        :meth:`observe_month` saw live, so the monthly feed (and
        therefore drift and health) is byte-identical to the feed the
        original campaign would have written.
        """
        from repro.measurement.columnar import (
            ColumnarStore, taxonomy_census_view,
        )
        from repro.measurement.executor import ScanStats

        monitor = cls(thresholds)
        columns = ColumnarStore.from_state_dir(state_dir)
        for month in columns.months():
            entry = columns.entries[month]
            monitor.observe_month(
                month, entry.date, ScanStats.from_dict(entry.stats),
                build_stats=entry.build_stats,
                bucket_census=taxonomy_census_view(
                    columns.month_view(month)))
        return monitor

    def drift(self) -> List[Dict[str, float]]:
        """Month-over-month signal table (one row per month)."""
        rows: List[Dict[str, float]] = []
        previous: Optional[FeedRecord] = None
        for record in self.records:
            metrics = record.metrics
            row: Dict[str, float] = {
                "month": record.index,
                "domains": metrics.get("scan.domains"),
                "transient_rate": TRANSIENT_RATE.read(metrics),
                "dns_hit_rate": CACHE_HIT_RATE["dns"].read(metrics),
                "smtp_hit_rate": CACHE_HIT_RATE["smtp"].read(metrics),
                "retries_per_domain": RETRIES_PER_DOMAIN.read(metrics),
                "backoff_millis": metrics.get("net.backoff_millis"),
            }
            if previous is not None:
                before = previous.metrics
                row["transient_jump"] = (row["transient_rate"]
                                         - TRANSIENT_RATE.read(before))
                row["max_bucket_shift"] = max(
                    abs(share.read(metrics) - share.read(before))
                    for share in BUCKET_SHARE.values())
            rows.append(row)
            previous = record
        return rows


# ---------------------------------------------------------------------------
# Delivery-campaign health
# ---------------------------------------------------------------------------

#: Rates are *cumulative*: a per-wave bounce rate would false-alarm on
#: the sparse tail waves where only stragglers bounce; the cumulative
#: rate converges to the campaign's true rate.
DELIVERY_RULES = (
    Rule("backpressure-violated", RECORD,
         Signal(("deliver.queue_depth",)), UP,
         (Bound(ALERT, "backpressure"),),
         "queue depth {value} exceeds the campaign bound {bound} — "
         "admission control is broken"),
    Rule("bounce-rate", CUMULATIVE,
         Signal(("deliver.bounced",), over=("deliver.finalized",)), UP,
         (Bound(ALERT, "bounce_rate_alert", 0.35,
                help="ALERT when the cumulative bounce share exceeds R"),),
         "cumulative bounce share {value:.2%} exceeds {bound:.2%}"),
    Rule("plaintext-fallback", CUMULATIVE,
         Signal(("deliver.delivered_plaintext",),
                over=("deliver.delivered",)), UP,
         (Bound(WARN, "plaintext_rate_warn", 0.25,
                help="WARN when the cumulative plaintext delivery share "
                     "exceeds R"),),
         "cumulative plaintext share {value:.2%} of deliveries exceeds "
         "{bound:.2%} — downgrade exposure"),
    Rule("policy-refusals", CUMULATIVE,
         Signal(("deliver.refused_attempts",), over=("deliver.attempts",)),
         UP,
         (Bound(WARN, "refused_rate_warn", 0.30,
                help="WARN when the cumulative policy-refusal share of "
                     "attempts exceeds R"),),
         "cumulative policy-refused share {value:.2%} of attempts exceeds "
         "{bound:.2%}"),
)

DeliveryThresholds = make_threshold_class(
    "DeliveryThresholds", DELIVERY_RULES,
    """Delivery-campaign health bounds over cumulative rates; defaults
    calibrated so a clean campaign against the simulated world is all-OK
    while a heavily fault-seeded one surfaces findings.""")


class DeliveryMonitor(FeedMonitor):
    """Per-wave registry snapshots of a delivery campaign.

    The registries carry only per-sender-derived integer counters (see
    ``repro.measurement.delivery_campaign``), so the wave feed is
    byte-identical between runs of one campaign config.
    *backpressure*, when given, arms the invariant check that no wave
    ever reports a queue depth above the campaign's global bound.
    """

    name, unit = "delivery", "wave"
    rules = DELIVERY_RULES
    threshold_class = DeliveryThresholds
    ok_detail = "{metrics[deliver.finalized]} finalized, all checks passed"

    def __init__(self, thresholds=None, *,
                 backpressure: Optional[int] = None,
                 jsonl_path: Optional[str] = None):
        super().__init__(thresholds, jsonl_path=jsonl_path)
        self.backpressure = backpressure

    def observe_wave(self, wave_index: int, date: str,
                     metrics: MetricsRegistry) -> FeedRecord:
        return self.add_record(FeedRecord(wave_index, date, metrics))


# ---------------------------------------------------------------------------
# Policy-checker service health
# ---------------------------------------------------------------------------

#: The hit-rate floor is cumulative (early windows are all cold misses —
#: a per-window floor would false-alarm before the cache warms); latency
#: and fan-in are per window, since a p99 regression in one window is
#: actionable on its own.  The single-flight cache makes even a flash
#: crowd one computation, so the fan-in bound watches *workload*
#: spikes, not wasted work.
SERVE_RULES = (
    Rule("hit-rate-floor", CUMULATIVE,
         Signal(("serve.hits", "serve.collapsed"), over=("serve.requests",)),
         DOWN,
         (Bound(WARN, "hit_rate_floor_warn", 0.60,
                help="WARN when the cumulative cache hit rate falls "
                     "below R"),),
         "cumulative cache hit rate {value:.2%} below {bound:.2%} — the "
         "verdict cache is not absorbing the query mix"),
    Rule("p99-latency", RECORD, Signal(p99_of="serve.latency"), UP,
         (Bound(ALERT, "p99_latency_alert", 5.0, NUMBER, metavar="S",
                help="ALERT when a window's p99 virtual latency exceeds "
                     "S seconds"),),
         "window p99 virtual latency {value:.3f}s exceeds {bound:.3f}s"),
    Rule("stampede-fanin", RECORD,
         Signal(("serve.stampede_fanin_peak",)), UP,
         (Bound(WARN, "fanin_warn", 50_000, COUNT,
                help="WARN when one computation absorbs more than N "
                     "concurrent requests"),),
         "{value} concurrent requests collapsed onto one computation "
         "(bound {bound})"),
)

ServeThresholds = make_threshold_class(
    "ServeThresholds", SERVE_RULES,
    """Policy-checker service health bounds; defaults calibrated so the
    default seeded query mix is all-OK.""")


class ServeMonitor(FeedMonitor):
    """Per-window registry snapshots of a ``repro serve`` replay.

    The registries carry the coordinator-derived integer counters and
    the virtual-latency histogram from ``repro.measurement.serve`` —
    every value is computed from batch composition on the
    coordinator, so the window feed is byte-identical between runs of
    one serve config.
    """

    name, unit = "serve", "window"
    rules = SERVE_RULES
    threshold_class = ServeThresholds
    ok_detail = "{metrics[serve.requests]} requests, all checks passed"
