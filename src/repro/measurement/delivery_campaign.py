"""Campaign-scale message delivery under MTA-STS enforcement.

The scanner measures recipient deployments; this module exercises the
workload MTA-STS actually protects — high-volume sending.  A
:func:`run_delivery_campaign` enqueues a configurable workload
(thousands of sender domains x messages each) against one materialised
scan month, drives every sender's retrying :class:`~repro.smtp.queue.
MailQueue` under the shared virtual clock, and applies per-delivery
MTA-STS enforcement through each sender's RFC 8461
:class:`~repro.core.cache.PolicyCache` (fetch → proactive refresh →
``max_age`` expiry, TOFU semantics).  Sender behaviour follows the
paper's §6.2 taxonomy via
:func:`~repro.measurement.senderside.synthesize_sender_population`:
~93% purely opportunistic TLS, MTA-STS validators, DANE validators,
and the Postfix-milter cohort that wrongly prefers MTA-STS over DANE.

Determinism is the design centre, mirroring the scan pipeline:

* **wave barriers** — the campaign advances the clock only between
  *waves*.  Within a wave every queue attempt happens at one frozen
  instant, so each delivery outcome is a pure function of (sender
  profile, message, instant), and the lanes run one after another in
  canonical sender order;
* **coordinated admission** — the coordinator decides which (sender,
  seq) messages enter the queues each wave, round-robin over
  canonically sorted senders up to the global ``backpressure`` bound,
  so wave membership depends on nothing but the config;
* **batched wake-ups** — between waves the clock jumps to the minimum
  of every queue's :meth:`~repro.smtp.queue.MailQueue.next_wakeup`,
  rounded up to ``wakeup_seconds`` so thousands of queues coalesce
  onto shared wake-up instants instead of each demanding a clock stop;
* **per-sender counters only** — the byte-identity surface (ledger
  rows, per-wave metrics, health findings) is built exclusively from
  integers derived inside one sender's lane; shared world counters
  (DNS, faults) are reported in :class:`DeliveryStats` but excluded
  from :meth:`DeliveryStats.comparable`.

Two runs of one config therefore produce **byte-identical delivery
ledgers** (canonical JSONL, one row per finalised message), metric
feeds, and health reports — with and without a seeded
:class:`~repro.netsim.network.FaultPlan`, whose transient connect
faults flow into queue retries via the attempt-ordinal passthrough.

State is durable and resumable following the ``store_io`` manifest
protocol: each wave commits a ``wave-XXXX.jsonl`` shard (sha256 in the
manifest) plus a checkpoint of every lane's workload cursor, pending
queue entries, and serialised policy cache; the manifest write is the
commit point, and a resumed campaign replays to the byte-identical
ledger a single run would have written.

With ``tlsrpt=True`` the campaign additionally runs the full RFC 8460
reporting pipeline: every lane's sender feeds a per-lane
:class:`~repro.core.reporting.ReportCollector` (policy fetch errors,
certificate failures, plaintext downgrades, successes), the
coordinator closes each collector's window at virtual-day boundaries
(and once more when the message workload drains), and finished reports
travel through the simulated world to each recipient's published
``rua`` endpoints — ``mailto:`` through a second per-lane
:class:`~repro.smtp.queue.MailQueue` over the lane's protocol-only
transport (so report delivery itself faces the fault layer and
retries; RFC 8460 §3 forbids gating report mail on the very policies
being reported on), ``https:`` through injected
:class:`~repro.core.reporting.ReportInbox` collectors.  After the
campaign a mailbox sweep over the canonically sorted recipient world
feeds a :class:`~repro.core.reporting.ReportAggregator` and a
:class:`~repro.obs.tlsrpt_monitor.TlsRptMonitor`, whose received
report set, window JSONL, and health findings are byte-identical
between runs, clean and fault-seeded.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.clock import DAY, Clock, Duration, Instant
from repro.core.cache import PolicyCache
from repro.core.dane import DaneValidator
from repro.core.fetch import PolicyFetcher
from repro.core.refresh import RefreshDaemon
from repro.core.reporting import ReportAggregator, ReportCollector
from repro.core.sender import MtaStsSender, SenderPolicyConfig
from repro.core.tlsrpt import ResultType, TlsRptReport, lookup_tlsrpt
from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import (
    EcosystemTimeline, TimelineConfig, scan_instant,
)
from repro.errors import StoreCorruption
from repro.fsutil import atomic_write_text, ensure_dir, read_text
from repro.measurement.senderside import (
    SenderProfile, synthesize_sender_population,
)
from repro.measurement.store_io import MANIFEST_NAME, shard_digest
from repro.netsim.network import FaultPlan
from repro.obs.monitor import DeliveryMonitor, DeliveryThresholds, FeedRecord
from repro.obs.progress import ProgressTracker
from repro.obs.tlsrpt_monitor import TlsRptMonitor, TlsRptThresholds
from repro.smtp.delivery import DeliveryStatus, Message, SendingMta
from repro.smtp.queue import MailQueue, QueueEntry, QueueOutcome
from repro.smtp.server import SMTP_PORT
from repro.trace import MetricsRegistry

__all__ = [
    "DELIVERY_SCHEMA_VERSION", "DELIVERY_KIND",
    "DeliveryCampaignConfig", "DeliveryStats", "DeliveryResult",
    "run_delivery_campaign", "read_delivery_manifest",
    "load_delivery_ledger",
]

#: Manifest schema for delivery state dirs (independent of the scan
#: store's version; both currently 1).
DELIVERY_SCHEMA_VERSION = 1
#: The manifest ``kind`` tag that tells a delivery state dir apart
#: from a scan-snapshot one.
DELIVERY_KIND = "delivery-campaign"

import random as _random


@dataclass
class DeliveryCampaignConfig:
    """Everything that determines a delivery campaign's outcome.

    The config is the identity of a campaign: two runs with equal
    configs produce byte-identical ledgers, and a resume refuses a
    state dir committed under a different config.
    """

    scale: float = 0.02            # recipient world scale
    seed: int = 11                 # recipient population seed
    month_index: int = 3           # which scan month to materialise
    senders: int = 120             # sender-domain count (§6.2: 2,394)
    messages_per_sender: int = 4
    sender_seed: int = 20230201    # §6.2 population seed
    backpressure: int = 10_000     # global in-flight bound
    wakeup_seconds: int = 900      # wake-up batching granularity
    fault_seed: Optional[int] = None
    fault_rate: float = 0.2
    #: Run the RFC 8460 reporting pipeline alongside delivery (daily
    #: collector windows, report transport, mailbox-sweep ingestion).
    tlsrpt: bool = False

    def __post_init__(self) -> None:
        scan_instant(self.month_index)
        if self.senders < 1:
            raise ValueError("senders must be >= 1")
        if self.messages_per_sender < 1:
            raise ValueError("messages_per_sender must be >= 1")
        if self.backpressure < 1:
            raise ValueError("backpressure must be >= 1")
        if self.wakeup_seconds < 1:
            raise ValueError("wakeup_seconds must be >= 1")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must be within [0, 1]")

    @property
    def total_messages(self) -> int:
        return self.senders * self.messages_per_sender

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DeliveryCampaignConfig":
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in (data or {}).items()
                      if key in known})


@dataclass
class DeliveryStats:
    """Integer campaign totals plus wall-clock throughput.

    :meth:`comparable` strips everything that may legitimately differ
    between runs — wall-clock timings and the *shared-world* counters
    (DNS, connects, faults), which count only this process's traffic:
    a resumed campaign never re-runs a committed wave, so its world
    counters differ from an uninterrupted run's even though every
    per-lane decision agrees.
    """

    scale: float = 0.0
    seed: int = 0
    month_index: int = 0
    senders: int = 0
    messages: int = 0
    waves: int = 0
    delivered: int = 0
    delivered_plaintext: int = 0
    bounced: int = 0
    attempts: int = 0
    queue_depth_peak: int = 0
    reports_generated: int = 0
    reports_delivered: int = 0
    reports_bounced: int = 0
    reports_received: int = 0
    report_attempts: int = 0
    reports_missing_endpoint: int = 0
    dns_queries: int = 0
    connects: int = 0
    faults_injected: int = 0
    world_build_seconds: float = 0.0
    deliver_seconds: float = 0.0

    _NON_DETERMINISTIC = (
        "dns_queries", "connects", "faults_injected",
        "world_build_seconds", "deliver_seconds",
    )

    @property
    def messages_per_second(self) -> float:
        if self.deliver_seconds <= 0.0:
            return 0.0
        return self.messages / self.deliver_seconds

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["messages_per_second"] = self.messages_per_second
        return data

    def comparable(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in self._NON_DETERMINISTIC}


@dataclass
class DeliveryResult:
    """One finished (or resumed-to-finish) delivery campaign."""

    config: DeliveryCampaignConfig
    stats: DeliveryStats
    #: canonical JSONL — one compact sorted-key row per finalised
    #: message, grouped by wave, sorted by (sender, seq) within a wave
    ledger_text: str
    monitor: DeliveryMonitor
    total_registry: MetricsRegistry
    #: Received TLSRPT reports (mailbox sweep, canonically sorted) —
    #: empty unless the campaign ran with ``tlsrpt=True``.
    tlsrpt_reports: List[TlsRptReport] = field(default_factory=list)
    tlsrpt_monitor: Optional[TlsRptMonitor] = None
    tlsrpt_aggregator: Optional[ReportAggregator] = None

    @property
    def ledger_digest(self) -> str:
        return shard_digest(self.ledger_text)

    @property
    def tlsrpt_reports_jsonl(self) -> str:
        """Canonical JSONL of the received report set — one compact
        sorted-key report per line, the cross-backend identity
        surface."""
        return "".join(report.to_canonical_json() + "\n"
                       for report in self.tlsrpt_reports)

    def health(self):
        return self.monitor.health()


# ---------------------------------------------------------------------------
# Sender lanes
# ---------------------------------------------------------------------------

class _SenderLane:
    """One sender domain's private delivery machinery.

    Everything a lane mutates — queue, cache, wave counters — belongs
    to the lane alone; the wave barrier merges the lanes' integer
    counters, which is order-independent.
    """

    def __init__(self, profile: SenderProfile, world,
                 recipients: Sequence[str],
                 config: DeliveryCampaignConfig):
        self.profile = profile
        self.identity = profile.identity
        self.total = config.messages_per_sender
        self.next_seq = 0
        # The workload is a pure function of (campaign seed, sender
        # identity): runs and resumes always agree on message seq ->
        # recipient.
        rng = _random.Random(f"deliver:{config.seed}:{self.identity}")
        self.recipients = [recipients[rng.randrange(len(recipients))]
                           for _ in range(self.total)]
        fetcher = PolicyFetcher(world.resolver, world.https_client)
        sender_config = SenderPolicyConfig(
            validate_mta_sts=profile.validates_mta_sts,
            validate_dane=profile.validates_dane,
            prefer_mta_sts_over_dane=profile.prefers_sts_over_dane,
            require_pkix_always=profile.require_pkix)
        dane = DaneValidator(world.resolver, world.dnssec)
        self.collector: Optional[ReportCollector] = None
        if config.tlsrpt:
            self.collector = ReportCollector(
                self.identity, f"tlsrpt@{self.identity}", world.clock)
        self.sender = MtaStsSender(
            self.identity, world.network, world.resolver,
            world.trust_store, world.clock, fetcher,
            config=sender_config, dane=dane, reporter=self.collector,
            record_events=False)
        self.sender._mta.opportunistic_tls = profile.uses_tls
        self.refresh = RefreshDaemon(self.sender.cache, fetcher,
                                     world.clock)
        self.queue = MailQueue(self.sender, world.clock,
                               capacity=config.backpressure,
                               on_attempt=self._on_attempt)
        self.report_queue: Optional[MailQueue] = None
        if config.tlsrpt:
            # Reports ride a dedicated protocol-only transport: RFC 8460
            # §3 — report delivery must not be gated on the policies it
            # reports on — but the fault layer still applies, so report
            # mail can fail and retry like any other.  The lane's
            # ``sender._mta`` would NOT do: the MTA-STS sender installs
            # its security gate (and reporter hooks) on that transport,
            # so report deliveries to a broken recipient would tally
            # fresh failures into the very collector being flushed —
            # each daily window would mint a new report about the
            # previous report's delivery, and the campaign would never
            # drain.
            report_mta = SendingMta(
                self.identity, world.network, world.resolver,
                world.trust_store, world.clock)
            report_mta.opportunistic_tls = profile.uses_tls
            self.report_queue = MailQueue(report_mta, world.clock,
                                          on_attempt=self._on_report_attempt)
        self._resolver = world.resolver
        self._clock = world.clock
        self._mech_by_seq: Dict[object, str] = {}
        self._wave_counters: Dict[str, int] = {}
        self._cache_stores_seen = 0
        self._cache_hits_seen = 0

    # -- per-attempt observation --------------------------------------

    def _bump(self, key: str, value: int = 1) -> None:
        self._wave_counters[key] = self._wave_counters.get(key, 0) + value

    def _on_attempt(self, entry: QueueEntry, attempt) -> None:
        self._bump("deliver.attempts")
        if attempt.status is DeliveryStatus.REFUSED_BY_POLICY:
            self._bump("deliver.refused_attempts")
        if attempt.delivered:
            self._mech_by_seq[entry.tag] = self.sender.last_mechanism
        if (self.collector is not None
                and attempt.status is DeliveryStatus.DELIVERED_PLAINTEXT):
            # The sender's reporter hooks cover policy-fetch and PKIX
            # failures; the plaintext downgrade is only visible here,
            # via the per-MX attempt trail.
            mx_hostname = next(
                (mx.mx_hostname for mx in attempt.attempts
                 if mx.connected and not mx.starttls), "")
            self.collector.record_failure(
                entry.message.recipient_domain,
                ResultType.STARTTLS_NOT_SUPPORTED,
                mx_hostname=mx_hostname,
                detail="delivered without STARTTLS")

    def _on_report_attempt(self, entry: QueueEntry, attempt) -> None:
        self._bump("tlsrpt.attempts")

    # -- one wave ------------------------------------------------------

    def run_wave(self, selected: Sequence[int], now: Instant,
                 *, flush_reports: bool = False,
                 https_inboxes: Optional[Dict[str, object]] = None,
                 ) -> Tuple[List[dict], Dict[str, int]]:
        """Refresh the cache, submit this wave's admissions, retry
        everything due (messages and reports), optionally close the
        reporting window, and return (finalised rows, counter
        deltas)."""
        # In tlsrpt mode the refresher only runs while the lane still
        # has message work: bounced reports retry for up to five
        # virtual days past the last message, and keeping every lane's
        # policy cache warm through that tail is thousands of pointless
        # re-fetches per campaign.  (Without tlsrpt the campaign ends
        # at the last message wave, so the gate changes nothing.)
        if (self.report_queue is None or selected
                or any(entry.active for entry in self.queue.entries)):
            for result in self.refresh.run_once():
                self._bump("policy.refresh_"
                           + result.action.replace("-", "_"))
        for seq in selected:
            message = Message(f"mailer@{self.identity}",
                              f"user{seq:05d}@{self.recipients[seq]}")
            self.queue.submit(message, tag=seq)
            self._bump("deliver.submitted")
        self.queue.run_due()

        if self.report_queue is not None:
            if flush_reports:
                self._flush_reports(https_inboxes or {})
            self.report_queue.run_due()
            still_pending: List[QueueEntry] = []
            for entry in self.report_queue.entries:
                if entry.active:
                    still_pending.append(entry)
                elif entry.outcome is QueueOutcome.DELIVERED:
                    self._bump("tlsrpt.delivered")
                else:
                    self._bump("tlsrpt.bounced")
            self.report_queue.entries = still_pending

        rows: List[dict] = []
        active: List[QueueEntry] = []
        for entry in self.queue.entries:
            if entry.active:
                active.append(entry)
                continue
            # Finalised entries leave the queue now: queue memory stays
            # bounded by in-flight count, not total campaign volume.
            if entry.outcome is QueueOutcome.DELIVERED:
                self._bump("deliver.delivered")
                if entry.last_status is DeliveryStatus.DELIVERED_PLAINTEXT:
                    self._bump("deliver.delivered_plaintext")
                mechanism = self._mech_by_seq.pop(entry.tag, "")
                if mechanism:
                    self._bump(f"mech.{mechanism}")
            else:
                self._bump("deliver.bounced")
                mechanism = ""
            rows.append({
                "attempts": entry.attempts,
                "completed": now.epoch_seconds,
                "enqueued": entry.enqueued_at.epoch_seconds,
                "history": [status.value for status in entry.history],
                "mechanism": mechanism,
                "outcome": entry.outcome.value,
                "recipient": entry.message.recipient,
                "sender": self.identity,
                "seq": entry.tag,
                "status": (entry.last_status.value
                           if entry.last_status is not None else ""),
            })
        self.queue.entries = active

        cache = self.sender.cache
        stores = cache.store_count - self._cache_stores_seen
        hits = cache.hit_count - self._cache_hits_seen
        if stores:
            self._bump("policy.cache_stores", stores)
        if hits:
            self._bump("policy.cache_hits", hits)
        self._cache_stores_seen = cache.store_count
        self._cache_hits_seen = cache.hit_count

        counters = self._wave_counters
        self._wave_counters = {}
        return rows, counters

    # -- TLSRPT window flush -------------------------------------------

    def _flush_reports(self, https_inboxes: Dict[str, object]) -> None:
        """Close the collector's window and hand every finished report
        to the recipient's published ``rua`` endpoints."""
        assert self.collector is not None
        assert self.report_queue is not None
        reports = self.collector.close_window()
        for report in reports:
            self._bump("tlsrpt.generated")
            record = lookup_tlsrpt(self._resolver, report.policy_domain)
            if record is None:
                self._bump("tlsrpt.no_endpoint")
                continue
            body = report.to_canonical_json()
            for endpoint in record.rua:
                if endpoint.startswith("mailto:"):
                    self.report_queue.submit(
                        Message(f"tlsrpt@{self.identity}",
                                endpoint[len("mailto:"):], body=body),
                        tag=report.report_id)
                    self._bump("tlsrpt.enqueued")
                elif endpoint.startswith("https://"):
                    inbox = https_inboxes.get(endpoint)
                    if inbox is not None and inbox.submit(body):
                        self._bump("tlsrpt.https_submitted")
                    else:
                        self._bump("tlsrpt.https_unreachable")
                else:
                    self._bump("tlsrpt.endpoint_unsupported")

    # -- checkpoint / resume -------------------------------------------

    def has_state(self) -> bool:
        return (self.next_seq > 0 or bool(self.queue.entries)
                or len(self.sender.cache) > 0)

    def checkpoint(self) -> dict:
        return {
            "next_seq": self.next_seq,
            "cache": self.sender.cache.to_dict(),
            "pending": [{
                "attempts": entry.attempts,
                "enqueued_at": entry.enqueued_at.epoch_seconds,
                "next_attempt_at": entry.next_attempt_at.epoch_seconds,
                "history": [status.value for status in entry.history],
                "recipient": entry.message.recipient,
                "seq": entry.tag,
            } for entry in self.queue.entries if entry.active],
        }

    def restore(self, data: dict) -> None:
        self.next_seq = int(data.get("next_seq", 0))
        cache = PolicyCache.from_dict(data.get("cache") or {}, self._clock)
        self.sender.cache = cache
        self.refresh._cache = cache
        self._cache_stores_seen = cache.store_count
        self._cache_hits_seen = cache.hit_count
        for pending in data.get("pending", ()):
            history = [DeliveryStatus(value)
                       for value in pending.get("history", ())]
            self.queue.entries.append(QueueEntry(
                message=Message(f"mailer@{self.identity}",
                                str(pending["recipient"])),
                enqueued_at=Instant(int(pending["enqueued_at"])),
                next_attempt_at=Instant(int(pending["next_attempt_at"])),
                attempts=int(pending["attempts"]),
                last_status=history[-1] if history else None,
                history=history,
                tag=int(pending["seq"])))


# ---------------------------------------------------------------------------
# Durable state (store_io manifest protocol)
# ---------------------------------------------------------------------------

def _wave_shard_name(wave: int) -> str:
    return f"wave-{wave:04d}.jsonl"


def read_delivery_manifest(state_dir: str) -> Optional[dict]:
    """The raw delivery manifest, or ``None`` when the directory holds
    no delivery state yet.  Damaged or foreign manifests raise
    :class:`StoreCorruption` — never treated as absent."""
    path = os.path.join(state_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        return None
    try:
        manifest = json.loads(read_text(path))
    except (OSError, ValueError) as exc:
        raise StoreCorruption(
            f"{MANIFEST_NAME}: unreadable ({exc})") from exc
    if not isinstance(manifest, dict):
        raise StoreCorruption(f"{MANIFEST_NAME}: not a JSON object")
    if manifest.get("kind") != DELIVERY_KIND:
        raise StoreCorruption(
            f"{MANIFEST_NAME}: kind {manifest.get('kind')!r} is not a "
            f"delivery campaign")
    if manifest.get("schema_version") != DELIVERY_SCHEMA_VERSION:
        raise StoreCorruption(
            f"{MANIFEST_NAME}: unsupported schema_version "
            f"{manifest.get('schema_version')!r} "
            f"(expected {DELIVERY_SCHEMA_VERSION})")
    return manifest


def _load_wave_shard(state_dir: str, entry: dict) -> str:
    """One committed wave's verified shard text."""
    shard = str(entry.get("shard", ""))
    path = os.path.join(state_dir, shard)
    if not os.path.exists(path):
        raise StoreCorruption(f"{shard}: shard missing")
    text = read_text(path)
    if shard_digest(text) != entry.get("sha256"):
        raise StoreCorruption(f"{shard}: digest mismatch")
    if text.count("\n") != int(entry.get("rows", -1)):
        raise StoreCorruption(f"{shard}: row count mismatch")
    return text


def load_delivery_ledger(state_dir: str) -> str:
    """The full verified ledger text of a committed delivery state dir
    (the concatenation of every wave shard, in wave order)."""
    manifest = read_delivery_manifest(state_dir)
    if manifest is None:
        raise StoreCorruption(
            f"{state_dir}: no delivery campaign state ({MANIFEST_NAME} "
            f"missing)")
    waves = sorted(manifest.get("waves", ()),
                   key=lambda entry: int(entry.get("wave", 0)))
    return "".join(_load_wave_shard(state_dir, entry) for entry in waves)


def _commit_wave(state_dir: str, config: DeliveryCampaignConfig,
                 committed: List[dict], wave: int, now: Instant,
                 wave_text: str, record: FeedRecord,
                 lanes: Sequence[_SenderLane]) -> None:
    """Durably commit one finished wave: shard first, manifest second
    (the manifest is the commit point, exactly as ``store_io`` commits
    scan months)."""
    state_dir = ensure_dir(state_dir)
    shard = _wave_shard_name(wave)
    atomic_write_text(os.path.join(state_dir, shard), wave_text)
    committed.append({
        "wave": wave, "date": record.date, "shard": shard,
        "sha256": shard_digest(wave_text),
        "rows": wave_text.count("\n"),
        "clock": now.epoch_seconds,
        "metrics": record.metrics.to_dict(),
    })
    manifest = {
        "schema_version": DELIVERY_SCHEMA_VERSION,
        "kind": DELIVERY_KIND,
        "config": config.to_dict(),
        "waves": committed,
        "checkpoint": {
            "clock": now.epoch_seconds,
            "lanes": {lane.identity: lane.checkpoint()
                      for lane in lanes if lane.has_state()},
        },
    }
    atomic_write_text(os.path.join(state_dir, MANIFEST_NAME),
                      json.dumps(manifest, sort_keys=True,
                                 separators=(",", ":")))


# ---------------------------------------------------------------------------
# The campaign driver
# ---------------------------------------------------------------------------

def _sweep_tlsrpt_reports(world, https_inboxes: Optional[Dict[str, object]],
                          ) -> Tuple[List[TlsRptReport], int]:
    """Collect every TLSRPT report the world received.

    Walks every registered SMTP listener's mailbox (deterministic
    endpoint order; provider-shared MX hosts included, which per-domain
    handles would miss) for ``tls-reports@`` mail plus any injected
    HTTPS inboxes, parses the bodies (counting malformed ones), and
    returns the reports in canonical (policy domain, reporter, report
    id) order — the same byte-identity ordering whatever order the
    report mail arrived in."""
    parsed: List[TlsRptReport] = []
    malformed = 0
    for listener in world.network.listeners():
        if listener.port != SMTP_PORT:
            continue
        for stored in getattr(listener.app, "mailbox", ()):
            if not stored.recipient.startswith("tls-reports@"):
                continue
            try:
                parsed.append(TlsRptReport.from_json(stored.body))
            except (KeyError, ValueError):
                malformed += 1
    for endpoint in sorted(https_inboxes or {}):
        inbox = https_inboxes[endpoint]
        parsed.extend(getattr(inbox, "received", ()))
    parsed.sort(key=lambda r: (r.policy_domain, r.organization_name,
                               r.report_id))
    return parsed, malformed


def run_delivery_campaign(config: DeliveryCampaignConfig, *,
                          progress: Optional[Callable] = None,
                          thresholds: Optional[DeliveryThresholds] = None,
                          metrics_jsonl_path: Optional[str] = None,
                          state_dir: Optional[str] = None,
                          resume: bool = False,
                          max_waves: Optional[int] = None,
                          tlsrpt_thresholds: Optional[
                              TlsRptThresholds] = None,
                          tlsrpt_https_inboxes: Optional[
                              Dict[str, object]] = None,
                          ) -> DeliveryResult:
    """Run (or resume) one delivery campaign to completion.

    Every wave runs the sender lanes one after another in canonical
    order.  With *state_dir*, every wave is durably committed;
    ``resume=True`` continues a previously committed campaign from its
    checkpoint (the config must match the manifest's).  *max_waves*
    stops after that many additional waves — with a state dir this
    emulates a crash at a wave boundary, the case the resume tests
    replay.
    """
    if config.tlsrpt and state_dir is not None:
        raise ValueError(
            "tlsrpt reporting does not support durable state dirs yet: "
            "received-report state (recipient mailboxes) is not part of "
            "the wave checkpoint")

    build_started = time.perf_counter()
    timeline = EcosystemTimeline(TimelineConfig(
        PopulationConfig(scale=config.scale, seed=config.seed)))
    snapshot = timeline.materialize(config.month_index)
    world = snapshot.world
    if config.fault_seed is not None:
        world.network.install_fault_plan(FaultPlan.seeded(
            seed=config.fault_seed, rate=config.fault_rate))
    recipients = sorted(snapshot.deployed)
    if not recipients:
        raise ValueError(
            f"month {config.month_index} at scale {config.scale} has no "
            f"deployed recipient domains")
    profiles = synthesize_sender_population(config.senders,
                                            seed=config.sender_seed)
    lanes = sorted((_SenderLane(profile, world, recipients, config)
                    for profile in profiles),
                   key=lambda lane: lane.identity)
    world_build_seconds = time.perf_counter() - build_started

    monitor = DeliveryMonitor(thresholds, backpressure=config.backpressure,
                              jsonl_path=metrics_jsonl_path)
    ledger_parts: List[str] = []
    committed: List[dict] = []
    start_wave = 0
    finalized_before = 0

    if state_dir is not None and resume:
        manifest = read_delivery_manifest(state_dir)
        if manifest is not None:
            if manifest.get("config") != config.to_dict():
                raise StoreCorruption(
                    f"{MANIFEST_NAME}: state dir belongs to a different "
                    f"campaign config")
            waves = sorted(manifest.get("waves", ()),
                           key=lambda entry: int(entry.get("wave", 0)))
            for entry in waves:
                text = _load_wave_shard(state_dir, entry)
                ledger_parts.append(text)
                finalized_before += int(entry["rows"])
                committed.append(dict(entry))
                monitor.add_record(FeedRecord(
                    int(entry["wave"]), str(entry.get("date", "")),
                    MetricsRegistry.from_dict(entry.get("metrics") or {})))
            checkpoint = manifest.get("checkpoint") or {}
            target = Instant(int(checkpoint.get(
                "clock", world.clock.now().epoch_seconds)))
            if target > world.clock.now():
                world.clock.advance_to(target)
            lane_states = checkpoint.get("lanes") or {}
            for lane in lanes:
                if lane.identity in lane_states:
                    lane.restore(lane_states[lane.identity])
            start_wave = len(waves)

    total = config.total_messages
    tracker = None
    if progress is not None:
        tracker = ProgressTracker(
            progress, month_index=config.month_index,
            backend="deliver", domains_total=total,
            shards_total=0, virtual_epoch=snapshot.instant.epoch_seconds)
        if finalized_before:
            tracker.advance(finalized_before)

    granularity = Duration(config.wakeup_seconds)
    deliver_started = time.perf_counter()
    wave = start_wave
    # TLSRPT window scheduling: the coordinator decides which waves
    # close the collectors' daily windows, like wave membership.
    next_flush = world.clock.now() + DAY
    final_flush_done = not config.tlsrpt
    while True:
        now = world.clock.now()
        in_flight = sum(lane.queue.pending_count() for lane in lanes)
        reports_in_flight = (
            sum(lane.report_queue.pending_count() for lane in lanes)
            if config.tlsrpt else 0)
        backlog = [lane for lane in lanes if lane.next_seq < lane.total]
        # Coordinated admission: round-robin one message per sender
        # over canonical order until the global bound is reached.
        selected: Dict[str, List[int]] = {}
        budget = config.backpressure - in_flight
        while budget > 0 and backlog:
            still_hungry: List[_SenderLane] = []
            for lane in backlog:
                if budget <= 0:
                    still_hungry.append(lane)
                    continue
                selected.setdefault(lane.identity, []).append(lane.next_seq)
                lane.next_seq += 1
                budget -= 1
                if lane.next_seq < lane.total:
                    still_hungry.append(lane)
            backlog = still_hungry
        messages_done = not selected and in_flight == 0
        if messages_done and final_flush_done and not reports_in_flight:
            break
        flush = config.tlsrpt and (
            now >= next_flush
            or (messages_done and not final_flush_done))

        rows: List[dict] = []
        counters: Dict[str, int] = {}
        for lane in lanes:
            lane_rows, lane_counters = lane.run_wave(
                selected.get(lane.identity, ()), now,
                flush_reports=flush, https_inboxes=tlsrpt_https_inboxes)
            rows.extend(lane_rows)
            for key, value in lane_counters.items():
                counters[key] = counters.get(key, 0) + value

        # Barrier: emit the wave's ledger block in canonical (sender,
        # seq) order and its counters in key order.
        rows.sort(key=lambda row: (row["sender"], row["seq"]))
        registry = MetricsRegistry()
        for key in sorted(counters):
            registry.count(key, counters[key])
        if flush:
            if messages_done:
                final_flush_done = True
            while next_flush <= now:
                next_flush = next_flush + DAY
        queue_depth = sum(lane.queue.pending_count() for lane in lanes)
        registry.count("deliver.queue_depth", queue_depth)
        registry.count("deliver.finalized", len(rows))
        for row in rows:
            row["wave"] = wave
        wave_text = "".join(
            json.dumps(row, sort_keys=True, separators=(",", ":"))
            + "\n" for row in rows)
        ledger_parts.append(wave_text)
        record = monitor.observe_wave(wave, now.date_string(), registry)
        if tracker is not None and rows:
            tracker.advance(len(rows))
        if state_dir is not None:
            _commit_wave(state_dir, config, committed, wave, now,
                         wave_text, record, lanes)
        wave += 1
        if max_waves is not None and wave - start_wave >= max_waves:
            break

        if backlog and queue_depth < config.backpressure:
            # Capacity freed up at this very instant — admit more
            # before touching the clock.
            continue
        wakeups = [wakeup for lane in lanes
                   if (wakeup := lane.queue.next_wakeup(
                       granularity=granularity)) is not None]
        if config.tlsrpt:
            wakeups.extend(
                wakeup for lane in lanes
                if (wakeup := lane.report_queue.next_wakeup(
                    granularity=granularity)) is not None)
            if wakeups and not final_flush_done:
                # Day boundaries are wake-ups too: the clock never jumps
                # over a window close without flushing it (after any
                # flush wave next_flush > now, so this never drags the
                # clock backwards).
                wakeups.append(next_flush)
        if not wakeups:
            if backlog:
                continue
            if not final_flush_done:
                # Message work drained this very wave; loop once more
                # so the coordinator closes the final reporting window
                # at the current instant.
                continue
            break
        target = min(wakeups)
        if target > world.clock.now():
            world.clock.advance_to(target)
    deliver_seconds = time.perf_counter() - deliver_started
    if tracker is not None:
        tracker.finish()

    tlsrpt_reports: List[TlsRptReport] = []
    tlsrpt_aggregator: Optional[ReportAggregator] = None
    tlsrpt_monitor: Optional[TlsRptMonitor] = None
    if config.tlsrpt:
        tlsrpt_reports, malformed = _sweep_tlsrpt_reports(
            world, tlsrpt_https_inboxes)
        tlsrpt_aggregator = ReportAggregator()
        for report in tlsrpt_reports:
            tlsrpt_aggregator.add(report)
        tlsrpt_aggregator.malformed = malformed
        tlsrpt_monitor = TlsRptMonitor(tlsrpt_thresholds)
        tlsrpt_monitor.observe_reports(tlsrpt_reports)

    total_registry = MetricsRegistry()
    for record in monitor.records:
        total_registry.merge(record.metrics)
    stats = DeliveryStats(
        scale=config.scale, seed=config.seed, month_index=config.month_index,
        senders=config.senders, messages=total, waves=len(monitor.records),
        delivered=total_registry.get("deliver.delivered"),
        delivered_plaintext=total_registry.get("deliver.delivered_plaintext"),
        bounced=total_registry.get("deliver.bounced"),
        attempts=total_registry.get("deliver.attempts"),
        queue_depth_peak=max(
            (record.metrics.get("deliver.queue_depth")
             for record in monitor.records), default=0),
        reports_generated=total_registry.get("tlsrpt.generated"),
        reports_delivered=total_registry.get("tlsrpt.delivered"),
        reports_bounced=total_registry.get("tlsrpt.bounced"),
        reports_received=len(tlsrpt_reports),
        report_attempts=total_registry.get("tlsrpt.attempts"),
        reports_missing_endpoint=total_registry.get("tlsrpt.no_endpoint"),
        dns_queries=world.resolver.query_count,
        connects=world.network.connect_count,
        faults_injected=world.network.faults_injected,
        world_build_seconds=world_build_seconds,
        deliver_seconds=deliver_seconds)
    return DeliveryResult(config=config, stats=stats,
                          ledger_text="".join(ledger_parts),
                          monitor=monitor, total_registry=total_registry,
                          tlsrpt_reports=tlsrpt_reports,
                          tlsrpt_monitor=tlsrpt_monitor,
                          tlsrpt_aggregator=tlsrpt_aggregator)
