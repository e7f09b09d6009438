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
  profile, message, instant), and the lanes that have work run one
  after another in canonical sender order.  A lane runs only when it
  was admitted messages, is *busy* (holds an active message or report
  entry), holds report tallies at a flush wave, or has a due policy
  behind an open refresh gate; any other lane would find nothing to
  do, so a wave costs in proportion to the lanes it runs;
* **coordinated admission** — the coordinator decides which (sender,
  seq) messages enter the queues each wave, round-robin over
  canonically sorted senders up to the global ``backpressure`` bound,
  so wave membership depends on nothing but the config;
* **batched wake-ups** — between waves the clock jumps to the minimum
  of the busy lanes' :meth:`~repro.smtp.queue.MailQueue.next_wakeup`
  (an idle lane has none), rounded up to ``wakeup_seconds`` so
  thousands of queues coalesce onto shared wake-up instants instead of
  each demanding a clock stop;
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

State is durable and resumable in a :mod:`~repro.measurement.store_io`
state dir of kind :data:`~repro.measurement.store_io.DELIVERY_KIND`:
each wave commits a ``wave-XXXX.jsonl`` shard (sha256 in the
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
``mailto:`` ``rua`` endpoints through a second per-lane
:class:`~repro.smtp.queue.MailQueue` over the lane's protocol-only
transport (so report delivery itself faces the fault layer and
retries; RFC 8460 §3 forbids gating report mail on the very policies
being reported on); an ``https:`` endpoint has no receiver in the
world and counts as ``tlsrpt.https_unreachable``.  After the
campaign a mailbox sweep over the canonically sorted recipient world
feeds a :class:`~repro.core.reporting.ReportAggregator` and a
:class:`~repro.obs.tlsrpt_monitor.TlsRptMonitor`, whose received
report set, window JSONL, and health findings are byte-identical
between runs, clean and fault-seeded.
"""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.clock import DAY, Duration, Instant
from repro.core.cache import PolicyCache
from repro.core.dane import DaneValidator
from repro.core.fetch import PolicyFetcher
from repro.core.refresh import RefreshDaemon
from repro.core.reporting import ReportAggregator, ReportCollector
from repro.core.tlsrpt import ResultType, TlsRptReport, lookup_tlsrpt
from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import (
    EcosystemTimeline, TimelineConfig, scan_instant,
)
from repro.errors import PolicyError, StoreCorruption
from repro.measurement.senderside import (
    SenderProfile, make_sender, synthesize_sender_population,
)
from repro.measurement.store_io import (
    DELIVERY_KIND, MANIFEST_NAME, commit_shard, read_manifest, shard_digest,
    shard_text,
)
from repro.netsim.network import FaultPlan
from repro.obs.monitor import DeliveryMonitor, DeliveryThresholds, FeedRecord
from repro.obs.progress import ProgressTracker
from repro.obs.tlsrpt_monitor import TlsRptMonitor, TlsRptThresholds
from repro.smtp.delivery import DeliveryStatus, Message, SendingMta
from repro.smtp.queue import MailQueue, QueueEntry, QueueOutcome
from repro.smtp.server import SMTP_PORT
from repro.trace import MetricsRegistry

__all__ = [
    "DeliveryCampaignConfig", "DeliveryStats", "DeliveryResult",
    "run_delivery_campaign", "load_delivery_ledger",
]

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
    counters, which is order-independent.  The policy fetcher and the
    DANE validator hold no per-sender state, so one of each serves
    every lane of a world.
    """

    __slots__ = ("profile", "identity", "total", "next_seq", "recipients",
                 "collector", "sender", "refresh", "queue", "report_queue",
                 "_resolver", "_clock", "_mech_by_seq", "_wave_counters",
                 "_cache_stores_seen", "_cache_hits_seen")

    def __init__(self, profile: SenderProfile, world,
                 recipients: Sequence[str],
                 config: DeliveryCampaignConfig, fetcher: PolicyFetcher,
                 dane: DaneValidator):
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
        self.collector: Optional[ReportCollector] = None
        if config.tlsrpt:
            self.collector = ReportCollector(
                self.identity, f"tlsrpt@{self.identity}", world.clock)
        self.sender = make_sender(profile, world, fetcher, dane,
                                  reporter=self.collector,
                                  record_events=False)
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
                 ) -> Tuple[List[dict], Dict[str, int]]:
        """Refresh the cache, submit this wave's admissions, retry
        everything due (messages and reports), optionally close the
        reporting window, and return (finalised rows, counter
        deltas)."""
        # The refresh gate.  Without tlsrpt it is always open: every
        # lane refreshes due policies at every wave, busy or not.  In
        # tlsrpt mode the refresher only runs while the lane still has
        # message work (admitted this wave or queued): bounced reports
        # retry for up to five virtual days past the last message, and
        # keeping every lane's policy cache warm through that tail is
        # thousands of pointless re-fetches per campaign.
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
                self._flush_reports()
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

    def _flush_reports(self) -> None:
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
                    self._bump("tlsrpt.https_unreachable")
                else:
                    self._bump("tlsrpt.endpoint_unsupported")

    # -- scheduling, checkpoint / resume --------------------------------

    @property
    def busy(self) -> bool:
        """Whether an active message or report entry is queued
        (:meth:`run_wave` drops finalised entries before it returns)."""
        return bool(self.queue.entries or (
            self.report_queue is not None and self.report_queue.entries))

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


class _LaneSchedule:
    """Which lanes have work, kept current as lanes run, so that a wave
    costs in proportion to the lanes it runs.

    A lane that is not admitted, not busy, holds no report tallies at a
    flush wave and has no due policy behind an open refresh gate would
    find nothing to do in :meth:`_SenderLane.run_wave`: it would touch
    no resolver, network, fault-plan or clock state.  The schedule
    tracks the lanes for which that is not so:

    * ``backlog`` — lanes with messages still to admit, in canonical
      order; a lane leaves it with its last message;
    * ``busy`` — lanes holding an active message or report entry;
    * the refresh heap — without tlsrpt the refresh gate is always
      open, so a lane whose earliest
      :meth:`~repro.core.refresh.RefreshDaemon.next_due` has passed
      must run even when idle.  In tlsrpt mode the gate is open only
      for lanes that run anyway, and no heap is kept.

    Lanes are named by their index in canonical identity order.
    """

    def __init__(self, lanes: Sequence[_SenderLane], *,
                 refresh_idle: bool):
        self._lanes = lanes
        self._refresh_idle = refresh_idle
        #: (due epoch, lane index); an entry is live while it matches
        #: ``_refresh_at[index]`` and stale otherwise
        self._refresh_heap: List[Tuple[int, int]] = []
        self._refresh_at: Dict[int, int] = {}
        # Built from the lanes as they stand, so a resumed campaign
        # rebuilds all three from its restored lanes.
        self.backlog = [index for index, lane in enumerate(lanes)
                        if lane.next_seq < lane.total]
        self.busy: Set[int] = set()
        for index in range(len(lanes)):
            self.update(index)

    def admit(self, budget: int) -> Dict[int, List[int]]:
        """Coordinated admission: round-robin one message per backlog
        lane, in canonical order, until *budget* is spent.  Returns
        lane index -> admitted message seqs."""
        selected: Dict[int, List[int]] = {}
        while budget > 0 and self.backlog:
            taken = self.backlog[:budget]
            for index in taken:
                lane = self._lanes[index]
                selected.setdefault(index, []).append(lane.next_seq)
                lane.next_seq += 1
            budget -= len(taken)
            self.backlog = [
                index for index in taken
                if self._lanes[index].next_seq < self._lanes[index].total
            ] + self.backlog[len(taken):]
        return selected

    def refresh_due(self, now: Instant) -> List[int]:
        """Pop every lane whose earliest policy refresh is due."""
        due: List[int] = []
        heap = self._refresh_heap
        while heap and heap[0][0] <= now.epoch_seconds:
            at, index = heapq.heappop(heap)
            if self._refresh_at.get(index) == at:
                del self._refresh_at[index]
                due.append(index)
        return due

    def update(self, index: int) -> None:
        """Re-read one lane's busy flag and refresh instant after it
        ran (or was restored)."""
        lane = self._lanes[index]
        if lane.busy:
            self.busy.add(index)
        else:
            self.busy.discard(index)
        if not self._refresh_idle:
            return
        due = lane.refresh.next_due()
        if due is None:
            self._refresh_at.pop(index, None)
        elif self._refresh_at.get(index) != due.epoch_seconds:
            self._refresh_at[index] = due.epoch_seconds
            heapq.heappush(self._refresh_heap, (due.epoch_seconds, index))


# ---------------------------------------------------------------------------
# Durable state (a store_io state dir of kind DELIVERY_KIND)
# ---------------------------------------------------------------------------

def load_delivery_ledger(state_dir: str) -> str:
    """The full verified ledger text of a committed delivery state dir
    (the concatenation of every wave shard, in wave order)."""
    manifest = read_manifest(state_dir, kind=DELIVERY_KIND, required=True)
    return "".join(shard_text(state_dir, entry["shard"], entry["sha256"],
                              entry["rows"])
                   for entry in manifest["waves"])


def _commit_wave(state_dir: str, manifest: dict, wave: int, now: Instant,
                 wave_text: str, record: FeedRecord,
                 lanes: Sequence[_SenderLane]) -> None:
    """Durably commit one finished wave with the lanes' checkpoint."""
    manifest["checkpoint"] = {
        "clock": now.epoch_seconds,
        "lanes": {lane.identity: lane.checkpoint()
                  for lane in lanes if lane.has_state()},
    }
    commit_shard(state_dir, manifest, wave, wave_text, kind=DELIVERY_KIND,
                 date=record.date, clock=now.epoch_seconds,
                 metrics=record.metrics.to_dict())


# ---------------------------------------------------------------------------
# The campaign driver
# ---------------------------------------------------------------------------

def _sweep_tlsrpt_reports(world) -> Tuple[List[TlsRptReport], int]:
    """Collect every TLSRPT report the world received.

    Walks every registered SMTP listener's mailbox (deterministic
    endpoint order; provider-shared MX hosts included, which per-domain
    handles would miss) for ``tls-reports@`` mail, parses the bodies
    (counting malformed ones), and returns the reports in canonical
    (policy domain, reporter, report id) order — the same byte-identity
    ordering whatever order the report mail arrived in."""
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
    parsed.sort(key=lambda r: (r.policy_domain, r.organization_name,
                               r.report_id))
    return parsed, malformed


def run_delivery_campaign(config: DeliveryCampaignConfig, *,
                          progress: Optional[Callable] = None,
                          thresholds: Optional[DeliveryThresholds] = None,
                          state_dir: Optional[str] = None,
                          resume: bool = False,
                          max_waves: Optional[int] = None,
                          tlsrpt_thresholds: Optional[
                              TlsRptThresholds] = None,
                          ) -> DeliveryResult:
    """Run (or resume) one delivery campaign to completion.

    Every wave runs the sender lanes that have work one after another
    in canonical order.  With *state_dir*, every wave is durably committed;
    ``resume=True`` continues a previously committed campaign from its
    checkpoint (the config must match the manifest's).  *max_waves*
    stops after that many additional waves — with a state dir this
    emulates a crash at a wave boundary, the case the resume tests
    replay.  Committed state in *state_dir* is never overwritten: without
    ``resume=True`` it raises ``ValueError``, and a scan campaign's
    manifest raises :class:`StoreCorruption`.
    """
    if config.tlsrpt and state_dir is not None:
        raise ValueError(
            "tlsrpt reporting does not support durable state dirs yet: "
            "received-report state (recipient mailboxes) is not part of "
            "the wave checkpoint")
    manifest = (read_manifest(state_dir, kind=DELIVERY_KIND)
                if state_dir is not None else None)
    if manifest is not None:
        if not resume:
            raise ValueError(
                f"state dir {state_dir!r} already holds "
                f"{len(manifest['waves'])} committed wave(s); "
                f"pass resume=True to continue that campaign or point "
                f"at a fresh directory")
        if manifest.get("config") != config.to_dict():
            raise StoreCorruption(
                f"{MANIFEST_NAME}: state dir belongs to a different "
                f"campaign config")

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
    fetcher = PolicyFetcher(world.resolver, world.https_client)
    dane = DaneValidator(world.resolver, world.dnssec)
    lanes = sorted((_SenderLane(profile, world, recipients, config,
                                fetcher, dane)
                    for profile in profiles),
                   key=lambda lane: lane.identity)
    world_build_seconds = time.perf_counter() - build_started

    monitor = DeliveryMonitor(thresholds, backpressure=config.backpressure)
    ledger_parts: List[str] = []
    start_wave = 0
    finalized_before = 0

    if manifest is None:
        manifest = {"config": config.to_dict()}
    else:
        waves = manifest["waves"]
        for entry in waves:
            ledger_parts.append(shard_text(state_dir, entry["shard"],
                                           entry["sha256"], entry["rows"]))
            finalized_before += entry["rows"]
        try:
            for entry in waves:
                monitor.add_record(FeedRecord(
                    entry["wave"], str(entry.get("date", "")),
                    MetricsRegistry.from_dict(entry.get("metrics") or {})))
            checkpoint = manifest.get("checkpoint") or {}
            target = Instant(int(checkpoint.get(
                "clock", world.clock.now().epoch_seconds)))
            lane_states = checkpoint.get("lanes") or {}
            for lane in lanes:
                if lane.identity in lane_states:
                    lane.restore(lane_states[lane.identity])
        except (AttributeError, KeyError, TypeError, ValueError,
                PolicyError) as exc:
            raise StoreCorruption(
                f"{MANIFEST_NAME}: malformed wave metrics or lane "
                f"checkpoint ({exc!r})") from exc
        if target > world.clock.now():
            world.clock.advance_to(target)
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
    schedule = _LaneSchedule(lanes, refresh_idle=not config.tlsrpt)
    busy = schedule.busy
    deliver_started = time.perf_counter()
    wave = start_wave
    # TLSRPT window scheduling: the coordinator decides which waves
    # close the collectors' daily windows, like wave membership.
    next_flush = world.clock.now() + DAY
    final_flush_done = not config.tlsrpt
    while True:
        in_flight = sum(lanes[index].queue.pending_count()
                        for index in busy)
        # The clock decision after each wave is taken at the top of the
        # next iteration, so a run resumed after wave N takes the same
        # decision the whole run took there.  Unless capacity freed up
        # at this very instant, the clock jumps to the earliest wake-up.
        if wave > 0 and not (schedule.backlog
                             and in_flight < config.backpressure):
            wakeups = [wakeup for index in busy
                       if (wakeup := lanes[index].queue.next_wakeup(
                           granularity=granularity)) is not None]
            if config.tlsrpt:
                wakeups.extend(
                    wakeup for index in busy
                    if (wakeup := lanes[index].report_queue.next_wakeup(
                        granularity=granularity)) is not None)
                if wakeups and not final_flush_done:
                    # Day boundaries are wake-ups too: the clock never
                    # jumps over a window close without flushing it
                    # (after any flush wave next_flush > now, so this
                    # never drags the clock backwards).
                    wakeups.append(next_flush)
            if wakeups:
                target = min(wakeups)
                if target > world.clock.now():
                    world.clock.advance_to(target)
            elif not schedule.backlog and final_flush_done:
                # Nothing to wait for.  With work left to admit, or with
                # the final reporting window still open, the next wave
                # runs at the current instant instead.
                break
        now = world.clock.now()
        reports_in_flight = (
            sum(lanes[index].report_queue.pending_count()
                for index in busy)
            if config.tlsrpt else 0)
        selected = schedule.admit(config.backpressure - in_flight)
        messages_done = not selected and in_flight == 0
        if messages_done and final_flush_done and not reports_in_flight:
            break
        flush = config.tlsrpt and (
            now >= next_flush
            or (messages_done and not final_flush_done))

        running = busy.union(selected, schedule.refresh_due(now))
        if flush:
            # Every collector's window restarts now; one whose window
            # is empty only moves its start, so its lane need not run.
            for index, lane in enumerate(lanes):
                if index not in running:
                    if lane.collector.has_tallies():
                        running.add(index)
                    else:
                        lane.collector.close_window()

        rows: List[dict] = []
        counters: Dict[str, int] = {}
        for index in sorted(running):
            lane_rows, lane_counters = lanes[index].run_wave(
                selected.get(index, ()), now, flush_reports=flush)
            schedule.update(index)
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
        queue_depth = sum(lanes[index].queue.pending_count()
                          for index in busy)
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
            _commit_wave(state_dir, manifest, wave, now, wave_text,
                         record, lanes)
        wave += 1
        if max_waves is not None and wave - start_wave >= max_waves:
            break
    deliver_seconds = time.perf_counter() - deliver_started
    if tracker is not None:
        tracker.finish()

    tlsrpt_reports: List[TlsRptReport] = []
    tlsrpt_aggregator: Optional[ReportAggregator] = None
    tlsrpt_monitor: Optional[TlsRptMonitor] = None
    if config.tlsrpt:
        tlsrpt_reports, malformed = _sweep_tlsrpt_reports(world)
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
