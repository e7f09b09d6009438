"""The campaign-scale delivery engine and its supporting invariants.

The hard invariant under test mirrors the scan pipeline's: a delivery
campaign killed at a wave boundary must resume to the byte-identical
ledger, per-wave metric feed, and health report an uninterrupted run
writes — here under a seeded fault plan.

The supporting property suites pin down the pieces the campaign leans
on: the retry queue's backoff/lifetime semantics for arbitrary
schedules, the RFC 8461 policy-cache ``max_age``/refresh semantics
under the virtual clock (including across a simulated restart), and
the canonicalisation of ``Message.recipient_domain``.
"""

import functools
import json
import os
import shutil
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import Clock, Duration, Instant
from repro.core.cache import CachedPolicy, PolicyCache
from repro.core.policy import Policy, PolicyMode
from repro.core.refresh import RefreshDaemon
from repro.dns.name import canonical_host
from repro.errors import StoreCorruption
from repro.measurement.delivery_campaign import (
    DeliveryCampaignConfig, load_delivery_ledger, run_delivery_campaign,
)
from repro.measurement.store_io import DELIVERY_KIND, read_manifest
from repro.obs.monitor import DeliveryMonitor, DeliveryThresholds
from repro.smtp.delivery import DeliveryAttempt, DeliveryStatus, Message
from repro.smtp.queue import (
    DEFAULT_QUEUE_LIFETIME, DEFAULT_RETRY_SCHEDULE, MailQueue, QueueFull,
    QueueOutcome,
)

SCALE = 0.004
SEED = 11
MONTH = 3
FAULT_SEED = 4242

_CONFIG = dict(scale=SCALE, seed=SEED, month_index=MONTH, senders=40,
               messages_per_sender=5, backpressure=60)


@functools.lru_cache(maxsize=None)
def _campaign(fault_seed=None):
    config = DeliveryCampaignConfig(fault_seed=fault_seed,
                                    fault_rate=0.35, **_CONFIG)
    return run_delivery_campaign(config)


@pytest.fixture(scope="module")
def advancing_run(tmp_path_factory):
    """A whole committed campaign whose wave boundaries mostly advance
    the clock (backpressure 2 admits few messages per wave): its
    config, result and per-wave clock."""
    config = DeliveryCampaignConfig(
        scale=SCALE, seed=5, month_index=11, senders=5,
        messages_per_sender=4, backpressure=2, fault_seed=3,
        fault_rate=0.4)
    state = str(tmp_path_factory.mktemp("advancing") / "state")
    result = run_delivery_campaign(config, state_dir=state)
    assert result.stats.waves == 35
    waves = read_manifest(state, kind=DELIVERY_KIND)["waves"]
    clocks = [entry["clock"] for entry in waves]
    return config, result, clocks


# ---------------------------------------------------------------------------
# Campaign invariants (clean and fault-seeded)
# ---------------------------------------------------------------------------

class TestCampaignInvariants:
    def test_every_message_finalises_exactly_once(self):
        result = _campaign(fault_seed=FAULT_SEED)
        rows = [json.loads(line)
                for line in result.ledger_text.splitlines()]
        assert len(rows) == result.config.total_messages
        keys = {(row["sender"], row["seq"]) for row in rows}
        assert len(keys) == len(rows)
        assert (result.stats.delivered + result.stats.bounced
                == len(rows))
        for row in rows:
            assert row["outcome"] in ("delivered", "bounced")
            assert row["attempts"] == len(row["history"])
            assert row["completed"] >= row["enqueued"]
            if row["outcome"] == "delivered":
                assert row["mechanism"] in (
                    "opportunistic", "mta-sts", "dane")
                assert row["history"][-1] in (
                    "delivered", "delivered-plaintext")

    def test_fault_plan_flows_into_queue_retries(self):
        clean = _campaign()
        faulted = _campaign(fault_seed=FAULT_SEED)
        assert faulted.stats.faults_injected > 0
        assert clean.stats.faults_injected == 0
        # transient connect faults force retry attempts beyond the
        # clean campaign's one-attempt deliveries
        assert faulted.stats.attempts > clean.stats.attempts
        assert faulted.stats.queue_depth_peak > 0
        histories = [json.loads(line)["history"]
                     for line in faulted.ledger_text.splitlines()]
        recovered = [h for h in histories
                     if len(h) > 1 and h[-1] == "delivered"
                     and "unreachable" in h]
        assert recovered, "no message recovered from a transient fault"

    def test_wave_membership_respects_backpressure(self):
        result = _campaign(fault_seed=FAULT_SEED)
        for record in result.monitor.records:
            assert (record.metrics.get("deliver.queue_depth")
                    <= result.config.backpressure)
        submitted = sum(r.metrics.get("deliver.submitted")
                        for r in result.monitor.records)
        assert submitted == result.config.total_messages

    def test_sender_taxonomy_reaches_the_wire(self):
        """The §6.2 profile mix is visible in the delivery mechanisms:
        most messages go out opportunistically, some under MTA-STS."""
        result = _campaign()
        registry = result.total_registry
        opportunistic = registry.get("mech.opportunistic")
        mta_sts = registry.get("mech.mta-sts")
        assert opportunistic > mta_sts > 0


# ---------------------------------------------------------------------------
# Durability and resume
# ---------------------------------------------------------------------------

class TestDurableResume:
    def _config(self, **overrides):
        merged = dict(_CONFIG, fault_seed=FAULT_SEED, fault_rate=0.35)
        merged.update(overrides)
        return DeliveryCampaignConfig(**merged)

    def test_crash_at_wave_boundary_resumes_byte_identical(self, tmp_path):
        config = self._config()
        reference = _campaign(fault_seed=FAULT_SEED)
        state = str(tmp_path / "state")
        partial = run_delivery_campaign(config, state_dir=state,
                                        max_waves=3)
        assert partial.stats.waves == 3
        resumed = run_delivery_campaign(config, state_dir=state,
                                        resume=True)
        assert resumed.ledger_text == reference.ledger_text
        assert resumed.stats.comparable() == reference.stats.comparable()
        assert resumed.monitor.to_jsonl() == reference.monitor.to_jsonl()
        assert (resumed.health().render() == reference.health().render())
        assert load_delivery_ledger(state) == reference.ledger_text

    @pytest.mark.parametrize("stop", [2, 9, 15, 19, 25])
    def test_resume_where_the_clock_advances(self, advancing_run, stop,
                                             tmp_path):
        """A run stopped where the whole run next advances the clock
        resumes with that advance, not with an extra wave at the
        checkpoint instant."""
        config, whole, clocks = advancing_run
        assert clocks[stop] > clocks[stop - 1]
        state = str(tmp_path / "state")
        partial = run_delivery_campaign(config, state_dir=state,
                                        max_waves=stop)
        assert partial.stats.waves == stop
        resumed = run_delivery_campaign(config, state_dir=state,
                                        resume=True)
        assert resumed.ledger_text == whole.ledger_text
        assert resumed.monitor.to_jsonl() == whole.monitor.to_jsonl()
        assert resumed.stats.comparable() == whole.stats.comparable()

    def test_committed_state_verifies_and_loads(self, tmp_path):
        config = self._config()
        state = str(tmp_path / "state")
        result = run_delivery_campaign(config, state_dir=state)
        manifest = read_manifest(state, kind=DELIVERY_KIND)
        assert manifest is not None
        assert manifest["config"] == config.to_dict()
        assert len(manifest["waves"]) == result.stats.waves
        assert load_delivery_ledger(state) == result.ledger_text
        # resuming a finished campaign is a no-op continuation
        again = run_delivery_campaign(config, state_dir=state, resume=True)
        assert again.ledger_text == result.ledger_text

    def test_resume_refuses_foreign_config(self, tmp_path):
        state = str(tmp_path / "state")
        run_delivery_campaign(self._config(), state_dir=state, max_waves=1)
        other = self._config(messages_per_sender=7)
        with pytest.raises(StoreCorruption, match="different"):
            run_delivery_campaign(other, state_dir=state, resume=True)

    def test_corrupted_shard_is_detected(self, tmp_path):
        state = str(tmp_path / "state")
        run_delivery_campaign(self._config(), state_dir=state, max_waves=2)
        manifest = read_manifest(state, kind=DELIVERY_KIND)
        shard = os.path.join(state, manifest["waves"][0]["shard"])
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write("{}\n")
        with pytest.raises(StoreCorruption):
            load_delivery_ledger(state)
        with pytest.raises(StoreCorruption):
            run_delivery_campaign(self._config(), state_dir=state,
                                  resume=True)

    def test_foreign_manifest_kind_is_rejected(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        (state / "manifest.json").write_text(
            json.dumps({"schema_version": 1, "kind": "snapshot-store"}),
            encoding="utf-8")
        with pytest.raises(StoreCorruption, match="kind"):
            read_manifest(str(state), kind=DELIVERY_KIND)


# ---------------------------------------------------------------------------
# Campaign plumbing: progress, validation, monitor round-trips
# ---------------------------------------------------------------------------

class TestCampaignPlumbing:
    def test_progress_heartbeats(self):
        events = []
        config = DeliveryCampaignConfig(**_CONFIG)
        result = run_delivery_campaign(config, progress=events.append)
        assert events and events[-1].final
        assert events[-1].domains_done == result.config.total_messages
        assert events[-1].backend == "deliver"
        done = [event.domains_done for event in events]
        assert done == sorted(done)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DeliveryCampaignConfig(senders=0)
        with pytest.raises(ValueError):
            DeliveryCampaignConfig(messages_per_sender=0)
        with pytest.raises(ValueError):
            DeliveryCampaignConfig(backpressure=0)
        with pytest.raises(ValueError):
            DeliveryCampaignConfig(wakeup_seconds=0)
        with pytest.raises(ValueError):
            DeliveryCampaignConfig(fault_rate=1.5)
        for month in (-1, 12):
            with pytest.raises(ValueError, match=r"\[0, 11\]"):
                DeliveryCampaignConfig(month_index=month)

    def test_monitor_feed_round_trips(self):
        result = _campaign(fault_seed=FAULT_SEED)
        monitor = DeliveryMonitor.from_jsonl(
            result.monitor.to_jsonl(),
            backpressure=result.config.backpressure)
        assert monitor.to_jsonl() == result.monitor.to_jsonl()
        assert monitor.health().render() == result.health().render()

    def test_backpressure_invariant_alerts(self):
        monitor = DeliveryMonitor(backpressure=10)
        from repro.trace import MetricsRegistry
        registry = MetricsRegistry()
        registry.count("deliver.queue_depth", 11)
        registry.count("deliver.finalized", 0)
        monitor.observe_wave(0, "2024-01-01", registry)
        report = monitor.health()
        assert report.level == "ALERT"
        assert any(f.metric == "backpressure-violated"
                   for f in report.findings)

    def test_thresholds_fire_on_bad_cumulative_rates(self):
        from repro.trace import MetricsRegistry
        monitor = DeliveryMonitor(DeliveryThresholds(
            bounce_rate_alert=0.10, plaintext_rate_warn=0.10))
        registry = MetricsRegistry()
        registry.count("deliver.finalized", 100)
        registry.count("deliver.delivered", 80)
        registry.count("deliver.delivered_plaintext", 40)
        registry.count("deliver.bounced", 20)
        registry.count("deliver.attempts", 100)
        monitor.observe_wave(0, "2024-01-01", registry)
        report = monitor.health()
        metrics = {finding.metric for finding in report.findings}
        assert "bounce-rate" in metrics
        assert "plaintext-fallback" in metrics


# ---------------------------------------------------------------------------
# Satellite: recipient_domain canonicalisation (ẞ / İ regressions)
# ---------------------------------------------------------------------------

class TestRecipientDomainCanonicalisation:
    def test_casefold_not_lower(self):
        # ẞ (LATIN CAPITAL LETTER SHARP S) casefolds to "ss";
        # str.lower() maps it to ß and would desynchronise the
        # delivery route from the policy matcher's casefolded view.
        assert Message("a@b", "user@STRAẞE.example").recipient_domain \
            == "strasse.example"
        assert "ß" not in Message("a@b",
                                  "user@STRAẞE.example").recipient_domain
        # İ (LATIN CAPITAL LETTER I WITH DOT ABOVE) casefolds to
        # "i" + COMBINING DOT ABOVE — two code points, not lower()'s
        # language-dependent single "i̇".
        domain = Message("a@b", "user@İstanbul.example").recipient_domain
        assert domain == "İstanbul.example".casefold()
        assert domain == canonical_host("İstanbul.example")

    def test_parity_with_canonical_host(self):
        for raw in ("Example.COM.", "  mail.example.org  ",
                    "MX.Example.Se", "ẞ.example"):
            assert Message("a@b", f"user@{raw}").recipient_domain \
                == canonical_host(raw)

    def test_malformed_recipients_are_unroutable(self):
        from repro.ecosystem.world import World
        from repro.smtp.delivery import SendingMta

        assert Message("a@b", "user@.").recipient_domain == ""
        assert Message("a@b", "user@").recipient_domain == ""
        world = World(start=Instant.from_date(2024, 1, 1))
        mta = SendingMta("sender.example", world.network, world.resolver,
                         world.trust_store, world.clock)
        outcome = mta.send(Message("a@sender.example", "user@."))
        assert outcome.status is DeliveryStatus.NO_MX
        assert "unroutable" in outcome.detail


# ---------------------------------------------------------------------------
# Satellite: queue property tests
# ---------------------------------------------------------------------------

class ScriptedSender:
    """Returns the scripted status per call (last one repeats) and
    records the virtual instant and attempt ordinal of every call."""

    identity = "scripted.example"

    def __init__(self, statuses, clock):
        self._statuses = list(statuses)
        self._clock = clock
        self.call_instants = []
        self.call_attempts = []

    def send(self, message, *, attempt=0):
        index = min(len(self.call_instants), len(self._statuses) - 1)
        self.call_instants.append(self._clock.now())
        self.call_attempts.append(attempt)
        return DeliveryAttempt(message, self._statuses[index])


_TEMPORARY_STATUSES = st.sampled_from(
    [DeliveryStatus.UNREACHABLE, DeliveryStatus.REFUSED_BY_POLICY])
_FINAL_STATUSES = st.sampled_from(
    [DeliveryStatus.DELIVERED, DeliveryStatus.DELIVERED_PLAINTEXT,
     DeliveryStatus.NO_MX, DeliveryStatus.REJECTED_BY_SERVER,
     DeliveryStatus.UNREACHABLE])
_SCHEDULES = st.lists(
    st.integers(min_value=60, max_value=48 * 3600).map(Duration),
    min_size=0, max_size=10)
_LIFETIMES = st.integers(min_value=3600,
                         max_value=6 * 24 * 3600).map(Duration)


class TestQueueProperties:
    @settings(max_examples=60, deadline=None)
    @given(prefix=st.lists(_TEMPORARY_STATUSES, max_size=12),
           final=_FINAL_STATUSES, schedule=_SCHEDULES,
           lifetime=_LIFETIMES)
    def test_retry_instants_and_attempt_bounds(self, prefix, final,
                                               schedule, lifetime):
        clock = Clock(Instant.from_date(2024, 1, 1))
        sender = ScriptedSender(prefix + [final], clock)
        queue = MailQueue(sender, clock, retry_schedule=schedule,
                          lifetime=lifetime)
        entry = queue.submit(Message("a@scripted.example", "u@x.example"))
        queue.drain(max_steps=len(schedule) + 2)

        # The queue always terminates: delivered or bounced.
        assert entry.outcome is not QueueOutcome.QUEUED
        # Total attempts never exceed the schedule's budget.
        assert 1 <= entry.attempts <= len(schedule) + 1
        assert entry.attempts == len(sender.call_instants)
        assert entry.history == [
            (prefix + [final])[min(i, len(prefix))]
            for i in range(entry.attempts)]
        # Retry instants are strictly increasing and follow the
        # schedule exactly (drain wakes at the precise retry instant).
        instants = sender.call_instants
        for earlier, later in zip(instants, instants[1:]):
            assert later > earlier
        for index in range(1, entry.attempts):
            assert (instants[index] - instants[index - 1]
                    == schedule[index - 1])
        # Every attempt stayed within the queue lifetime.
        for instant in instants:
            assert instant - entry.enqueued_at <= lifetime
        # The queue passes the retry ordinal through.
        assert sender.call_attempts == list(range(entry.attempts))

    @settings(max_examples=40, deadline=None)
    @given(prefix=st.lists(_TEMPORARY_STATUSES, max_size=12),
           final=_FINAL_STATUSES, schedule=_SCHEDULES,
           lifetime=_LIFETIMES,
           extra_steps=st.integers(min_value=1, max_value=5))
    def test_no_attempt_after_finalisation(self, prefix, final, schedule,
                                           lifetime, extra_steps):
        clock = Clock(Instant.from_date(2024, 1, 1))
        sender = ScriptedSender(prefix + [final], clock)
        queue = MailQueue(sender, clock, retry_schedule=schedule,
                          lifetime=lifetime)
        entry = queue.submit(Message("a@scripted.example", "u@x.example"))
        queue.drain(max_steps=len(schedule) + 2)
        attempts_at_finalisation = entry.attempts
        assert entry.outcome is not QueueOutcome.QUEUED
        for _ in range(extra_steps):
            clock.advance(Duration(24 * 3600))
            queue.run_due()
        assert entry.attempts == attempts_at_finalisation
        assert queue.next_wakeup() is None

    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(min_value=2, max_value=20))
    def test_default_schedule_bounces_within_lifetime(self, count):
        """Under the default schedule every ever-failing entry bounces and
        no retry is ever scheduled past DEFAULT_QUEUE_LIFETIME."""
        clock = Clock(Instant.from_date(2024, 1, 1))
        sender = ScriptedSender([DeliveryStatus.UNREACHABLE], clock)
        queue = MailQueue(sender, clock)
        entries = [queue.submit(Message("a@s.example", f"u{i}@x.example"))
                   for i in range(count)]
        queue.drain(max_steps=len(DEFAULT_RETRY_SCHEDULE) + 2)
        for entry in entries:
            assert entry.outcome is QueueOutcome.BOUNCED
            assert entry.attempts <= len(DEFAULT_RETRY_SCHEDULE) + 1
        for instant in sender.call_instants:
            assert (instant - entries[0].enqueued_at
                    <= DEFAULT_QUEUE_LIFETIME)


class TestQueueExtensions:
    def _queue(self, statuses, **kwargs):
        clock = Clock(Instant.from_date(2024, 1, 1))
        sender = ScriptedSender(statuses, clock)
        return MailQueue(sender, clock, **kwargs), sender, clock

    def test_capacity_backpressure(self):
        queue, _, _ = self._queue([DeliveryStatus.UNREACHABLE],
                                  capacity=2)
        assert queue.capacity == 2
        queue.submit(Message("a@s.example", "u1@x.example"))
        assert queue.has_capacity()
        queue.submit(Message("a@s.example", "u2@x.example"))
        assert not queue.has_capacity()
        with pytest.raises(QueueFull, match="at capacity"):
            queue.submit(Message("a@s.example", "u3@x.example"))
        # a finalised entry frees a slot
        queue._sender._statuses = [DeliveryStatus.DELIVERED]
        clock = queue._clock
        clock.advance(DEFAULT_RETRY_SCHEDULE[0])
        queue.run_due()
        assert queue.has_capacity()

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="positive"):
            self._queue([DeliveryStatus.DELIVERED], capacity=0)

    def test_next_wakeup_granularity_rounds_up(self):
        queue, _, clock = self._queue([DeliveryStatus.UNREACHABLE])
        queue.submit(Message("a@s.example", "u@x.example"))
        exact = queue.next_wakeup()
        assert exact == clock.now() + DEFAULT_RETRY_SCHEDULE[0]
        batched = queue.next_wakeup(granularity=Duration(3600))
        assert batched >= exact
        assert batched.epoch_seconds % 3600 == 0
        assert batched.epoch_seconds - exact.epoch_seconds < 3600
        # granularity <= 1s degenerates to the exact instant
        assert queue.next_wakeup(granularity=Duration(1)) == exact

    def test_on_attempt_observer_and_tags(self):
        observed = []
        clock = Clock(Instant.from_date(2024, 1, 1))
        sender = ScriptedSender([DeliveryStatus.DELIVERED], clock)
        queue = MailQueue(sender, clock,
                          on_attempt=lambda entry, attempt:
                          observed.append((entry.tag, attempt.status)))
        queue.submit(Message("a@s.example", "u@x.example"), tag=17)
        assert observed == [(17, DeliveryStatus.DELIVERED)]


# ---------------------------------------------------------------------------
# Satellite: cache + refresh property tests (virtual clock)
# ---------------------------------------------------------------------------

def _policy(max_age: int) -> Policy:
    return Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                  max_age=max_age, mx_patterns=("mx.example.com",))


class StubFetcher:
    """A PolicyFetcher stand-in with a scriptable record id/policy."""

    def __init__(self, record_id="id0001", max_age=86_400):
        self.record_id = record_id
        self.policy = _policy(max_age)
        self.record_available = True
        self.fetch_ok = True
        self.lookups = 0
        self.fetches = 0

    def lookup_record(self, domain):
        self.lookups += 1
        record = (SimpleNamespace(id=self.record_id)
                  if self.record_available else None)
        return SimpleNamespace(record=record)

    def fetch_policy(self, domain):
        self.fetches += 1
        if self.fetch_ok:
            return SimpleNamespace(policy=self.policy, failed_stage=None)
        return SimpleNamespace(policy=None,
                               failed_stage=SimpleNamespace(value="https"))


class TestCacheProperties:
    @settings(max_examples=60, deadline=None)
    @given(max_age=st.integers(min_value=1, max_value=1_000_000),
           elapsed=st.integers(min_value=0, max_value=2_000_000))
    def test_cache_never_serves_past_max_age(self, max_age, elapsed):
        clock = Clock(Instant.from_date(2024, 1, 1))
        cache = PolicyCache(clock)
        cache.store("recipient.example", _policy(max_age), "id0001")
        clock.advance(Duration(elapsed))
        entry = cache.get("recipient.example")
        if elapsed < max_age:      # RFC 8461: lifetime capped AT max_age
            assert entry is not None
            assert entry.fresh_at(clock.now())
        else:
            assert entry is None
            # the stale entry was evicted, not just hidden
            assert cache.peek("recipient.example") is None

    @settings(max_examples=60, deadline=None)
    @given(max_age=st.integers(min_value=1, max_value=1_000_000),
           elapsed=st.integers(min_value=0, max_value=2_000_000),
           restart_after=st.integers(min_value=0, max_value=2_000_000))
    def test_restart_never_extends_max_age(self, max_age, elapsed,
                                           restart_after):
        """Rehydrating a persisted cache preserves ``fetched_at``: an
        entry is fresh after the restart iff it would have been fresh
        without one."""
        clock = Clock(Instant.from_date(2024, 1, 1))
        cache = PolicyCache(clock)
        cache.store("recipient.example", _policy(max_age), "id0001")
        clock.advance(Duration(restart_after))
        persisted = cache.to_dict()

        restarted_clock = Clock(clock.now())   # simulated new process
        rehydrated = PolicyCache.from_dict(persisted, restarted_clock)
        restarted_clock.advance(Duration(elapsed))
        entry = rehydrated.get("recipient.example")
        total = restart_after + elapsed
        assert (entry is not None) == (total < max_age)
        assert rehydrated.to_dict()["store_count"] \
            == persisted["store_count"]

    @settings(max_examples=40, deadline=None)
    @given(max_age=st.integers(min_value=2, max_value=1_000_000))
    def test_serialisation_round_trips(self, max_age):
        clock = Clock(Instant.from_date(2024, 1, 1))
        cache = PolicyCache(clock)
        cache.store("b.example", _policy(max_age), "id0002")
        cache.store("a.example", _policy(max_age), "id0001")
        cache.get("a.example")
        data = cache.to_dict()
        rehydrated = PolicyCache.from_dict(data, Clock(clock.now()))
        assert rehydrated.to_dict() == data
        domains = [entry["domain"] for entry in data["entries"]]
        assert domains == sorted(domains)
        entry = CachedPolicy.from_dict(data["entries"][0])
        assert entry.policy == _policy(max_age)

    @settings(max_examples=60, deadline=None)
    @given(max_age=st.integers(min_value=10, max_value=1_000_000),
           window=st.integers(min_value=1, max_value=1_000_000))
    def test_refresh_before_expiry_revalidates_unchanged_id(
            self, max_age, window):
        """Within the refresh window and with an unchanged record id,
        the daemon re-stores the cached policy (restarting the max_age
        clock, per RFC 8461) without refetching the body."""
        clock = Clock(Instant.from_date(2024, 1, 1))
        cache = PolicyCache(clock)
        fetcher = StubFetcher(record_id="id0007", max_age=max_age)
        cache.store("recipient.example", fetcher.policy, "id0007")
        daemon = RefreshDaemon(cache, fetcher, clock,
                               refresh_window=Duration(window))
        # age the entry to just inside the refresh horizon
        advance = max(0, max_age - window)
        clock.advance(Duration(advance))
        results = daemon.run_once()
        assert [r.action for r in results] == ["revalidated"]
        assert fetcher.fetches == 0
        entry = cache.peek("recipient.example")
        assert entry.record_id == "id0007"
        assert entry.fetched_at == clock.now()     # clock restarted
        # outside the horizon nothing is due
        assert not daemon.due_entries() or window >= max_age

    @settings(max_examples=40, deadline=None)
    @given(max_age=st.integers(min_value=1, max_value=1_000_000))
    def test_expiry_forces_refetch(self, max_age):
        clock = Clock(Instant.from_date(2024, 1, 1))
        cache = PolicyCache(clock)
        cache.store("recipient.example", _policy(max_age), "id0001")
        clock.advance(Duration(max_age + 1))
        assert cache.get("recipient.example") is None
        # needs_refresh treats the expired entry as absent: any live
        # record id obliges a refetch
        assert cache.needs_refresh("recipient.example", "id0001")

    def test_refresh_handles_id_change_and_missing_record(self):
        clock = Clock(Instant.from_date(2024, 1, 1))
        cache = PolicyCache(clock)
        fetcher = StubFetcher(record_id="id0001")
        cache.store("recipient.example", _policy(86_400), "id0001")
        daemon = RefreshDaemon(cache, fetcher, clock,
                               refresh_window=Duration(86_400 * 2))
        # id changed -> full refetch
        fetcher.record_id = "id0002"
        assert [r.action for r in daemon.run_once()] == ["refreshed"]
        assert cache.peek("recipient.example").record_id == "id0002"
        assert fetcher.fetches == 1
        # record vanished -> skipped, cached policy left to age out
        fetcher.record_available = False
        assert [r.action for r in daemon.run_once()] == ["skipped"]
        assert cache.peek("recipient.example") is not None

    def test_refresh_survives_restart(self):
        """The fetch → refresh → expiry lifecycle continues correctly
        across a simulated restart (cache rehydration)."""
        clock = Clock(Instant.from_date(2024, 1, 1))
        cache = PolicyCache(clock)
        fetcher = StubFetcher(record_id="id0001", max_age=86_400)
        cache.store("recipient.example", fetcher.policy, "id0001")
        clock.advance(Duration(80_000))
        persisted = cache.to_dict()

        restarted_clock = Clock(clock.now())
        rehydrated = PolicyCache.from_dict(persisted, restarted_clock)
        daemon = RefreshDaemon(rehydrated, fetcher, restarted_clock)
        # entry is 80000s old with 6400s left: inside the daily window
        assert [r.action for r in daemon.run_once()] == ["revalidated"]
        entry = rehydrated.peek("recipient.example")
        assert entry.fetched_at == restarted_clock.now()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCliDeliver:
    _ARGS = ["campaign", "deliver", "--scale", str(SCALE),
             "--seed", str(SEED), "--month", str(MONTH),
             "--senders", "12", "--messages-per-sender", "3",
             "--backpressure", "20", "--fault-seed", str(FAULT_SEED),
             "--fault-rate", "0.35"]

    def test_artifacts_match_the_library_run(self, capsys, tmp_path):
        from repro.cli import main
        ledger = tmp_path / "ledger.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        assert main(self._ARGS + ["--ledger-out", str(ledger),
                                  "--metrics-out", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "delivery:" in out
        assert "ledger sha256" in out
        result = run_delivery_campaign(DeliveryCampaignConfig(
            scale=SCALE, seed=SEED, month_index=MONTH, senders=12,
            messages_per_sender=3, backpressure=20, fault_seed=FAULT_SEED,
            fault_rate=0.35))
        assert ledger.read_text(encoding="utf-8") == result.ledger_text
        assert (metrics.read_text(encoding="utf-8")
                == result.monitor.to_jsonl())

    def test_resume_requires_state_dir(self, capsys):
        from repro.cli import main
        assert main(["campaign", "deliver", "--resume"]) == 2
        assert "--resume requires" in capsys.readouterr().err

    def test_threshold_flags_drive_exit_code(self, capsys):
        from repro.cli import main
        # an absurdly strict bounce bound alerts on the faulted run
        assert main(self._ARGS + ["--bounce-rate-alert", "0.0"]) == 1
        out = capsys.readouterr().out
        assert "ALERT" in out

    def test_state_dir_commits_and_resumes(self, capsys, tmp_path):
        from repro.cli import main
        state = tmp_path / "state"
        assert main(self._ARGS + ["--state-dir", str(state)]) == 0
        first = capsys.readouterr().out
        assert main(self._ARGS + ["--state-dir", str(state),
                                  "--resume"]) == 0
        second = capsys.readouterr().out
        digest = [line for line in first.splitlines()
                  if "ledger sha256" in line]
        assert digest and digest == [
            line for line in second.splitlines()
            if "ledger sha256" in line]

    def test_plain_campaign_subcommand_still_routes(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["campaign", "--scale", "0.01"])
        assert args.handler.__name__ == "_cmd_campaign"
        args = build_parser().parse_args(["campaign", "deliver"])
        assert args.handler.__name__ == "_cmd_campaign_deliver"


def _tree(root):
    """Every file under *root* with its bytes, keyed by relative path."""
    return {os.path.relpath(os.path.join(folder, name), root):
            open(os.path.join(folder, name), "rb").read()
            for folder, _, names in os.walk(root) for name in names}


class TestStateDirOwnership:
    """Committed state is never silently replaced: a fresh run on a
    committed delivery dir, and either workload on the other's dir,
    exits 1 and leaves the directory byte-identical."""

    @pytest.fixture(scope="class")
    def delivery_dir(self, tmp_path_factory):
        from repro.cli import main
        state = tmp_path_factory.mktemp("delivery") / "state"
        assert main(TestCliDeliver._ARGS + ["--state-dir", str(state)]) == 0
        return state

    def _refused(self, capsys, state, args):
        from repro.cli import main
        before = _tree(state)
        assert main(args + ["--state-dir", str(state)]) == 1
        assert "error:" in capsys.readouterr().err
        assert _tree(state) == before

    def test_fresh_delivery_run_keeps_committed_waves(
            self, capsys, tmp_path, delivery_dir):
        state = tmp_path / "state"
        shutil.copytree(delivery_dir, state)
        args = list(TestCliDeliver._ARGS)
        args[args.index("--senders") + 1] = "5"
        self._refused(capsys, state, args)

    def test_delivery_run_keeps_a_scan_campaign(self, capsys, tmp_path,
                                                clean_state):
        state = tmp_path / "state"
        shutil.copytree(clean_state, state)
        self._refused(capsys, state, TestCliDeliver._ARGS)

    def test_scan_campaign_keeps_a_delivery_dir(self, capsys, tmp_path,
                                                delivery_dir):
        state = tmp_path / "state"
        shutil.copytree(delivery_dir, state)
        self._refused(capsys, state, ["campaign", "--scale", "0.002"])
