"""Exact work-counter goldens for the two benchmarked passes.

Wall time is noisy; the work a pass does is not.  Every integer field
below is a pure function of the code and the seed, so a change that
adds one DNS query, one connect or one PKIX validation per domain
fails here even when it hides inside timing noise.

* **campaign** — the 12-month incremental serial scan at scale 0.005,
  seed 20240929, checkpointed to a state directory: every integer
  field of ``total_stats()`` plus the bytes of the committed shards.
* **deliver** — the 2,394-sender census, one message each, into the
  month-3 world at scale 0.02 (seed 11) with TLSRPT on and a 0.2-rate
  fault plan (seed 4242): every integer field of ``DeliveryStats``,
  plus the number of sender-lane runs.  Only lanes with work run in a
  wave; running all 2,394 lanes in each of the 31 waves would make
  74,214.

These are the passes ``perfbench/workloads.py`` times.  A moved
counter is either a regression or a deliberate change of work, to be
re-baselined with the diff explained.

The delivery goldens pin configurations that pass never reaches, all
at scale 0.004, seed 11, month 3 and fault seed 4242: a trickle of 12
senders x 10 messages under backpressure 3 at fault rate 0.5 (185
waves without TLSRPT, in which idle lanes still refresh due policies;
215 with it), and the 40-sender campaign of
``test_delivery_campaign.py`` at fault rate 0.35, whole and stopped
after three waves into a state directory and resumed.  Each pins every
integer field of ``DeliveryStats`` plus the sha256 of the ledger, the
monitor feed and the received TLSRPT reports.  The resumed run writes
the whole run's bytes; its world counters (DNS queries, connects,
faults) count only the resumed process's traffic.

The serve golden pins the replay CI's ``serve-determinism`` job runs:
scale 0.01, seed 11, query seed 97, 20,000 requests in ticks of 250
over 2 months.  A tick then advances about 0.75 virtual days, less than
the 1-day verdict TTL, so verdicts cached in one tick are served in
later ones (``hits``); at ticks of 1,000 a tick spans about 3 days and
every cached verdict expires unused.
"""

import hashlib
import os

import pytest

from repro.analysis.series import run_campaign
from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig
from repro.measurement.delivery_campaign import (
    DeliveryCampaignConfig, _SenderLane, run_delivery_campaign,
)
from repro.measurement.serve import ServeConfig, run_serve
from repro.measurement.store_io import MANIFEST_NAME

CAMPAIGN_GOLDEN = {
    "checkpoints_written": 12,
    "connect_retries": 0,
    "dns_cache_hits": 8668,
    "dns_negative_cache_hits": 668,
    "dns_queries": 31248,
    "domains_scanned": 3353,
    "faults_injected": 0,
    "jobs": 1,
    "months": 12,
    "pkix_cache_hits": 0,
    "pkix_validations": 5075,
    "policy_fetches": 3353,
    "smtp_probe_cache_hits": 3165,
    "smtp_probes": 1748,
    "transient_domains": 0,
    "store_bytes": 3304523,
}

DELIVER_GOLDEN = {
    "attempts": 5440,
    "bounced": 583,
    "connects": 36693,
    "delivered": 1811,
    "delivered_plaintext": 114,
    "dns_queries": 15622,
    "faults_injected": 26216,
    "messages": 2394,
    "month_index": 3,
    "queue_depth_peak": 406,
    "report_attempts": 1059,
    "reports_bounced": 6,
    "reports_delivered": 961,
    "reports_generated": 1838,
    "reports_missing_endpoint": 871,
    "reports_received": 961,
    "seed": 11,
    "senders": 2394,
    "waves": 31,
}
DELIVER_LANE_RUNS = 10986


def _int_fields(data):
    return {key: value for key, value in data.items()
            if isinstance(value, int) and not isinstance(value, bool)}


def test_campaign_work_counters(tmp_path):
    state_dir = str(tmp_path / "state")
    timeline = EcosystemTimeline(TimelineConfig(
        PopulationConfig(scale=0.005, seed=20240929)))
    live = run_campaign(timeline, state_dir=state_dir)
    store_bytes = sum(entry.stat().st_size
                      for entry in os.scandir(state_dir)
                      if entry.name != MANIFEST_NAME)
    counters = {**_int_fields(live.total_stats().as_dict()),
                "store_bytes": store_bytes}
    assert counters == CAMPAIGN_GOLDEN


def test_deliver_work_counters(monkeypatch):
    lane_runs = []
    run_wave = _SenderLane.run_wave

    def counted_run_wave(lane, *args, **kwargs):
        lane_runs.append(lane.identity)
        return run_wave(lane, *args, **kwargs)

    monkeypatch.setattr(_SenderLane, "run_wave", counted_run_wave)
    result = run_delivery_campaign(DeliveryCampaignConfig(
        seed=11, scale=0.02, month_index=3, senders=2394,
        messages_per_sender=1, fault_seed=4242, fault_rate=0.2,
        tlsrpt=True))
    assert _int_fields(result.stats.to_dict()) == DELIVER_GOLDEN
    assert len(lane_runs) == DELIVER_LANE_RUNS


_SMALL_WORLD = dict(scale=0.004, seed=11, month_index=3, fault_seed=4242)
_TRICKLE = dict(senders=12, messages_per_sender=10, backpressure=3,
                fault_rate=0.5)
_RESUMABLE = dict(senders=40, messages_per_sender=5, backpressure=60,
                  fault_rate=0.35)
_NO_REPORTS = {
    "report_attempts": 0, "reports_bounced": 0, "reports_delivered": 0,
    "reports_generated": 0, "reports_missing_endpoint": 0,
    "reports_received": 0,
    "reports_sha256": ("e3b0c44298fc1c149afbf4c8996fb924"
                       "27ae41e4649b934ca495991b7852b855"),
}
_TRICKLE_MESSAGES = {
    "attempts": 278, "bounced": 46, "delivered": 74,
    "delivered_plaintext": 8, "messages": 120, "month_index": 3,
    "queue_depth_peak": 3, "seed": 11, "senders": 12,
}
_RESUMABLE_GOLDEN = {
    "attempts": 455, "bounced": 58, "delivered": 142,
    "delivered_plaintext": 9, "messages": 200, "month_index": 3,
    "queue_depth_peak": 37, "seed": 11, "senders": 40, "waves": 13,
    "ledger_sha256": ("13be1eabe88927551341bff7ae63b4bd"
                      "a4689cdabf21209af8c6e16c5156349d"),
    "monitor_sha256": ("43c8775d869c89b68a3a51ca4389a67b"
                       "a2eb77c32e464e9f294525122a858924"),
    **_NO_REPORTS,
}

#: name -> (config overrides, waves before the stop-and-resume or
#: ``None`` for one uninterrupted run, golden)
DELIVERY_GOLDENS = {
    "trickle": (_TRICKLE, None, {
        **_TRICKLE_MESSAGES, "waves": 185,
        "connects": 2351, "dns_queries": 1257, "faults_injected": 1410,
        "ledger_sha256": ("29d278ac23bd47ba328c5dada6c3ee1b"
                          "5c5fa6271b7ff1cbc0c41bf09a179657"),
        "monitor_sha256": ("a64811ed2a7874a5cb3f79662140cbb9"
                           "a72fb5d08bf5c3a50921df776aeb4585"),
        **_NO_REPORTS,
    }),
    "trickle-tlsrpt": (dict(_TRICKLE, tlsrpt=True), None, {
        **_TRICKLE_MESSAGES, "waves": 215,
        "connects": 2772, "dns_queries": 1478, "faults_injected": 1608,
        "ledger_sha256": ("b029979d1804ced7fa58276ef56ce8a0"
                          "5028a3e43a7ac4304c48322697895c03"),
        "monitor_sha256": ("011fb45b45e0016ce272fa78302e8079"
                           "4dad38a62d6f4f120420557a7ec4e662"),
        "report_attempts": 67, "reports_bounced": 3,
        "reports_delivered": 38, "reports_generated": 80,
        "reports_missing_endpoint": 39, "reports_received": 38,
        "reports_sha256": ("a41983797f6be6e4eb4e37a081bf50f2"
                           "7e99ea1bbcd63a7d4647b5ccea9b49d2"),
    }),
    "resumable": (_RESUMABLE, None, {
        **_RESUMABLE_GOLDEN,
        "connects": 2803, "dns_queries": 1405, "faults_injected": 1736,
    }),
    "resumable-resumed": (_RESUMABLE, 3, {
        **_RESUMABLE_GOLDEN,
        "connects": 2207, "dns_queries": 1167, "faults_injected": 1417,
    }),
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(DELIVERY_GOLDENS))
def test_delivery_goldens(name, tmp_path):
    overrides, resume_after, golden = DELIVERY_GOLDENS[name]
    config = DeliveryCampaignConfig(**_SMALL_WORLD, **overrides)
    if resume_after is None:
        result = run_delivery_campaign(config)
    else:
        state_dir = str(tmp_path / "state")
        run_delivery_campaign(config, state_dir=state_dir,
                              max_waves=resume_after)
        result = run_delivery_campaign(config, state_dir=state_dir,
                                       resume=True)
    assert {**_int_fields(result.stats.to_dict()),
            "ledger_sha256": _sha256(result.ledger_text),
            "monitor_sha256": _sha256(result.monitor.to_jsonl()),
            "reports_sha256": _sha256(result.tlsrpt_reports_jsonl),
            } == golden


SERVE_GOLDEN = {
    "seed": 11, "query_seed": 97, "months": 2,
    "requests": 40000, "flash_requests": 20000,
    "computations": 6376, "hits": 11532, "collapsed": 22092,
    "evictions": 5628, "stampede_fanin_peak": 4000, "windows": 10,
    "cache_entries": 748,
    "feed_sha256": ("c8186d8e637f92388018f92c1c0deec9"
                    "8da9a307ec04eef8a155efbb2263cde0"),
}


def test_serve_goldens():
    result = run_serve(ServeConfig(scale=0.01, seed=11, query_seed=97,
                                   requests=20_000, batch_size=250,
                                   months=2))
    assert {**_int_fields(result.stats.comparable()),
            "feed_sha256": _sha256(result.monitor.to_jsonl()),
            } == SERVE_GOLDEN
    assert result.p99_latency_seconds == 1.0
