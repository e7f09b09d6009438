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
  fault plan (seed 4242): every integer field of ``DeliveryStats``.

These are the passes ``perfbench/workloads.py`` times.  A moved
counter is either a regression or a deliberate change of work, to be
re-baselined with the diff explained.
"""

import os

from repro.analysis.series import run_campaign
from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig
from repro.measurement.delivery_campaign import (
    DeliveryCampaignConfig, run_delivery_campaign,
)
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


def test_deliver_work_counters():
    result = run_delivery_campaign(DeliveryCampaignConfig(
        seed=11, scale=0.02, month_index=3, senders=2394,
        messages_per_sender=1, fault_seed=4242, fault_rate=0.2,
        tlsrpt=True))
    assert _int_fields(result.stats.to_dict()) == DELIVER_GOLDEN
