"""Golden digests of every health monitor's output.

Each of the four monitors is fed synthetic records that trip every one
of its rules at least once, next to all-OK records, and the test pins
sha256 digests of what the monitor emits: the metrics feed
(``to_jsonl``), the health report as canonical JSON, the default
threshold set, and for the campaign monitor the rendered report and the
drift table.  Finding details, finding order and values are all inside
those digests, so any change to how a rule is evaluated or worded
shows up here.
"""

from __future__ import annotations

import hashlib
import json

from repro.analysis.report import render_drift_table
from repro.clock import DAY, Instant
from repro.core.tlsrpt import (
    FailureDetail, PolicySummary, ResultType, TlsRptReport,
)
from repro.measurement.executor import ScanStats
from repro.obs.exporters import month_jsonl_line
from repro.obs.monitor import (
    CampaignMonitor, DeliveryMonitor, DeliveryThresholds, ServeMonitor,
    ServeThresholds, Thresholds, build_month_registry,
)
from repro.obs.tlsrpt_monitor import TlsRptMonitor, TlsRptThresholds
from repro.trace import Histogram, MetricsRegistry


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def feed(registries) -> str:
    """A metrics feed of one record per registry, indexed from 0."""
    return "\n".join(month_jsonl_line(index, f"2024-{index + 1:02d}-01",
                                      registry)
                     for index, registry in enumerate(registries)) + "\n"


def registry_of(counters) -> MetricsRegistry:
    registry = MetricsRegistry()
    for key, value in counters.items():
        registry.count(key, value)
    return registry


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------

def scan_stats(**overrides) -> ScanStats:
    values = dict(domains_scanned=1000, dns_queries=4000,
                  dns_cache_hits=2000, dns_negative_cache_hits=100,
                  policy_fetches=800, smtp_probes=1500,
                  smtp_probe_cache_hits=700, pkix_validations=900,
                  pkix_cache_hits=400, connect_retries=30,
                  faults_injected=0, transient_domains=0,
                  retry_backoff_seconds=1.5)
    values.update(overrides)
    return ScanStats(**values)


#: Per-month ScanStats overrides, observed live: clean months, the
#: transient share over its absolute bound, a jump below that bound, a
#: DNS cache collapse, a retry spike and a month with no domains.
CAMPAIGN_MONTHS = (
    {},
    {},
    {"transient_domains": 50, "faults_injected": 300},
    {"transient_domains": 15},
    {"dns_queries": 9500, "dns_cache_hits": 500},
    {"connect_retries": 800, "retry_backoff_seconds": 12.3456},
    {},
    {"domains_scanned": 0, "dns_queries": 0, "dns_cache_hits": 0,
     "smtp_probes": 0, "smtp_probe_cache_hits": 0,
     "connect_retries": 0},
    {},
)

#: Taxonomy censuses and SMTP cache counters, read back from a feed:
#: bucket shifts both ways and an SMTP cache collapse.
CAMPAIGN_CENSUSES = (
    ({"ok": 900, "not-sts": 100}, {}),
    ({"ok": 880, "not-sts": 120}, {}),
    ({"ok": 600, "not-sts": 250, "dns-record": 150},
     {"smtp_probes": 2100, "smtp_probe_cache_hits": 100}),
    ({"ok": 610, "not-sts": 240, "dns-record": 150}, {}),
    ({"ok": 400, "mx-certificate": 350, "inconsistency": 250},
     {"transient_domains": 5}),
)


def live_campaign(thresholds=None) -> CampaignMonitor:
    monitor = CampaignMonitor(thresholds)
    for month, overrides in enumerate(CAMPAIGN_MONTHS):
        monitor.observe_month(month, f"2024-{month + 1:02d}-01",
                              scan_stats(**overrides),
                              build_stats={"deployed_new": month * 3,
                                           "removed": month % 2})
    return monitor


def census_campaign() -> CampaignMonitor:
    return CampaignMonitor.from_jsonl(feed(
        build_month_registry(scan_stats(**overrides), bucket_census=census)
        for census, overrides in CAMPAIGN_CENSUSES))


# ---------------------------------------------------------------------------
# Delivery
# ---------------------------------------------------------------------------

def wave(finalized, delivered, plaintext, bounced, attempts, refused,
         depth) -> MetricsRegistry:
    return registry_of({
        "deliver.finalized": finalized, "deliver.delivered": delivered,
        "deliver.delivered_plaintext": plaintext,
        "deliver.bounced": bounced, "deliver.attempts": attempts,
        "deliver.refused_attempts": refused,
        "deliver.queue_depth": depth})


#: Cumulative rates: clean waves, a bounce burst, a plaintext burst, a
#: refusal burst, a queue over the backpressure bound, an empty wave.
DELIVERY_WAVES = (
    wave(100, 95, 5, 5, 120, 3, 40),
    wave(100, 96, 4, 4, 110, 2, 50),
    wave(200, 40, 10, 160, 260, 20, 60),
    wave(100, 60, 58, 40, 130, 10, 70),
    wave(100, 90, 10, 10, 600, 450, 80),
    wave(0, 0, 0, 0, 0, 0, 130),
    wave(400, 398, 2, 2, 410, 1, 20),
)


def delivery_monitor(**options) -> DeliveryMonitor:
    monitor = DeliveryMonitor(**options)
    for index, registry in enumerate(DELIVERY_WAVES):
        monitor.observe_wave(index, f"2024-01-{index + 1:02d}", registry)
    return monitor


# ---------------------------------------------------------------------------
# Serve
# ---------------------------------------------------------------------------

def window(requests, hits, collapsed, fanin, latency) -> MetricsRegistry:
    registry = registry_of({
        "serve.requests": requests,
        "serve.computations": requests - hits - collapsed,
        "serve.hits": hits, "serve.collapsed": collapsed,
        "serve.stampede_fanin_peak": fanin, "serve.month": 0,
        "serve.cache_entries": hits // 2, "serve.evictions": 1})
    if latency is not None:
        histogram = registry.histograms["serve.latency"] = Histogram()
        for micros in latency:
            histogram.observe_micros(micros)
    return registry


#: A cold start under the cumulative floor, warm windows, a p99 latency
#: spike, a fan-in spike, an overflowing latency bucket and a window
#: without a latency histogram.
SERVE_WINDOWS = (
    window(1000, 100, 50, 3, [2_000_000] * 5 + [20_000] * 95),
    window(1000, 700, 200, 10, [20_000] * 100),
    window(2000, 1700, 250, 12, [20_000] * 90 + [9_000_000] * 10),
    window(3000, 1000, 1900, 60_000, [20_000] * 100),
    window(500, 450, 40, 7, [20_000] * 98 + [10_000_000_000] * 2),
    window(100, 90, 5, 4, None),
    window(5000, 4500, 400, 20, [20_000] * 100),
)


def serve_monitor(thresholds=None) -> ServeMonitor:
    return ServeMonitor.from_jsonl(feed(SERVE_WINDOWS), thresholds)


# ---------------------------------------------------------------------------
# TLSRPT
# ---------------------------------------------------------------------------

def tlsrpt_report(day: int, domain: str, org: str, successes: int,
                  failures) -> TlsRptReport:
    start = Instant(0) + DAY * day
    details = [FailureDetail(rtype, "mx." + domain, count)
               for rtype, count in failures]
    summary = PolicySummary(
        policy_type="sts", policy_domain=domain,
        total_successful_sessions=successes,
        total_failed_sessions=sum(count for _, count in failures),
        failure_details=details)
    return TlsRptReport(
        organization_name=org, contact_info=f"tls@{org}",
        report_id=f"{day}-{domain}-{org}",
        window_start=start, window_end=start + DAY, policies=[summary])


#: Windows (by start day): clean, WARN band, ALERT band, a window with
#: no sessions, and seven failing organisations (over the top-N cut).
TLSRPT_REPORTS = (
    tlsrpt_report(0, "a.com", "relay.net", 40, []),
    tlsrpt_report(0, "b.com", "mail.org", 10,
                  [(ResultType.STARTTLS_NOT_SUPPORTED, 1)]),
    tlsrpt_report(1, "a.com", "relay.net", 16,
                  [(ResultType.VALIDATION_FAILURE, 4)]),
    tlsrpt_report(2, "a.com", "relay.net", 3,
                  [(ResultType.CERTIFICATE_EXPIRED, 5),
                   (ResultType.CERTIFICATE_HOST_MISMATCH, 2)]),
    tlsrpt_report(2, "c.com", "big.relay", 0,
                  [(ResultType.STS_POLICY_FETCH_ERROR, 9)]),
    tlsrpt_report(3, "d.com", "quiet.example", 0, []),
) + tuple(
    tlsrpt_report(4, f"e{n}.com", f"org{n}.example", 20,
                  [(ResultType.VALIDATION_FAILURE, n + 1)])
    for n in range(7))


def tlsrpt_monitor(thresholds=None) -> TlsRptMonitor:
    monitor = TlsRptMonitor(thresholds)
    monitor.observe_reports(list(TLSRPT_REPORTS))
    return monitor


# ---------------------------------------------------------------------------
# The goldens
# ---------------------------------------------------------------------------

def outputs():
    campaign = live_campaign()
    census = census_campaign()
    lax_campaign = live_campaign(Thresholds(
        transient_rate_alert=0.1, transient_jump_alert=0.1,
        cache_hit_drop_warn=0.5, bucket_shift_warn=0.5,
        retry_jump_warn=2.0))
    delivery = delivery_monitor(backpressure=100)
    tlsrpt = tlsrpt_monitor()
    return {
        "campaign.jsonl": campaign.to_jsonl(),
        "campaign.health": canonical(campaign.health().as_dict()),
        "campaign.render": campaign.health().render(),
        "campaign.drift_table": render_drift_table(campaign.drift()),
        "campaign.drift_rows": canonical(campaign.drift()),
        "census.jsonl": census.to_jsonl(),
        "census.health": canonical(census.health().as_dict()),
        "census.render": census.health().render(),
        "census.drift_table": render_drift_table(census.drift()),
        "census.drift_rows": canonical(census.drift()),
        "campaign-lax.health": canonical(lax_campaign.health().as_dict()),
        "delivery.jsonl": delivery.to_jsonl(),
        "delivery.health": canonical(delivery.health().as_dict()),
        "delivery-unbounded.health": canonical(
            delivery_monitor().health().as_dict()),
        "delivery-strict.health": canonical(delivery_monitor(
            thresholds=DeliveryThresholds(
                bounce_rate_alert=0.01, plaintext_rate_warn=0.01,
                refused_rate_warn=0.01)).health().as_dict()),
        "serve.jsonl": serve_monitor().to_jsonl(),
        "serve.health": canonical(serve_monitor().health().as_dict()),
        "serve-strict.health": canonical(serve_monitor(ServeThresholds(
            hit_rate_floor_warn=0.95, p99_latency_alert=0.01,
            fanin_warn=5)).health().as_dict()),
        "tlsrpt.jsonl": tlsrpt.to_jsonl(),
        "tlsrpt.health": canonical(tlsrpt.health().as_dict()),
        "tlsrpt-strict.health": canonical(tlsrpt_monitor(
            TlsRptThresholds(failure_rate_warn=0.0,
                             failure_rate_alert=0.5)).health().as_dict()),
        "thresholds.campaign": json.dumps(Thresholds().as_dict()),
        "thresholds.delivery": json.dumps(DeliveryThresholds().as_dict()),
        "thresholds.serve": json.dumps(ServeThresholds().as_dict()),
        "thresholds.tlsrpt": json.dumps(TlsRptThresholds().as_dict()),
    }


GOLDEN = {
    "campaign.jsonl":
        "95ab96752404db7cab0a7cf19ae9490a800f8687ae6cffbae0a65008f5fef18e",
    "campaign.health":
        "2d3cc71b05ad7639d98b4367be01f4252a1d1f5525d5713889c4ae36b5a4ea05",
    "campaign.render":
        "3664bb27ee81d964f5476c8bfd75ed22a801b4d487cd8aef80c7d49872e6b6fc",
    "campaign.drift_table":
        "0c40b65b8218dfa52934bfdc8a7868eecdb01865d32b92a20f26a56bee021690",
    "campaign.drift_rows":
        "346ee407a48ed831b10c774278ac4a9436bb576d472fb205f91423fc553449c4",
    "census.jsonl":
        "2149a225f7a0c4d38f84419bbfc805dc4d78fff1af8a0e9723fb994197ce80ef",
    "census.health":
        "497d0f5cd093db0203fece42d67f349e789c3268c28f31efd175b9874ed58b41",
    "census.render":
        "299beae927b1c7cc9d5f537539f96b7503e7a1c0a65d41f8ea534fe342370678",
    "census.drift_table":
        "be93d1d4da4448c97b13451dafda5ee064e283c9f04ba91438389d65a0191b33",
    "census.drift_rows":
        "8680cb34cfa734ce5a3739f67d2bac8235df527d187d3ebe5681e6a5b138e073",
    "campaign-lax.health":
        "59ea78699f36bede5fc21bbc054c1871883c61849d79455326779242b6735ab5",
    "delivery.jsonl":
        "553ac31428281ea26a6d3d0f7819c836893bf769a4219ab801e234923f356289",
    "delivery.health":
        "e970f39dfe68ee3c7e716f3a6bb6342eb57a4169098a7b0655257d1a7fd4fdde",
    "delivery-unbounded.health":
        "495392c4a1aff7a2df8af706333eab4e2aad581ddcb8425058682ad68bd75ace",
    "delivery-strict.health":
        "deeda048c8301850c9bb4a9745fe0bb121aed8a99290899d7dbbe059c55dcc14",
    "serve.jsonl":
        "ff32d375e6c40d803fb6e2a8a61ef9fe8a727c80f1ebcb1423d5c2b21070ca37",
    "serve.health":
        "5cc2d1c0327b87129cde5373e1113fc3a8cbcb031edd3caa5e11ab5956346f4f",
    "serve-strict.health":
        "bd0c5f2b98ef5e37e3b4469ecd7df917117a0a8a458c912d4639177ec73b77fa",
    "tlsrpt.jsonl":
        "00f5c3906bc8d9480d9e01b4a34b799661042e70ab9724cfafac64947ecf5d1a",
    "tlsrpt.health":
        "2af681c26977cbc04549b508103c6297fac6829549347ef1fffefe7a4d2283a9",
    "tlsrpt-strict.health":
        "5222a23155e72e790ff8acc5b565fdd788e3f7ff33e20e7a506d753ef41ad28b",
    "thresholds.campaign":
        "cb9f1f985f6157bd19e2b89c1bfe530bd26c698d21619d36cfce55e6432db69a",
    "thresholds.delivery":
        "1726bdae4e39bfd0761fbcf0fbbbf467b53cd8338350d769c7cb20319c474b90",
    "thresholds.serve":
        "ac4c1accc7525617de532111d8f29ada93b60d806d6af692d98157a3dbaa907b",
    "thresholds.tlsrpt":
        "e768fc5a1dd59eaa921fd3b5f0415450dad622457a5c322c8bb588557c6e1268",
}


def test_every_rule_fires_somewhere():
    fired = set()
    for monitor in (live_campaign(), census_campaign(),
                    delivery_monitor(backpressure=100), serve_monitor(),
                    tlsrpt_monitor()):
        for finding in monitor.health().findings:
            fired.add((finding.level, finding.metric.split(":")[0]))
    assert fired == {
        ("OK", "all-checks"),
        ("ALERT", "transient-rate"), ("ALERT", "transient-rate-jump"),
        ("WARN", "dns-cache-collapse"), ("WARN", "smtp-cache-collapse"),
        ("WARN", "taxonomy-shift"), ("WARN", "retry-spike"),
        ("ALERT", "backpressure-violated"), ("ALERT", "bounce-rate"),
        ("WARN", "plaintext-fallback"), ("WARN", "policy-refusals"),
        ("WARN", "hit-rate-floor"), ("ALERT", "p99-latency"),
        ("WARN", "stampede-fanin"),
        ("WARN", "tlsrpt-failure-rate"), ("ALERT", "tlsrpt-failure-rate"),
    }


def test_outputs_match_goldens():
    produced = {name: digest(text) for name, text in outputs().items()}
    assert produced == GOLDEN
