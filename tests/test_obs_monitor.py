"""Campaign health monitoring: threshold triggering, drift rows, feed
(de)serialisation, and the ``campaign`` / ``monitor`` CLI surface.

The two load-bearing scenarios come straight from the acceptance
criteria: a clean 12-month campaign must evaluate all-OK with the
default thresholds, and a fault-plan-induced transient spike in a
later month must surface as an ALERT naming that month."""

from __future__ import annotations

import json

import pytest

from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import (
    EcosystemTimeline, IncrementalMaterializer, TimelineConfig,
)
from repro.measurement.executor import ScanExecutor, ScanStats
from repro.measurement.snapshots import SnapshotStore
from repro.netsim.network import FaultPlan
from repro.obs.monitor import (
    ALERT, CACHE_HIT_RATE, OK, RETRIES_PER_DOMAIN, TRANSIENT_RATE, WARN,
    CampaignMonitor, FeedRecord, Thresholds, build_month_registry,
)

SCALE = 0.003
SEED = 1789


def make_stats(**overrides) -> ScanStats:
    """A plausible clean scan month, overridable per test."""
    values = dict(domains_scanned=1000, dns_queries=4000,
                  dns_cache_hits=2000, dns_negative_cache_hits=100,
                  policy_fetches=800, smtp_probes=1500,
                  smtp_probe_cache_hits=700, pkix_validations=900,
                  pkix_cache_hits=400, connect_retries=30,
                  faults_injected=0, transient_domains=0,
                  retry_backoff_seconds=1.5)
    values.update(overrides)
    return ScanStats(**values)


def observe(monitor: CampaignMonitor, month: int, **overrides):
    return monitor.observe_month(month, f"2024-{month + 1:02d}-01",
                                 make_stats(**overrides))


class TestMonthRecord:
    """A month record's signals, read through the campaign rule signals."""

    def test_derived_signals(self):
        metrics = build_month_registry(
            make_stats(transient_domains=20, connect_retries=500))
        assert metrics.get("scan.domains") == 1000
        assert TRANSIENT_RATE.read(metrics) == pytest.approx(0.02)
        assert RETRIES_PER_DOMAIN.read(metrics) == pytest.approx(0.5)
        # hits / (misses + hits)
        assert CACHE_HIT_RATE["dns"].read(metrics) == pytest.approx(
            2000 / 6000)
        assert CACHE_HIT_RATE["smtp"].read(metrics) == pytest.approx(
            700 / 2200)

    def test_backoff_recorded_as_integer_millis(self):
        metrics = build_month_registry(
            make_stats(retry_backoff_seconds=1.2345))
        assert metrics.get("net.backoff_millis") == 1234

    def test_zero_domains_are_safe(self):
        metrics = build_month_registry(ScanStats())
        assert TRANSIENT_RATE.read(metrics) == 0.0
        assert RETRIES_PER_DOMAIN.read(metrics) == 0.0
        assert CACHE_HIT_RATE["dns"].read(metrics) == 0.0


class TestThresholds:
    def test_clean_months_all_ok(self):
        monitor = CampaignMonitor()
        for month in range(3):
            observe(monitor, month)
        report = monitor.health()
        assert report.ok()
        assert len(report.findings) == 3
        assert all(f.level == OK for f in report.findings)

    def test_absolute_transient_rate_alerts(self):
        monitor = CampaignMonitor()
        observe(monitor, 0)
        observe(monitor, 1, transient_domains=50)   # 5% > 2%
        report = monitor.health()
        assert report.level == ALERT
        metrics = {f.metric for f in report.at_level(ALERT)}
        assert "transient-rate" in metrics
        assert all(f.index == 1 for f in report.at_level(ALERT))

    def test_transient_jump_alerts_below_absolute_bound(self):
        monitor = CampaignMonitor()
        observe(monitor, 0)
        observe(monitor, 1, transient_domains=15)   # 1.5% < 2% absolute
        report = monitor.health()
        metrics = {f.metric for f in report.at_level(ALERT)}
        assert metrics == {"transient-rate-jump"}

    def test_cache_collapse_warns(self):
        monitor = CampaignMonitor()
        observe(monitor, 0, dns_queries=4000, dns_cache_hits=6000)
        observe(monitor, 1, dns_queries=9500, dns_cache_hits=500)
        report = monitor.health()
        assert report.level == WARN
        assert {f.metric for f in report.at_level(WARN)} == {
            "dns-cache-collapse"}

    def test_retry_spike_warns(self):
        monitor = CampaignMonitor()
        observe(monitor, 0, connect_retries=0)
        observe(monitor, 1, connect_retries=700)    # +0.7/domain > 0.5
        report = monitor.health()
        assert {f.metric for f in report.at_level(WARN)} == {"retry-spike"}

    def test_bucket_shift_warns(self):
        monitor = CampaignMonitor()
        first = build_month_registry(make_stats())
        first.count("taxonomy.ok", 1000)
        second = build_month_registry(make_stats())
        second.count("taxonomy.ok", 800)
        second.count("taxonomy.not-sts", 200)       # 20% shift > 15%
        monitor.add_record(FeedRecord(0, "2024-01-01", first))
        monitor.add_record(FeedRecord(1, "2024-02-01", second))
        report = monitor.health()
        metrics = {f.metric for f in report.at_level(WARN)}
        assert metrics == {"taxonomy-shift:not-sts", "taxonomy-shift:ok"}

    def test_thresholds_are_configurable(self):
        lax = Thresholds(transient_rate_alert=0.5,
                         transient_jump_alert=0.5)
        monitor = CampaignMonitor(lax)
        observe(monitor, 0)
        observe(monitor, 1, transient_domains=50)
        assert monitor.health().ok()

    def test_thresholds_as_dict(self):
        data = Thresholds().as_dict()
        assert set(data) == {
            "transient_rate_alert", "transient_jump_alert",
            "cache_hit_drop_warn", "bucket_shift_warn",
            "retry_jump_warn"}

    def test_report_render_and_as_dict(self):
        monitor = CampaignMonitor()
        observe(monitor, 0)
        observe(monitor, 1, transient_domains=50)
        report = monitor.health()
        text = report.render()
        assert text.startswith("campaign health: ALERT")
        assert "m01" in text
        data = report.as_dict()
        assert data["level"] == ALERT
        assert any(f["metric"] == "transient-rate"
                   for f in data["findings"])


class TestCleanCampaign:
    """The acceptance-criterion scenario: a full clean campaign is
    all-OK under the default thresholds."""

    @pytest.fixture(scope="class")
    def monitored(self):
        from repro.analysis.series import run_campaign
        timeline = EcosystemTimeline(
            TimelineConfig(PopulationConfig(scale=SCALE, seed=SEED)))
        monitor = CampaignMonitor()
        analysis = run_campaign(timeline, monitor=monitor)
        return monitor, analysis

    def test_twelve_months_observed(self, monitored):
        monitor, analysis = monitored
        assert [r.month_index for r in monitor.records] == list(range(12))
        for record in monitor.records:
            month_stats = analysis.stats_by_month[record.month_index]
            assert (record.metrics.get("scan.domains")
                    == month_stats.domains_scanned)

    def test_all_ok(self, monitored):
        monitor, _ = monitored
        report = monitor.health()
        assert report.ok(), report.render()
        assert len(report.findings) == 12

    def test_drift_rows(self, monitored):
        monitor, _ = monitored
        rows = monitor.drift()
        assert len(rows) == 12
        assert "transient_jump" not in rows[0]
        assert all("transient_jump" in row for row in rows[1:])
        assert all(0.0 <= row["dns_hit_rate"] <= 1.0 for row in rows)

    def test_feed_round_trips(self, monitored):
        monitor, _ = monitored
        rebuilt = CampaignMonitor.from_jsonl(monitor.to_jsonl())
        assert [r.metrics.to_dict() for r in rebuilt.records] == [
            r.metrics.to_dict() for r in monitor.records]
        assert rebuilt.health().as_dict() == monitor.health().as_dict()
        assert rebuilt.drift() == monitor.drift()

    def test_write_jsonl_atomic(self, monitored, tmp_path):
        monitor, _ = monitored
        path = tmp_path / "metrics.jsonl"
        assert monitor.write_jsonl(str(path)) == 12
        rebuilt = CampaignMonitor.from_jsonl(
            path.read_text(encoding="utf-8"))
        assert len(rebuilt.records) == 12


class TestFaultSpike:
    """A fault plan installed mid-campaign must surface as an ALERT on
    exactly the poisoned month."""

    def test_injected_spike_alerts(self):
        timeline = EcosystemTimeline(
            TimelineConfig(PopulationConfig(scale=SCALE, seed=SEED)))
        materializer = IncrementalMaterializer(timeline)
        executor = ScanExecutor()
        monitor = CampaignMonitor()
        store = SnapshotStore()
        for month in range(4):
            materialized = materializer.materialize(month)
            if month == 3:
                materialized.world.network.install_fault_plan(
                    FaultPlan.seeded(seed=7, rate=0.5))
            _, stats = executor.scan(
                materialized.world, materialized.deployed.keys(), month,
                store, materialized.instant)
            monitor.observe_month(
                month, materialized.instant.date_string(), stats,
                store.month(month), build_stats=materialized.build_stats)

        report = monitor.health()
        assert report.level == ALERT, report.render()
        alerts = report.at_level(ALERT)
        assert {f.index for f in alerts} == {3}
        assert "transient-rate" in {f.metric for f in alerts}
        # The months before the plan landed stay clean.
        clean = [f for f in report.findings if f.index < 3]
        assert all(f.level == OK for f in clean)


class TestLiveFeed:
    def test_observed_months_appended_as_they_complete(self, tmp_path):
        path = tmp_path / "live.jsonl"
        monitor = CampaignMonitor(jsonl_path=str(path))
        observe(monitor, 0)
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1
        observe(monitor, 1)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == monitor.to_jsonl_lines()
        for line in lines:
            assert json.loads(line)["type"] == "month"


class TestCliMonitor:
    def write_feed(self, tmp_path, *, spike: bool) -> str:
        monitor = CampaignMonitor()
        observe(monitor, 0)
        observe(monitor, 1,
                transient_domains=50 if spike else 0)
        path = tmp_path / "feed.jsonl"
        monitor.write_jsonl(str(path))
        return str(path)

    def test_clean_feed_exits_zero(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["monitor", self.write_feed(tmp_path,
                                                spike=False)]) == 0
        out = capsys.readouterr().out
        assert "month-over-month scan health" in out
        assert "campaign health: OK" in out

    def test_alerting_feed_exits_one(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["monitor", self.write_feed(tmp_path,
                                                spike=True)]) == 1
        assert "ALERT" in capsys.readouterr().out

    def test_empty_feed_exits_one(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert main(["monitor", str(path)]) == 1

    def test_threshold_arguments_validated(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as excinfo:
            main(["monitor", "feed.jsonl",
                  "--transient-rate-alert", "1.5"])
        assert excinfo.value.code == 2
        assert "--transient-rate-alert" in capsys.readouterr().err


class TestCliCampaign:
    def test_campaign_writes_feed_and_reports(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "metrics.jsonl"
        assert main(["campaign", "--scale", "0.002",
                     "--seed", str(SEED),
                     "--metrics-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "month-over-month scan health" in out
        assert "campaign health: OK" in out
        records = path.read_text(encoding="utf-8").splitlines()
        assert len(records) == 12
        rebuilt = CampaignMonitor.from_jsonl("\n".join(records))
        assert rebuilt.health().ok()
