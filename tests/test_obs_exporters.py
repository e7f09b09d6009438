"""The metrics exporters: Prometheus and monthly-JSONL round-trips,
fault visibility in the exported artifacts, and the atomic-write
primitive every observability writer shares."""

from __future__ import annotations

import json
import os

import pytest

from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig
from repro.fsutil import atomic_write_text
from repro.measurement.columnar import taxonomy_census_view, view_of
from repro.measurement.executor import ScanExecutor
from repro.netsim.network import FaultPlan
from repro.obs.exporters import (
    append_jsonl_line, month_jsonl_line, parse_prometheus_exposition,
    prometheus_exposition, read_month_records, write_lines_atomic,
)
from repro.obs.monitor import build_month_registry
from repro.trace import MetricsRegistry, micros

SCALE = 0.003
SEED = 1789


def scan_month(*, fault_seed=None):
    """Scan the final month on a **fresh** world and return its
    deterministic monthly registry plus the scan date."""
    timeline = EcosystemTimeline(
        TimelineConfig(PopulationConfig(scale=SCALE, seed=SEED)))
    month = len(timeline.scan_instants) - 1
    materialized = timeline.materialize(month)
    if fault_seed is not None:
        materialized.world.network.install_fault_plan(
            FaultPlan.seeded(seed=fault_seed, rate=0.3))
    store, stats = ScanExecutor().scan(
        materialized.world, materialized.deployed.keys(), month,
        instant=materialized.instant)
    census = taxonomy_census_view(view_of(store.month(month)))
    registry = build_month_registry(stats, bucket_census=census)
    return registry, month, materialized.instant.date_string()


def sample_registry() -> MetricsRegistry:
    """A hand-built registry exercising dotted/dashed keys, zero
    counters, and a histogram with an overflow observation."""
    registry = MetricsRegistry()
    registry.count("scan.domains", 420)
    registry.count("net.connect-retries", 7)
    registry.count("taxonomy.not-sts", 0)
    for seconds in (0.05, 0.3, 0.9, 2.5, 70.0, 0.3):
        registry.observe("retry.backoff", micros(seconds))
    return registry


class TestPrometheusRoundTrip:
    def test_counters_and_histograms_round_trip(self):
        registry = sample_registry()
        text = prometheus_exposition(registry)
        back = parse_prometheus_exposition(text)
        assert back.to_dict() == registry.to_dict()

    def test_round_trip_survives_labels(self):
        registry = sample_registry()
        text = prometheus_exposition(
            registry, labels={"month": "3", "campaign": "x"})
        back = parse_prometheus_exposition(text)
        assert back.to_dict() == registry.to_dict()

    def test_label_keys_sorted_and_quoted(self):
        registry = MetricsRegistry()
        registry.count("scan.domains", 1)
        text = prometheus_exposition(
            registry, labels={"month": "3", "campaign": "x"})
        assert ('repro_scan_domains_total'
                '{campaign="x",month="3"} 1') in text

    def test_keys_flattened_but_help_preserves_original(self):
        registry = MetricsRegistry()
        registry.count("net.connect-retries", 2)
        text = prometheus_exposition(registry)
        assert "repro_net_connect_retries_total 2" in text
        assert ("# HELP repro_net_connect_retries_total "
                "net.connect-retries") in text

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        for seconds in (0.05, 0.3, 70.0):
            registry.observe("retry.backoff", micros(seconds))
        text = prometheus_exposition(registry)
        inf_lines = [line for line in text.splitlines()
                     if '{le="+Inf"}' in line]
        assert len(inf_lines) == 1
        assert inf_lines[0].endswith(" 3")
        assert "repro_retry_backoff_seconds_count 3" in text

    def test_real_scan_registry_round_trips(self):
        registry, _, _ = scan_month()
        back = parse_prometheus_exposition(prometheus_exposition(registry))
        assert back.to_dict() == registry.to_dict()


class TestFaultedExport:
    def test_fault_injection_visible_in_export(self):
        registry, _, _ = scan_month(fault_seed=7)
        assert registry.get("net.faults_injected") > 0
        assert registry.get("taxonomy.transient") > 0


class TestMonthJsonl:
    def test_line_is_canonical_json(self):
        line = month_jsonl_line(3, "2024-02-01", sample_registry())
        assert "\n" not in line
        data = json.loads(line)
        assert data["type"] == "month"
        assert data["month"] == 3
        assert line == json.dumps(data, sort_keys=True,
                                  separators=(",", ":"))

    def test_read_round_trips_and_sorts(self):
        registry = sample_registry()
        lines = [month_jsonl_line(m, f"2024-0{m + 1}-01", registry)
                 for m in (2, 0, 1)]
        text = "\n".join(lines) + "\n"
        records = read_month_records(text)
        assert [month for month, _, _ in records] == [0, 1, 2]
        for _, _, parsed in records:
            assert parsed.to_dict() == registry.to_dict()

    def test_foreign_and_blank_lines_skipped(self):
        text = "\n".join([
            json.dumps({"type": "comment", "note": "x"}),
            "",
            month_jsonl_line(0, "2023-11-07", sample_registry()),
        ]) + "\n"
        records = read_month_records(text)
        assert len(records) == 1
        assert records[0][1] == "2023-11-07"


class TestAtomicWrites:
    def test_write_lines_atomic_writes_and_counts(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        assert write_lines_atomic(str(path), ["a", "b"]) == 2
        assert path.read_text(encoding="utf-8") == "a\nb\n"
        assert os.listdir(tmp_path) == ["feed.jsonl"]

    def test_empty_lines_write_empty_file(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        assert write_lines_atomic(str(path), []) == 0
        assert path.read_text(encoding="utf-8") == ""

    def test_failed_replace_preserves_original(self, tmp_path,
                                               monkeypatch):
        path = tmp_path / "feed.jsonl"
        path.write_text("previous\n", encoding="utf-8")

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.fsutil.os.replace", explode)
        with pytest.raises(OSError):
            atomic_write_text(str(path), "next\n")
        # The original survives and the temp file was cleaned up.
        assert path.read_text(encoding="utf-8") == "previous\n"
        assert os.listdir(tmp_path) == ["feed.jsonl"]

    def test_append_jsonl_line_appends(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        append_jsonl_line(str(path), '{"month":0}')
        append_jsonl_line(str(path), '{"month":1}')
        assert path.read_text(encoding="utf-8").splitlines() == [
            '{"month":0}', '{"month":1}']

    def test_trace_write_jsonl_leaves_no_temp_files(self, tmp_path):
        timeline = EcosystemTimeline(
            TimelineConfig(PopulationConfig(scale=0.002, seed=SEED)))
        materialized = timeline.materialize(0)
        executor = ScanExecutor(trace=True)
        executor.scan(materialized.world, materialized.deployed.keys(),
                      0, instant=materialized.instant)
        path = tmp_path / "trace.jsonl"
        executor.last_trace.write_jsonl(str(path))
        assert os.listdir(tmp_path) == ["trace.jsonl"]
        assert path.read_text(encoding="utf-8") == (
            executor.last_trace.to_jsonl())
