"""Scan progress heartbeats and wall-clock stage profiling.

Progress must report monotonically non-decreasing counters; profiling
must be a strict no-op when disabled — same snapshot bytes, no report
— because the acceptance criteria cap its disabled overhead."""

from __future__ import annotations

import io
import json

import pytest

from repro.analysis.report import render_profile
from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig
from repro.measurement.executor import ScanExecutor
from repro.obs.profile import STAGES, ProfileReport, StageProfiler
from repro.obs.progress import (
    ProgressEvent, ProgressPrinter, ProgressTracker,
)

SCALE = 0.003
SEED = 1789


def run_scan(**executor_options):
    timeline = EcosystemTimeline(
        TimelineConfig(PopulationConfig(scale=SCALE, seed=SEED)))
    month = len(timeline.scan_instants) - 1
    materialized = timeline.materialize(month)
    executor = ScanExecutor(**executor_options)
    store, stats = executor.scan(
        materialized.world, materialized.deployed.keys(), month,
        instant=materialized.instant)
    return executor, store, stats


class TestProgressOrdering:
    def test_counters_monotonic_and_complete(self):
        events = []
        executor, _, stats = run_scan(progress=events.append)
        assert len(events) >= 2

        done = shards = 0
        for event in events:
            assert event.domains_done >= done
            assert event.shards_done >= shards
            assert 0.0 <= event.percent <= 100.0
            assert event.backend == "serial"
            done, shards = event.domains_done, event.shards_done

        final = events[-1]
        assert final.final
        assert final.domains_done == final.domains_total
        assert final.domains_total == stats.domains_scanned
        assert final.shards_done == final.shards_total == 1
        assert not any(event.final for event in events[:-1])

    def test_heartbeat_every_domain(self):
        events = []
        _, _, stats = run_scan(progress=events.append, heartbeat_every=1)
        # one per domain + one shard boundary + one final
        assert len(events) == stats.domains_scanned + 2

    def test_virtual_epoch_is_the_scan_instant(self):
        events = []
        timeline = EcosystemTimeline(
            TimelineConfig(PopulationConfig(scale=0.002, seed=SEED)))
        materialized = timeline.materialize(0)
        executor = ScanExecutor(progress=events.append)
        executor.scan(materialized.world, materialized.deployed.keys(),
                      0, instant=materialized.instant)
        assert all(event.virtual_epoch
                   == materialized.instant.epoch_seconds
                   for event in events)


class TestProgressTracker:
    def make(self, events, **overrides):
        options = dict(month_index=2, backend="serial",
                       domains_total=10, shards_total=1,
                       virtual_epoch=1700000000, heartbeat_every=2)
        options.update(overrides)
        return ProgressTracker(events.append, **options)

    def test_heartbeat_cadence(self):
        events = []
        tracker = self.make(events)
        for index in range(5):
            tracker.domain_done(f"d{index}")
        assert [event.domains_done for event in events] == [2, 4]
        tracker.shard_done()
        tracker.finish()
        assert events[-2].shards_done == 1
        assert events[-1].final

    def test_default_heartbeat_is_a_twentieth(self):
        events = []
        tracker = self.make(events, domains_total=100,
                            heartbeat_every=0)
        for index in range(5):
            tracker.domain_done(f"d{index}")
        assert len(events) == 1    # fires at 100 // 20 = 5

    def test_event_derivations(self):
        event = ProgressEvent(
            month_index=0, backend="serial", domains_total=100,
            domains_done=50, shards_total=1, shards_done=0,
            wall_elapsed_seconds=5.0, virtual_epoch=0)
        assert event.domains_per_second == pytest.approx(10.0)
        assert event.eta_seconds == pytest.approx(5.0)
        assert event.percent == pytest.approx(50.0)
        idle = ProgressEvent(
            month_index=0, backend="serial", domains_total=100,
            domains_done=0, shards_total=1, shards_done=0,
            wall_elapsed_seconds=1.0, virtual_epoch=0)
        assert idle.eta_seconds is None
        empty = ProgressEvent(
            month_index=0, backend="serial", domains_total=0,
            domains_done=0, shards_total=1, shards_done=0,
            wall_elapsed_seconds=0.0, virtual_epoch=0)
        assert empty.percent == 100.0


class TestProgressPrinter:
    def event(self, done, final=False):
        return ProgressEvent(
            month_index=3, backend="process", domains_total=200,
            domains_done=done, shards_total=4, shards_done=1,
            wall_elapsed_seconds=2.0, virtual_epoch=0, final=final)

    def test_non_tty_writes_one_line_per_event(self):
        stream = io.StringIO()
        printer = ProgressPrinter(stream)
        printer(self.event(50))
        printer(self.event(200, final=True))
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "scan m03 [process] 50/200 domains" in lines[0]
        assert "dom/s" in lines[0]
        assert "eta" in lines[0]

    def test_tty_overwrites_in_place(self):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        stream = Tty()
        printer = ProgressPrinter(stream)
        printer(self.event(50))
        printer(self.event(200, final=True))
        text = stream.getvalue()
        assert text.startswith("\r")
        assert text.count("\r") == 2
        assert text.endswith("\n")    # the final event closes the line


class TestProfiling:
    def test_disabled_profiling_is_a_no_op(self):
        executor_off, store_off, _ = run_scan()
        executor_on, store_on, _ = run_scan(profile=True)
        assert executor_off.last_profile is None
        assert executor_on.last_profile is not None
        assert store_off.canonical_bytes() == store_on.canonical_bytes()

    def test_profile_covers_every_domain(self):
        executor, _, stats = run_scan(profile=True)
        profile = executor.last_profile
        assert profile.domains_profiled == stats.domains_scanned
        assert set(profile.stage_seconds) <= set(STAGES)
        assert "dns" in profile.stage_seconds
        assert profile.stage_calls["dns"] == stats.domains_scanned
        assert len(profile.slowest) <= profile.top_n
        assert profile.slowest == sorted(profile.slowest, reverse=True)

    def test_report_merge_and_extend(self):
        first, second = StageProfiler(), StageProfiler()
        first.record_stage("dns", 0.5)
        first.record_domain("a.com", 0, 0.5)
        second.record_stage("dns", 0.25)
        second.record_stage("mx", 1.0)
        second.record_domain("b.com", 0, 1.25)
        merged = ProfileReport.merge([first, second], top_n=1)
        assert merged.stage_seconds["dns"] == pytest.approx(0.75)
        assert merged.stage_calls["dns"] == 2
        assert merged.domains_profiled == 2
        assert [d for _, _, d in merged.slowest] == ["b.com"]

        other = ProfileReport.merge([first], top_n=1)
        merged.extend(other)
        assert merged.domains_profiled == 3
        assert merged.stage_seconds["dns"] == pytest.approx(1.25)

    def test_to_dict_shape(self):
        executor, _, _ = run_scan(profile=True)
        data = executor.last_profile.to_dict()
        assert set(data) == {"domains_profiled", "total_seconds",
                             "stages", "slowest_domains"}
        for row in data["slowest_domains"]:
            assert set(row) == {"domain", "month", "seconds"}
        for stage in data["stages"].values():
            assert set(stage) == {"seconds", "calls"}

    def test_render_profile(self):
        executor, _, _ = run_scan(profile=True)
        text = render_profile(executor.last_profile)
        assert "wall-clock stage profile" in text
        assert "dns" in text
        assert "slowest domains:" in text
        assert "█" in text


class TestAuditStatsJson:
    def test_stats_json_is_machine_readable(self, capsys):
        from repro.cli import main
        assert main(["audit", "--scale", "0.002", "--seed", str(SEED),
                     "--stats", "--json"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)    # stdout is exactly one JSON document
        assert data["domains_scanned"] > 0
        assert data["backend"] == "serial"

    def test_json_requires_stats(self, capsys):
        from repro.cli import main
        assert main(["audit", "--scale", "0.002", "--json"]) == 2
        assert "--stats" in capsys.readouterr().err
