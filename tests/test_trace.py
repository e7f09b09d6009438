"""The scan-trace layer: determinism, metrics equality, CLI surface.

The load-bearing invariants:

* repeated scans of identical worlds serialise to **byte-identical**
  JSONL traces, even under fault injection;
* a traced slice writes the world counters' deltas — the ones
  :class:`~repro.measurement.executor.ScanStats` sums — into its
  registry under :data:`~repro.obs.monitor.STAT_COUNTERS`'s keys, so
  the trace's metrics record reads the scan's own counts;
* span ids are pure functions of (virtual instant, month, domain) —
  no wall time anywhere in a trace.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import trace
from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig
from repro.measurement.executor import ScanExecutor
from repro.netsim.network import FaultPlan
from repro.obs.monitor import STAT_COUNTERS

SCALE = 0.003
SEED = 1789

INT_STATS = (
    "domains_scanned", "dns_queries", "dns_cache_hits",
    "dns_negative_cache_hits", "policy_fetches", "smtp_probes",
    "smtp_probe_cache_hits", "pkix_validations", "pkix_cache_hits",
    "connect_retries", "faults_injected", "transient_domains",
)


def run_scan(*, fault_seed=None, fault_rate=0.3, scale=SCALE, seed=SEED):
    """One traced scan over a **fresh** world (shared caches would
    otherwise leak state between repeated runs)."""
    timeline = EcosystemTimeline(
        TimelineConfig(PopulationConfig(scale=scale, seed=seed)))
    month = len(timeline.scan_instants) - 1
    materialized = timeline.materialize(month)
    if fault_seed is not None:
        materialized.world.network.install_fault_plan(
            FaultPlan.seeded(seed=fault_seed, rate=fault_rate))
    executor = ScanExecutor(trace=True)
    store, stats = executor.scan(
        materialized.world, materialized.deployed.keys(), month,
        instant=materialized.instant)
    return executor.last_trace, stats, store


class TestByteIdentity:
    def test_repeated_runs_identical(self):
        first, first_stats, _ = run_scan(fault_seed=3)
        second, second_stats, _ = run_scan(fault_seed=3)
        assert first_stats.faults_injected > 0
        assert first_stats.transient_domains > 0
        assert first.to_jsonl() == second.to_jsonl()
        for name in INT_STATS:
            assert (getattr(first_stats, name)
                    == getattr(second_stats, name)), name

    def test_fault_seeded_trace_golden(self):
        """One fault-seeded scan, pinned: the canonical JSONL bytes and
        every exact counter.  Repeating a run in one process cannot
        catch a change that moves both runs alike; this can."""
        report, stats, _ = run_scan(fault_seed=3)
        assert hashlib.sha256(report.to_jsonl().encode()).hexdigest() == (
            "63924ed157c4747a8f6957501e977f13c2b2765074f57e655c981de46f10ab97")
        assert {name: getattr(stats, name) for name in INT_STATS} == {
            "domains_scanned": 229, "dns_queries": 1731,
            "dns_cache_hits": 814, "dns_negative_cache_hits": 123,
            "policy_fetches": 229, "smtp_probes": 116,
            "smtp_probe_cache_hits": 176, "pkix_validations": 295,
            "pkix_cache_hits": 0, "connect_retries": 699,
            "faults_injected": 864, "transient_domains": 48,
        }


class TestMetricsEqualStats:
    """The trace's metrics record is the scan's ScanStats read through
    :data:`~repro.obs.monitor.STAT_COUNTERS`, plus the network's
    connect and backoff totals; a counter with no work has no key."""

    @pytest.mark.parametrize("fault_seed", [None, 11])
    def test_counters_match(self, fault_seed):
        report, stats, _ = run_scan(fault_seed=fault_seed)
        counters = dict(report.metrics.counters)
        assert counters.pop("net.connects") > 0
        assert (counters.pop("net.backoff_micros", 0)
                == round(stats.retry_backoff_seconds * 1_000_000))
        assert counters == {key: getattr(stats, attribute)
                            for attribute, key in STAT_COUNTERS
                            if getattr(stats, attribute)}


class TestJsonlFormat:
    def test_record_layout(self):
        report, stats, _ = run_scan()
        lines = report.to_jsonl().splitlines()
        records = [json.loads(line) for line in lines]
        kinds = [record["type"] for record in records]
        # domains, then resources, then exactly one trailing metrics
        # record — and the sections are internally sorted.
        assert kinds == (["domain"] * kinds.count("domain")
                         + ["resource"] * kinds.count("resource")
                         + ["metrics"])
        domains = [(r["month"], r["domain"]) for r in records
                   if r["type"] == "domain"]
        assert domains == sorted(domains)
        assert len(domains) == stats.domains_scanned
        resources = [r["key"] for r in records if r["type"] == "resource"]
        assert resources == sorted(resources)
        metrics = records[-1]
        assert metrics["counters"]["scan.domains"] == stats.domains_scanned

    def test_span_ids_deterministic(self):
        report, _, _ = run_scan()
        (month, domain) = sorted(report.domain_spans)[0]
        span = report.domain_spans[(month, domain)]
        seed = f"{report.instant_epoch}:{month}:{domain}"
        expected = hashlib.sha256(seed.encode()).hexdigest()[:16]
        assert span.span_id == expected
        for index, child in enumerate(span.children, start=1):
            assert child.span_id.startswith(expected + ".")

    def test_write_jsonl_round_trips(self, tmp_path):
        report, _, _ = run_scan()
        path = tmp_path / "trace.jsonl"
        count = report.write_jsonl(str(path))
        assert count == len(report.to_jsonl().splitlines())
        assert path.read_text(encoding="utf-8") == report.to_jsonl()


class TestExplain:
    def test_explain_renders_tree_and_resources(self):
        report, _, _ = run_scan()
        domain = sorted(key[1] for key in report.domain_spans)[0]
        text = report.explain(domain)
        assert f"scan [{domain}]" in text
        assert "verdict" in text
        for stage in ("dns", "policy"):
            assert stage in text

    def test_unknown_domain(self):
        report, _, _ = run_scan()
        assert "no trace recorded" in report.explain("absent.example")

    def test_zero_domain_scan_records_no_spans(self):
        timeline = EcosystemTimeline(
            TimelineConfig(PopulationConfig(scale=SCALE, seed=SEED)))
        materialized = timeline.materialize(0)
        executor = ScanExecutor(trace=True)
        _, stats = executor.scan(materialized.world, [], 0,
                                 instant=materialized.instant)
        assert stats.domains_scanned == 0
        assert executor.last_trace.domain_spans == {}


class TestDisabledTracing:
    def test_no_report_and_no_recording(self):
        timeline = EcosystemTimeline(
            TimelineConfig(PopulationConfig(scale=0.002, seed=SEED)))
        month = len(timeline.scan_instants) - 1
        materialized = timeline.materialize(month)
        executor = ScanExecutor(backend="serial")
        store, stats = executor.scan(
            materialized.world, materialized.deployed.keys(), month)
        assert executor.last_trace is None
        assert trace.current_tracer() is None
        assert stats.domains_scanned > 0


class TestTracePrimitives:
    def test_micros(self):
        assert trace.micros(0.25) == 250_000
        assert trace.micros(0.0) == 0

    def test_histogram_merge_order_independent(self):
        samples = [trace.micros(s) for s in
                   (0.05, 0.3, 0.9, 2.5, 70.0, 0.3)]
        one = trace.Histogram()
        for sample in samples:
            one.observe_micros(sample)
        two = trace.Histogram()
        for sample in reversed(samples):
            two.observe_micros(sample)
        assert one.to_dict() == two.to_dict()
        assert one.observations == len(samples)
        assert one.counts[-1] == 1  # the 70s overflow sample

    def test_registry_merge(self):
        left, right = trace.MetricsRegistry(), trace.MetricsRegistry()
        left.count("x", 2)
        right.count("x", 3)
        right.count("y")
        right.observe("h", 100)
        left.merge(right)
        assert left.get("x") == 5
        assert left.get("y") == 1
        assert left.histograms["h"].total_micros == 100

    def test_bind_restores_previous(self):
        outer, inner = trace.Tracer(), trace.Tracer()
        with trace.bind(outer):
            assert trace.current_tracer() is outer
            with trace.bind(inner):
                assert trace.current_tracer() is inner
            assert trace.current_tracer() is outer
        assert trace.current_tracer() is None

    def test_helpers_noop_without_tracer(self):
        trace.event("nothing", detail=1)
        with trace.child_span("x") as span:
            assert span is None

    def test_resource_span_keeps_first_recording(self):
        tracer = trace.Tracer()
        with trace.bind(tracer):
            with tracer.resource("net:k", "connect", "k"):
                trace.event("attempt", n=0)
            with tracer.resource("net:k", "connect", "k"):
                trace.event("attempt", n=0)
                trace.event("extra")
        assert len(tracer.resource_spans) == 1
        assert len(tracer.resource_spans["net:k"].events) == 1


class TestCliTrace:
    def test_audit_trace_and_explain(self, tmp_path, capsys):
        from repro.cli import main
        out_path = tmp_path / "trace.jsonl"
        assert main(["audit", "--scale", "0.002", "--seed", str(SEED),
                     "--trace", str(out_path),
                     "--explain", "domain000001.com"]) == 0
        out = capsys.readouterr().out
        assert "scan [domain000001.com]" in out
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[-1])["type"] == "metrics"
        assert json.loads(lines[0])["type"] == "domain"


class TestCliValidation:
    @pytest.mark.parametrize("argv", [
        ["audit", "--jobs", "-4"],
        ["audit", "--jobs", "two"],
        ["audit", "--fault-rate", "1.5"],
        ["audit", "--fault-rate", "-0.1"],
        ["audit", "--fault-rate", "lots"],
    ])
    def test_bad_arguments_exit_2(self, argv, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err or "--fault-rate" in err

    def test_valid_bounds_accepted(self):
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(
            ["audit", "--jobs", "4", "--fault-rate", "0.0"])
        assert args.jobs == 4
        assert args.fault_rate == 0.0
        args = parser.parse_args(["audit", "--fault-rate", "1.0"])
        assert args.fault_rate == 1.0

    def test_jobs_zero_means_auto_detect(self):
        import os

        from repro.cli import _resolve_jobs, build_parser
        parser = build_parser()
        args = parser.parse_args(["audit", "--jobs", "0"])
        assert args.jobs == 0
        assert _resolve_jobs(0, "serial") == 1
        assert _resolve_jobs(0, "process") == (os.cpu_count() or 1)
        assert _resolve_jobs(3, "process") == 3
