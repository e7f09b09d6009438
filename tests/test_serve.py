"""The policy-checker service: TTL verdict cache, single-flight
deduplication, the seeded query mix, and the deterministic replay."""

import json
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clock import Clock, Duration, Instant
from repro.core.cache import TtlCache, ttl_fresh
from repro.measurement.serve import (
    QueryMixGenerator, ServeConfig, ServeStats, VerdictCache, run_serve,
    verdict_ttl,
)
from repro.obs.monitor import (
    ALERT, OK, WARN, FeedRecord, ServeMonitor, ServeThresholds, Signal,
)
from repro.trace import Histogram, MetricsRegistry


def make_clock() -> Clock:
    return Clock(Instant.parse("2024-01-01"))


SMALL = dict(scale=0.01, requests=4_000, batch_size=500, months=2,
             flash_every=4, flash_size=600, record_every=3)


@pytest.fixture(scope="module")
def small_result():
    return run_serve(ServeConfig(**SMALL))


# ---------------------------------------------------------------------------
# TtlCache semantics
# ---------------------------------------------------------------------------

class TestTtlCache:
    @given(st.integers(min_value=1, max_value=10_000),
           st.integers(min_value=0, max_value=20_000))
    def test_ttl_boundary(self, ttl, elapsed):
        clock = make_clock()
        cache = TtlCache(clock)
        cache.store("key", "value", ttl)
        clock.advance(Duration(elapsed))
        # RFC 8461 semantics shared with PolicyCache: last fresh at
        # ttl-1, expired at exactly ttl.
        assert (cache.get("key") is not None) == (elapsed < ttl)
        assert ttl_fresh(Instant.parse("2024-01-01"), ttl,
                         clock.now()) == (elapsed < ttl)

    def test_fresh_probe_counts_no_hit_but_evicts(self):
        clock = make_clock()
        cache = TtlCache(clock)
        cache.store("key", "value", 100)
        for _ in range(5):
            assert cache.fresh("key") is True
        assert cache.hit_count == 0
        assert cache.get("key") == "value"
        assert cache.hit_count == 1
        clock.advance(Duration(100))
        assert cache.fresh("key") is False
        assert cache.eviction_count == 1
        assert len(cache) == 0

    def test_peek_skips_eviction_and_counting(self):
        clock = make_clock()
        cache = TtlCache(clock)
        cache.store("key", "value", 10)
        clock.advance(Duration(10))
        assert cache.peek("key") == "value"    # stale but untouched
        assert len(cache) == 1
        assert cache.get("key") is None
        assert len(cache) == 0

    def test_explicit_evict_and_flush_count(self):
        clock = make_clock()
        cache = TtlCache(clock)
        cache.store("a", 1, 10)
        cache.store("b", 2, 10)
        cache.evict("a")
        cache.evict("missing")
        assert cache.eviction_count == 1
        cache.flush()
        assert cache.eviction_count == 2
        assert len(cache) == 0

    def test_rejects_non_positive_ttl(self):
        cache = TtlCache(make_clock())
        with pytest.raises(ValueError):
            cache.store("key", "value", 0)

    def test_expires_at(self):
        clock = make_clock()
        cache = TtlCache(clock)
        cache.store("key", "value", 3600)
        assert cache.expires_at("key") == clock.now() + Duration(3600)
        assert cache.expires_at("missing") is None


# ---------------------------------------------------------------------------
# Single-flight deduplication
# ---------------------------------------------------------------------------

class TestSingleFlight:
    def test_concurrent_requests_one_computation(self):
        cache = VerdictCache(make_clock())
        release = threading.Event()
        started = threading.Barrier(9)
        calls = []

        def compute(key):
            calls.append(key)
            release.wait(timeout=10)
            return f"verdict:{key}", 3600

        results = [None] * 8

        def request(index):
            started.wait(timeout=10)
            results[index] = cache.get_or_compute("EXAMPLE.com.",
                                                  compute)

        workers = [threading.Thread(target=request, args=(index,))
                   for index in range(8)]
        for worker in workers:
            worker.start()
        started.wait(timeout=10)   # all eight requesters are racing
        release.set()
        for worker in workers:
            worker.join(timeout=10)

        assert calls == ["example.com"]    # one canonicalised owner
        assert results == ["verdict:example.com"] * 8
        assert cache.computed_count == 1

    def test_failed_computation_is_not_cached(self):
        cache = VerdictCache(make_clock())
        attempts = []

        def failing(key):
            attempts.append(key)
            raise RuntimeError("scan failed")

        with pytest.raises(RuntimeError):
            cache.get_or_compute("example.com", failing)
        # The flight is gone: the next requester owns a fresh attempt.
        assert cache.get_or_compute(
            "example.com", lambda key: ("ok", 60)) == "ok"
        assert attempts == ["example.com"]
        assert len(cache) == 1

    def test_casefold_keying(self):
        cache = VerdictCache(make_clock())
        cache.get_or_compute("STRAẞE.example.",
                             lambda key: (f"verdict:{key}", 3600))
        assert cache.lookup("strasse.example") == "verdict:strasse.example"
        assert cache.fresh("Strasse.Example") is True
        cache.evict("STRASSE.EXAMPLE")
        assert cache.fresh("strasse.example") is False

    def test_expiry_recomputes(self):
        clock = make_clock()
        cache = VerdictCache(clock)
        counter = []

        def compute(key):
            counter.append(key)
            return f"verdict#{len(counter)}", 100

        assert cache.get_or_compute("a.example", compute) == "verdict#1"
        clock.advance(Duration(99))
        assert cache.get_or_compute("a.example", compute) == "verdict#1"
        clock.advance(Duration(1))   # exactly ttl → expired
        assert cache.get_or_compute("a.example", compute) == "verdict#2"
        assert cache.eviction_count == 1


# ---------------------------------------------------------------------------
# Verdict TTLs
# ---------------------------------------------------------------------------

class TestVerdictTtl:
    def _snapshot(self, max_age):
        class Snap:
            policy_max_age = max_age
        return Snap()

    def test_policy_max_age_respected(self):
        assert verdict_ttl(self._snapshot(7_200), ttl_seconds=86_400,
                           min_ttl_seconds=3_600) == 7_200

    def test_clamped_into_bounds(self):
        assert verdict_ttl(self._snapshot(60), ttl_seconds=86_400,
                           min_ttl_seconds=3_600) == 3_600
        assert verdict_ttl(self._snapshot(10**8), ttl_seconds=86_400,
                           min_ttl_seconds=3_600) == 86_400

    def test_no_policy_uses_default(self):
        assert verdict_ttl(self._snapshot(None), ttl_seconds=86_400,
                           min_ttl_seconds=3_600) == 86_400
        assert verdict_ttl(self._snapshot(0), ttl_seconds=86_400,
                           min_ttl_seconds=3_600) == 86_400


# ---------------------------------------------------------------------------
# Query mix
# ---------------------------------------------------------------------------

class TestQueryMix:
    UNIVERSE = [f"domain{index}.example" for index in range(50)]

    def test_same_seed_same_sequence(self):
        one = QueryMixGenerator(self.UNIVERSE, 7, flash_every=3,
                                flash_size=10)
        two = QueryMixGenerator(self.UNIVERSE, 7, flash_every=3,
                                flash_size=10)
        for tick in range(12):
            assert one.batch(tick, 40) == two.batch(tick, 40)

    def test_different_seeds_differ(self):
        one = QueryMixGenerator(self.UNIVERSE, 7)
        two = QueryMixGenerator(self.UNIVERSE, 8)
        assert ([one.sample() for _ in range(80)]
                != [two.sample() for _ in range(80)])

    def test_zipf_head_dominates(self):
        mix = QueryMixGenerator(self.UNIVERSE, 7, zipf_s=1.2)
        draws = [mix.sample() for _ in range(2_000)]
        counts = sorted((draws.count(name) for name in set(draws)),
                        reverse=True)
        # The most popular domain outdraws the long tail decisively.
        assert counts[0] > 10 * counts[-1]

    def test_flash_crowd_cadence_and_shape(self):
        mix = QueryMixGenerator(self.UNIVERSE, 7, flash_every=4,
                                flash_size=25)
        for tick in range(8):
            requests, flash = mix.batch(tick, 10)
            if tick % 4 == 3:
                assert flash == 25 and len(requests) == 35
                target = requests[-1]
                assert requests[-25:] == [target] * 25
            else:
                assert flash == 0 and len(requests) == 10

    def test_canonicalised_universe(self):
        mix = QueryMixGenerator(["A.Example.", "b.example"], 1)
        assert sorted(mix.ranked) == ["a.example", "b.example"]

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            QueryMixGenerator([], 1)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

class TestServeConfig:
    @pytest.mark.parametrize("overrides", [
        {"requests": 0}, {"batch_size": 0}, {"months": 0},
        {"month_index": -1}, {"min_ttl_seconds": 0},
        {"ttl_seconds": 10, "min_ttl_seconds": 60},
        {"zipf_s": 0.0}, {"flash_every": -1}, {"flash_size": -1},
        {"record_every": 0}, {"zipf_s": float("nan")},
        {"zipf_s": float("inf")},
    ])
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            ServeConfig(**overrides)

    def test_round_trips_and_ignores_unknown_keys(self):
        config = ServeConfig(requests=123, flash_every=5)
        data = dict(config.to_dict(), stray="ignored")
        assert ServeConfig.from_dict(data) == config

    def test_ticks_round_up(self):
        assert ServeConfig(requests=1001, batch_size=500).ticks == 3

    def test_month_span_validated_against_timeline(self):
        config = ServeConfig(**dict(SMALL, month_index=400))
        with pytest.raises(ValueError, match="exceeds"):
            run_serve(config)


# ---------------------------------------------------------------------------
# The replay loop
# ---------------------------------------------------------------------------

class TestServeReplay:
    def test_accounting_is_complete(self, small_result):
        stats = small_result.stats
        assert (stats.computations + stats.hits + stats.collapsed
                == stats.requests)
        assert stats.requests >= SMALL["requests"]
        assert stats.flash_requests == stats.requests - SMALL["requests"]
        assert stats.computations == stats.requests - (
            stats.hits + stats.collapsed)
        assert stats.stampede_fanin_peak >= SMALL["flash_size"]
        assert stats.windows == len(small_result.monitor.records)

    def test_flash_crowds_collapse(self, small_result):
        # The single-flight cache turns every flash crowd into at most
        # one computation: collapsed requests dominate the flash load.
        assert small_result.stats.collapsed >= SMALL["flash_size"]

    def test_latency_histogram_covers_every_request(self, small_result):
        histogram = small_result.total_registry.histograms[
            "serve.latency"]
        assert histogram.observations == small_result.stats.requests
        assert small_result.p99_latency_seconds > 0.0

    def test_windows_sum_to_totals(self, small_result):
        totals = MetricsRegistry()
        for record in small_result.monitor.records:
            totals.merge(record.metrics)
        stats = small_result.stats
        assert totals.get("serve.requests") == stats.requests
        assert totals.get("serve.computations") == stats.computations
        assert totals.get("serve.hits") == stats.hits
        assert totals.get("serve.collapsed") == stats.collapsed
        assert totals.get("serve.evictions") == stats.evictions

    def test_rerun_byte_identical(self, small_result):
        again = run_serve(ServeConfig(**SMALL))
        assert again.monitor.to_jsonl() == small_result.monitor.to_jsonl()

    def test_query_seed_changes_feed(self, small_result):
        other = run_serve(ServeConfig(**dict(SMALL, query_seed=1234)))
        assert (other.monitor.to_jsonl()
                != small_result.monitor.to_jsonl())

    def test_eviction_then_refetch_is_byte_identical(self, small_result):
        # Rebuild the same world at the same instant and verify a
        # cold recomputation reproduces a served verdict byte-for-byte.
        from repro.ecosystem.population import PopulationConfig
        from repro.ecosystem.timeline import (
            EcosystemTimeline, TimelineConfig,
        )
        from repro.measurement.scanner import Scanner
        from repro.measurement.serve import verdict_payload

        config = small_result.config
        timeline = EcosystemTimeline(TimelineConfig(PopulationConfig(
            scale=config.scale, seed=config.seed)))
        snapshot = timeline.materialize(config.month_index)
        scanner = Scanner(snapshot.world)
        domain = sorted(plan.name
                        for plan in timeline.all_plans())[0]
        cache = VerdictCache(snapshot.world.clock)

        def compute(key):
            scan = scanner.scan_domain(key, config.month_index,
                                       snapshot.instant)
            return verdict_payload(scan), 3600

        first = cache.get_or_compute(domain, compute)
        cache.evict(domain)
        assert cache.fresh(domain) is False
        second = cache.get_or_compute(domain, compute)
        assert first == second
        payload = json.loads(first)
        assert payload["domain"] == domain
        assert cache.computed_count == 2

    def test_progress_reaches_total(self):
        seen = []
        run_serve(ServeConfig(**dict(SMALL, months=1)),
                  progress=lambda served, total: seen.append(
                      (served, total)))
        served, total = seen[-1]
        assert served >= total


# ---------------------------------------------------------------------------
# Service health
# ---------------------------------------------------------------------------

def make_window(window_index, *, requests=1_000, computations=100,
                hits=800, collapsed=100, fanin=50,
                latency_micros=()):
    registry = MetricsRegistry()
    registry.count("serve.requests", requests)
    registry.count("serve.computations", computations)
    registry.count("serve.hits", hits)
    registry.count("serve.collapsed", collapsed)
    registry.count("serve.stampede_fanin_peak", fanin)
    histogram = Histogram()
    for value in latency_micros:
        histogram.observe_micros(value)
    registry.histograms["serve.latency"] = histogram
    return FeedRecord(window_index, "2024-01-01", registry)


class TestServeMonitor:
    def test_clean_feed_is_ok(self):
        monitor = ServeMonitor()
        monitor.add_record(make_window(0))
        monitor.add_record(make_window(1))
        report = monitor.health()
        assert report.level == OK
        assert len(report.findings) == 2

    def test_hit_rate_floor_is_cumulative(self):
        monitor = ServeMonitor(ServeThresholds(hit_rate_floor_warn=0.5))
        # A cold window alone would fail the floor, but the warm
        # cumulative total carries it.
        monitor.add_record(make_window(
            0, requests=1_000, computations=100, hits=800,
            collapsed=100))
        monitor.add_record(make_window(
            1, requests=100, computations=100, hits=0, collapsed=0))
        report = monitor.health()
        assert report.level == OK

    def test_low_hit_rate_warns(self):
        monitor = ServeMonitor()
        monitor.add_record(make_window(
            0, requests=1_000, computations=900, hits=50, collapsed=50))
        report = monitor.health()
        assert report.level == WARN
        assert report.at_level(WARN)[0].metric == "hit-rate-floor"

    def test_p99_latency_alerts(self):
        monitor = ServeMonitor(ServeThresholds(p99_latency_alert=1.0))
        monitor.add_record(make_window(
            0, latency_micros=[4_000_000] * 10))
        report = monitor.health()
        assert report.level == ALERT
        assert report.at_level(ALERT)[0].metric == "p99-latency"

    def test_fanin_warns(self):
        monitor = ServeMonitor(ServeThresholds(fanin_warn=100))
        monitor.add_record(make_window(0, fanin=101))
        report = monitor.health()
        assert any(f.metric == "stampede-fanin"
                   for f in report.at_level(WARN))

    def test_jsonl_round_trip_preserves_health(self, small_result):
        monitor = ServeMonitor.from_jsonl(small_result.monitor.to_jsonl())
        assert monitor.to_jsonl() == small_result.monitor.to_jsonl()
        assert (monitor.health().as_dict()
                == small_result.monitor.health().as_dict())
        restored = monitor.records[0].metrics.histograms["serve.latency"]
        assert restored.quantile(0.99) == Signal(
            p99_of="serve.latency").read(
                small_result.monitor.records[0].metrics)

    def test_live_jsonl_feed(self, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        monitor = ServeMonitor(jsonl_path=path)
        monitor.add_record(make_window(0))
        monitor.add_record(make_window(1))
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["month"] == 0


# ---------------------------------------------------------------------------
# Histogram quantiles
# ---------------------------------------------------------------------------

class TestHistogramQuantile:
    def test_empty_is_zero(self):
        assert Histogram().quantile(0.99) == 0.0

    def test_quantile_picks_bucket_bound(self):
        histogram = Histogram(bounds=(1.0, 2.0, 4.0))
        for _ in range(99):
            histogram.observe_micros(500_000)     # ≤ 1.0s
        histogram.observe_micros(3_000_000)       # ≤ 4.0s
        assert histogram.quantile(0.5) == 1.0
        assert histogram.quantile(0.99) == 1.0
        assert histogram.quantile(1.0) == 4.0

    def test_overflow_is_inf(self):
        histogram = Histogram(bounds=(1.0,))
        histogram.observe_micros(5_000_000)
        assert histogram.quantile(0.5) == float("inf")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram().quantile(0.0)
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)


# ---------------------------------------------------------------------------
# ServeStats surface
# ---------------------------------------------------------------------------

class TestServeStats:
    def test_comparable_strips_wall_clock(self):
        stats = ServeStats(requests=100, hits=60, collapsed=20,
                           serve_seconds=1.5, world_build_seconds=2.0)
        comparable = stats.comparable()
        for key in ServeStats._NON_DETERMINISTIC:
            assert key not in comparable
        assert comparable["requests"] == 100

    def test_rates(self):
        stats = ServeStats(requests=100, hits=60, collapsed=20,
                           serve_seconds=2.0)
        assert stats.hit_rate == 0.8
        assert stats.requests_per_second == 50.0
        assert ServeStats().hit_rate == 0.0
        assert ServeStats().requests_per_second == 0.0

    def test_to_dict_includes_derived(self):
        data = ServeStats(requests=10, hits=5, collapsed=0,
                          serve_seconds=1.0).to_dict()
        assert data["hit_rate"] == 0.5
        assert data["requests_per_second"] == 10.0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestServeCli:
    def run_cli(self, argv):
        from repro.cli import main
        return main(argv)

    def test_serve_run_writes_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "serve.jsonl"
        prom = tmp_path / "serve.prom"
        code = self.run_cli([
            "serve", "--scale", "0.01", "--requests", "1000",
            "--batch-size", "250", "--flash-every", "2",
            "--flash-size", "100",
            "--metrics-out", str(metrics), "--prom-out", str(prom)])
        assert code == 0
        output = capsys.readouterr().out
        assert "serve:" in output and "hit rate" in output
        # The report is titled with the monitor and its unit of record.
        assert ("\nserve health: OK (0 alert(s), 0 warning(s), 1 window(s) "
                "clean)\n[OK   ] w00 all-checks" in output), output
        lines = metrics.read_text(encoding="utf-8").splitlines()
        assert lines and all(json.loads(line)["type"] == "month"
                             for line in lines)
        assert "repro_serve_requests_total" in prom.read_text(
            encoding="utf-8")

    def test_serve_month_span_error_is_usage_error(self, capsys):
        code = self.run_cli(["serve", "--scale", "0.01",
                             "--requests", "100", "--month", "400"])
        assert code == 2
        assert "exceeds" in capsys.readouterr().err

    def test_serve_rejects_bad_flags(self):
        with pytest.raises(SystemExit) as excinfo:
            self.run_cli(["serve", "--requests", "0"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            self.run_cli(["serve", "--zipf-s", "oops"])
        assert excinfo.value.code == 2
