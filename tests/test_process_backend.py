"""Process scan backend: determinism, exact stats merging, sharding.

The hard invariant under test: ``audit --backend process --jobs N``
must produce ``canonical_bytes()``, scan stats, and metrics output
byte-identical to ``--backend serial`` on the same seed — clean and
under seeded fault plans.  The supporting invariants: lazy shard-range
population slices union back to the full population exactly, and
shard-scoped world materialisation keeps exactly the shard's domains.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecosystem.population import (
    PopulationConfig, generate_population, iter_population,
    partition_names, shard_plans,
)
from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig
from repro.measurement.columnar import taxonomy_census_view, view_of
from repro.measurement.executor import ScanExecutor
from repro.obs.exporters import prometheus_exposition
from repro.obs.monitor import build_month_registry
from repro.obs.progress import ProgressTracker

SCALE = 0.004
SEED = 11
MONTH = 3
FAULT_SEED = 4242

# Wall-clock fields and identity fields legitimately differ between
# backends; every counter must match exactly.
_NON_DETERMINISTIC = ("backend", "jobs", "world_build_seconds",
                      "scan_seconds")


def _comparable(stats) -> dict:
    data = stats.as_dict()
    for name in _NON_DETERMINISTIC:
        data.pop(name)
    return data


def _scan(backend: str, jobs: int = 1, fault_seed=None, **kwargs):
    executor = ScanExecutor(backend=backend, jobs=jobs, **kwargs)
    result = executor.scan_population(
        PopulationConfig(scale=SCALE, seed=SEED), MONTH,
        fault_seed=fault_seed)
    return executor, result


class TestSerialProcessParity:
    @pytest.mark.parametrize("fault_seed", [None, FAULT_SEED])
    def test_byte_identical_and_stats_exact(self, fault_seed):
        _, serial = _scan("serial", fault_seed=fault_seed)
        _, process = _scan("process", jobs=3, fault_seed=fault_seed)
        assert (serial.store.canonical_bytes()
                == process.store.canonical_bytes())
        assert _comparable(serial.stats) == _comparable(process.stats)
        assert serial.build_stats == process.build_stats
        assert process.stats.jobs == 3
        assert len(process.worker_peak_rss_kib) == 3
        assert all(rss > 0 for rss in process.worker_peak_rss_kib)

    def test_metrics_exposition_byte_identical(self):
        _, serial = _scan("serial", fault_seed=FAULT_SEED)
        _, process = _scan("process", jobs=2, fault_seed=FAULT_SEED)
        expositions = []
        for result in (serial, process):
            census = taxonomy_census_view(
                view_of(result.store.month(MONTH)))
            registry = build_month_registry(result.stats,
                                            bucket_census=census)
            expositions.append(prometheus_exposition(
                registry, labels={"month": str(MONTH)}))
        assert expositions[0] == expositions[1]

    def test_merged_trace_counters_are_serial_exact(self):
        serial_exec, serial = _scan("serial", trace=True,
                                    fault_seed=FAULT_SEED)
        process_exec, process = _scan("process", jobs=3, trace=True,
                                      fault_seed=FAULT_SEED)
        serial_counters = serial_exec.last_trace.metrics.counters
        process_counters = process_exec.last_trace.metrics.counters
        for key in ("dns.queries", "dns.cache_hits",
                    "dns.negative_cache_hits", "smtp.probes",
                    "smtp.cache_hits", "pkix.validations",
                    "pkix.cache_hits", "net.connect_retries",
                    "net.faults_injected", "net.backoff_micros",
                    "scan.domains", "scan.transient_domains",
                    "policy.fetches"):
            assert process_counters.get(key, 0) \
                == serial_counters.get(key, 0), key
        # The trace carries one span tree per domain regardless of
        # which worker scanned it.
        assert (sorted(process_exec.last_trace.domain_spans)
                == sorted(serial_exec.last_trace.domain_spans))

    def test_process_profile_covers_every_domain(self):
        executor, result = _scan("process", jobs=2, profile=True)
        assert executor.last_profile is not None
        assert (executor.last_profile.domains_profiled
                == result.stats.domains_scanned)

    def test_scan_population_serial_matches_scan(self):
        """The population entry point is the same scan the world-level
        entry point runs."""
        timeline = EcosystemTimeline(TimelineConfig(
            PopulationConfig(scale=SCALE, seed=SEED)))
        materialized = timeline.materialize(MONTH)
        store, _ = ScanExecutor().scan(
            materialized.world, materialized.deployed.keys(), MONTH)
        _, result = _scan("serial")
        assert store.canonical_bytes() == result.store.canonical_bytes()


class TestProcessProgress:
    def test_heartbeats_cross_the_process_boundary(self):
        events = []
        executor = ScanExecutor(backend="process", jobs=2,
                                progress=events.append,
                                heartbeat_every=5)
        result = executor.scan_population(
            PopulationConfig(scale=SCALE, seed=SEED), MONTH)
        assert events, "no heartbeats received"
        final = events[-1]
        assert final.final
        assert final.domains_done == result.stats.domains_scanned
        assert final.shards_done == 2
        assert final.backend == "process"
        done = [e.domains_done for e in events]
        assert done == sorted(done)

    def test_tracker_advance_batches(self):
        events = []
        tracker = ProgressTracker(events.append, month_index=0,
                                  backend="process", domains_total=100,
                                  shards_total=1, virtual_epoch=0,
                                  heartbeat_every=10)
        tracker.advance(7)      # 0 -> 7: no boundary crossed
        assert not events
        tracker.advance(25)     # 7 -> 32: crossed (one emission)
        assert len(events) == 1
        assert events[-1].domains_done == 32
        tracker.advance(0)
        assert len(events) == 1


class TestValidation:
    def test_process_scan_requires_population_entry_point(self):
        timeline = EcosystemTimeline(TimelineConfig(
            PopulationConfig(scale=SCALE, seed=SEED)))
        materialized = timeline.materialize(MONTH)
        executor = ScanExecutor(backend="process", jobs=2)
        with pytest.raises(ValueError, match="scan_population"):
            executor.scan(materialized.world,
                          materialized.deployed.keys(), MONTH)

    def test_serial_no_longer_silently_clamps_jobs(self):
        with pytest.raises(ValueError, match="serial backend ignores"):
            ScanExecutor(backend="serial", jobs=2)
        # jobs=1 on serial stays fine; parallel backends accept any N.
        assert ScanExecutor(backend="serial", jobs=1).jobs == 1
        assert ScanExecutor(backend="process", jobs=4).jobs == 4

    def test_shard_argument_validation(self):
        timeline = EcosystemTimeline(TimelineConfig(
            PopulationConfig(scale=SCALE, seed=SEED)))
        with pytest.raises(ValueError):
            timeline.materialize(MONTH, shard=(0, 0))
        with pytest.raises(ValueError):
            timeline.materialize(MONTH, shard=(2, 2))
        with pytest.raises(ValueError):
            shard_plans(PopulationConfig(scale=SCALE, seed=SEED), 3, 3)
        with pytest.raises(ValueError):
            shard_plans(PopulationConfig(scale=SCALE, seed=SEED), 0, 0)


class TestShardMaterialisation:
    def test_shards_partition_the_full_deployment(self):
        config = PopulationConfig(scale=SCALE, seed=SEED)
        timeline = EcosystemTimeline(TimelineConfig(config))
        full = timeline.materialize(MONTH)
        count = 3
        shard_domains = []
        for index in range(count):
            shard = EcosystemTimeline(TimelineConfig(config)).materialize(
                MONTH, shard=(index, count))
            # every worker reports the same (serial-shaped) build churn
            assert shard.build_stats == full.build_stats
            shard_domains.append(sorted(shard.deployed))
        union = [d for domains in shard_domains for d in domains]
        assert sorted(union) == sorted(full.deployed)
        assert len(union) == len(set(union))
        assert shard_domains == partition_names(full.deployed, count)

    def test_out_of_shard_infrastructure_is_released(self):
        config = PopulationConfig(scale=SCALE, seed=SEED)
        full = EcosystemTimeline(TimelineConfig(config)).materialize(MONTH)
        shard = EcosystemTimeline(TimelineConfig(config)).materialize(
            MONTH, shard=(0, 4))
        assert len(shard.deployed) < len(full.deployed)
        # undeploy withdrew the out-of-shard zones: their MTA-STS TXT
        # records no longer resolve in the shard world.
        from repro.dns.name import DnsName
        from repro.dns.records import RRType
        gone = sorted(set(full.deployed) - set(shard.deployed))[0]
        assert shard.world.resolver.try_resolve(
            DnsName.parse(f"_mta-sts.{gone}"), RRType.TXT) is None

    def test_reused_worker_process_repeats_the_shard_exactly(self):
        """A pool process may scan a second shard after a first one;
        what it built before must not leak into the shard's result.
        Certificate fingerprints are the sensitive part: they key the
        PKIX cache entries the parent unions across workers, so a
        shifted fingerprint over-counts ``pkix.validations`` and drives
        the merged ``pkix.cache_hits`` negative."""
        from repro.ecosystem.timeline import population_to_dict
        from repro.measurement.executor import _process_scan_worker

        payload = {
            "population": population_to_dict(
                PopulationConfig(scale=SCALE, seed=SEED)),
            "month_index": MONTH, "shard_index": 1, "shard_count": 3,
            "fault_seed": FAULT_SEED, "fault_rate": 0.2,
            "trace": False, "profile": False,
        }
        first, second = (_process_scan_worker(payload) for _ in range(2))
        for name in ("shard_digest", "counters", "dns_journal",
                     "probe_journal", "pkix_keys", "build_stats"):
            assert first[name] == second[name], name
        assert first["pkix_keys"]


class TestLazyPopulationSharding:
    @settings(max_examples=12, deadline=None)
    @given(scale=st.sampled_from([0.001, 0.002, 0.004]),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           shards=st.integers(min_value=1, max_value=7))
    def test_shard_union_is_byte_identical_to_full_generation(
            self, scale, seed, shards):
        """The union of the lazy shard-range slices equals the full
        ``generate_population`` output — for arbitrary (scale, seed,
        shard count)."""
        config = PopulationConfig(scale=scale, seed=seed)
        full = sorted(iter_population(config), key=lambda p: p.name)
        pieces = [shard_plans(config, index, shards)
                  for index in range(shards)]
        union = sorted((plan for piece in pieces for plan in piece),
                       key=lambda p: p.name)
        assert [p.name for p in union] == [p.name for p in full]
        assert union == full  # plan-level equality, not just names
        # each piece is canonical-contiguous and they are disjoint
        names = [[p.name for p in piece] for piece in pieces]
        assert names == partition_names((p.name for p in full), shards)

    def test_iter_population_matches_generate_population(self):
        config = PopulationConfig(scale=SCALE, seed=SEED)
        populations = generate_population(config)
        flat = [plan for population in populations.values()
                for plan in population.plans]
        assert list(iter_population(config)) == flat


class TestCliProcessBackend:
    def test_audit_process_jobs_auto(self, capsys, tmp_path):
        from repro.cli import main
        metrics = {}
        for backend, jobs in (("serial", "1"), ("process", "0")):
            out = tmp_path / f"{backend}.prom"
            assert main(["audit", "--scale", str(SCALE),
                         "--seed", str(SEED), "--month", str(MONTH),
                         "--backend", backend, "--jobs", jobs,
                         "--fault-seed", str(FAULT_SEED),
                         "--stats", "--json",
                         "--metrics-out", str(out)]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["backend"] == backend
            if backend == "process":
                assert stats["jobs"] >= 1
            metrics[backend] = out.read_text(encoding="utf-8")
        assert metrics["serial"] == metrics["process"]

    def test_audit_process_save_matches_serial_commit(self, tmp_path):
        from repro.cli import main
        from repro.measurement.store_io import load_state
        digests = {}
        for backend in ("serial", "process"):
            state_dir = tmp_path / backend
            assert main(["audit", "--scale", str(SCALE),
                         "--seed", str(SEED), "--month", str(MONTH),
                         "--backend", backend,
                         "--jobs", "2" if backend == "process" else "1",
                         "--save", str(state_dir)]) == 0
            state = load_state(str(state_dir))
            entry = state.entry(MONTH)
            digests[backend] = entry.sha256
            assert entry.rows == len(state.store.month(MONTH))
        assert digests["serial"] == digests["process"]

    def test_audit_serial_excess_jobs_is_an_error(self, capsys):
        from repro.cli import main
        assert main(["audit", "--scale", str(SCALE),
                     "--backend", "serial", "--jobs", "2"]) == 2
        assert "serial backend ignores" in capsys.readouterr().err
