"""Process scan backend: determinism by the fixed slice plan.

The hard invariant under test: ``audit --backend process --jobs N``
must produce ``canonical_bytes()``, scan stats, and metrics output
byte-identical to ``--backend serial`` on the same seed — clean and
under seeded fault plans.  Both backends scan the same
``SCAN_SHARDS`` canonical-order slices, each with empty caches, so
every counter is a plain sum over slices.  The supporting invariant:
a worker's world keeps exactly its contiguous block of slices.
"""

import json
import threading

import pytest

from repro.ecosystem.population import (
    SCAN_SHARDS, PopulationConfig, contiguous_block, partition_names,
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
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("fault_seed", [None, FAULT_SEED])
    def test_byte_identical_and_stats_exact(self, fault_seed, jobs):
        _, serial = _scan("serial", fault_seed=fault_seed)
        _, process = _scan("process", jobs=jobs, fault_seed=fault_seed)
        assert (serial.store.canonical_bytes()
                == process.store.canonical_bytes())
        assert _comparable(serial.stats) == _comparable(process.stats)
        assert serial.build_stats == process.build_stats
        assert process.stats.jobs == jobs
        assert len(process.worker_peak_rss_kib) == jobs
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

    def test_merged_trace_is_serial_exact(self):
        """The whole merged trace — domain spans, resource spans,
        counters and histograms — is the serial scan's, byte for
        byte."""
        serial_exec, _ = _scan("serial", trace=True, fault_seed=FAULT_SEED)
        process_exec, _ = _scan("process", jobs=3, trace=True,
                                fault_seed=FAULT_SEED)
        assert (process_exec.last_trace.to_jsonl()
                == serial_exec.last_trace.to_jsonl())

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
        # one shard heartbeat per slice, whichever worker scanned it
        assert final.shards_done == final.shards_total == SCAN_SHARDS
        assert final.backend == "process"
        done = [e.domains_done for e in events]
        assert done == sorted(done)

    @pytest.mark.parametrize("backend,jobs", [("serial", 1),
                                              ("process", 2)])
    def test_callback_errors_propagate(self, backend, jobs):
        # The callback raises on its first heartbeat.  Both backends
        # run it on the calling thread, so the error reaches the caller
        # instead of dying on a helper thread and leaving a truncated
        # "final" heartbeat behind.
        calls = []

        def callback(event):
            calls.append(threading.get_ident())
            if len(calls) == 1:
                raise RuntimeError("progress sink failed")

        executor = ScanExecutor(backend=backend, jobs=jobs,
                                progress=callback, heartbeat_every=5)
        with pytest.raises(RuntimeError, match="progress sink failed"):
            executor.scan_population(
                PopulationConfig(scale=SCALE, seed=SEED), MONTH)
        assert set(calls) == {threading.get_ident()}

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


class TestShardMaterialisation:
    def test_shards_partition_the_full_deployment(self):
        config = PopulationConfig(scale=SCALE, seed=SEED)
        timeline = EcosystemTimeline(TimelineConfig(config))
        full = timeline.materialize(MONTH)
        slices = partition_names(full.deployed, SCAN_SHARDS)
        assert len(slices) == SCAN_SHARDS
        count = 3
        shard_domains = []
        for index in range(count):
            shard = EcosystemTimeline(TimelineConfig(config)).materialize(
                MONTH, shard=(index, count))
            # every worker reports the same (serial-shaped) build churn
            assert shard.build_stats == full.build_stats
            shard_domains.append(sorted(shard.deployed))
        blocks = [[name for names in
                   slices[contiguous_block(len(slices), index, count)]
                   for name in names] for index in range(count)]
        assert shard_domains == blocks
        # 8 slices over 3 workers: blocks of 3, 3 and 2 slices
        assert [contiguous_block(len(slices), index, count)
                for index in range(count)] == [
                    slice(0, 3), slice(3, 6), slice(6, 8)]

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
        """A pool process may run a second payload after a first one;
        what it built before must not leak into the result.  The second
        build mints its keys (and hence certificate fingerprints) at
        other ids than the first, and nothing may depend on them: every
        slice starts with empty caches, so the slice digests and
        counters are a function of the slice alone."""
        from repro.measurement.executor import _process_scan_worker

        payload = _middle_block_payload()
        first, second = (_process_scan_worker(payload) for _ in range(2))
        assert first["build_stats"] == second["build_stats"]
        assert len(first["slices"]) == 3
        for (text, digest, scan), (text2, digest2, scan2) in zip(
                first["slices"], second["slices"]):
            assert text and text == text2
            assert digest == digest2
            assert scan.counters == scan2.counters

    def test_worker_times_its_scan_after_its_build(self):
        """A worker reports its scan time without its build, as serial
        does, so ``audit --stats`` never counts a build twice."""
        import time

        from repro.measurement.executor import _process_scan_worker

        payload = _middle_block_payload()
        started = time.perf_counter()
        result = _process_scan_worker(payload)
        wall = time.perf_counter() - started
        assert result["build_seconds"] > 0 and result["scan_seconds"] > 0
        assert result["build_seconds"] + result["scan_seconds"] <= wall


def _middle_block_payload() -> dict:
    """Worker 1 of 3's payload, as the process backend builds it."""
    from repro.ecosystem.timeline import population_to_dict

    config = PopulationConfig(scale=SCALE, seed=SEED)
    slices = partition_names(
        EcosystemTimeline(TimelineConfig(config)).materialize(
            MONTH).deployed, SCAN_SHARDS)
    return {
        "population": population_to_dict(config),
        "month_index": MONTH, "shard": (1, 3),
        "slices": slices[contiguous_block(len(slices), 1, 3)],
        "fault_seed": FAULT_SEED, "fault_rate": 0.2,
        "trace": False, "profile": False,
    }


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
