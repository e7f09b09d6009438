"""Scan execution: backends, scan slices, and per-stage instrumentation.

The paper's monthly component scans cover every MTA-STS domain in four
TLD zone files — at that scale the scan pipeline's cost, not the
analysis, dominates a campaign.  :class:`ScanExecutor` scans one month
two ways:

:meth:`ScanExecutor.scan`
    one pass over the domains of a pre-built world, in canonical
    (sorted) order — the campaign's path, serial backend only;

:meth:`ScanExecutor.scan_population`
    cuts the adopted domains of one month of a
    :class:`~repro.ecosystem.population.PopulationConfig` into
    :data:`~repro.ecosystem.population.SCAN_SHARDS` canonical-order
    *slices* and hands contiguous blocks of them to one routine,
    :func:`_scan_block`.  The routine materialises only its block (see
    :meth:`~repro.ecosystem.timeline.EcosystemTimeline.materialize`'s
    ``shard`` argument), installs the seeded fault plan, scans every
    slice with empty resolver, SMTP-probe and PKIX caches, and returns
    each slice as the on-disk shard JSONL
    (:func:`~repro.measurement.store_io.month_shard_text`) with its
    digest and counters.  The ``serial`` backend runs the routine in
    this process as block 0 of 1; the ``process`` backend runs
    ``min(jobs, slices)`` blocks in spawn workers.  One merge
    digest-verifies, parses and merges the slices in slice order,
    whichever backend scanned them.

A slice's snapshots and work are functions of the slice and the world
alone — no cache carries over from another slice — so every
:class:`ScanStats` counter is a plain sum over the fixed slice plan,
whichever process scanned which slice.  Both backends therefore
produce byte-identical
:class:`~repro.measurement.snapshots.SnapshotStore` contents (the
determinism tests assert this through ``canonical_bytes()``), the same
counters and the same merged trace, by construction: they run one
routine over one slice plan.  Within a slice
the memo caches (SMTP probe results keyed by MX hostname, PKIX verdicts
keyed by certificate fingerprint) compute each entry once.  Neither
backend starts a thread: the process parent drains worker heartbeats
between waits on the worker futures, so progress callbacks run on the
caller's thread.

Every scan also yields a :class:`ScanStats` — the per-stage counter
and timing block (DNS queries and cache hits, policy fetches, SMTP
probes, PKIX validations, wall-clock splits) surfaced by ``Scanner``
consumers, the CLI ``audit`` command, and the benchmark harness.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass, field, fields
from queue import Empty
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.clock import Instant
from repro.ecosystem.population import (
    SCAN_SHARDS, PopulationConfig, canonical_names, contiguous_block,
    partition_names,
)
from repro.ecosystem.timeline import (
    EcosystemTimeline, TimelineConfig, population_to_dict, scan_instant,
    timeline_from_population,
)
from repro.ecosystem.world import World
from repro.measurement.scanner import Scanner
from repro.measurement.snapshots import SnapshotStore
from repro.measurement.store_io import month_shard_text, shard_digest
from repro.netsim.network import FaultPlan
from repro.obs.monitor import STAT_COUNTERS
from repro.obs.profile import ProfileReport, StageProfiler
from repro.obs.progress import ProgressEvent, ProgressTracker
from repro.pki.validation import chain_cache_stats, flush_chain_cache
from repro.trace import TraceReport, Tracer

BACKENDS = ("serial", "process")


@dataclass
class ScanStats:
    """Per-stage counters and timings for one (or several) scans.

    Counters are deltas measured around the scan, so a shared resolver
    or probe arriving with non-zero lifetime totals does not skew the
    numbers.  ``merge`` folds several months together; counters and
    timings add, ``domains_scanned`` accumulates.
    """

    backend: str = "serial"
    jobs: int = 1
    months: int = 0
    domains_scanned: int = 0
    # wall-clock splits (seconds)
    world_build_seconds: float = 0.0
    scan_seconds: float = 0.0
    # DNS stage
    dns_queries: int = 0
    dns_cache_hits: int = 0
    dns_negative_cache_hits: int = 0
    # policy stage
    policy_fetches: int = 0
    # SMTP stage
    smtp_probes: int = 0
    smtp_probe_cache_hits: int = 0
    # PKIX offline validation
    pkix_validations: int = 0
    pkix_cache_hits: int = 0
    # retry / fault-injection layer
    connect_retries: int = 0
    faults_injected: int = 0
    retry_backoff_seconds: float = 0.0
    transient_domains: int = 0
    # checkpoint / persistence layer (campaigns run with a state dir)
    checkpoints_written: int = 0
    checkpoint_seconds: float = 0.0

    def merge(self, other: "ScanStats") -> None:
        for f in fields(self):
            if f.name not in ("backend", "jobs"):
                setattr(self, f.name,
                        getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> Dict[str, int | float | str]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, int | float | str]) -> "ScanStats":
        """Rebuild a stats block from :meth:`as_dict` output.

        Unknown keys are ignored (a newer writer may have recorded more
        counters than this reader knows), missing keys keep their
        defaults — checkpointed campaign state stays loadable across
        counter additions.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items()
                      if key in known})

    @staticmethod
    def _hit_line(label: str, work: int, hits: int) -> str:
        total = work + hits
        rate = 100.0 * hits / total if total else 0.0
        return (f"  {label:<22} {work:>9,}   "
                f"cache hits {hits:>9,}  ({rate:5.1f}%)")

    def render_table(self) -> str:
        """The human-readable stats block printed by ``audit --stats``."""
        lines = [
            f"scan stats  [backend={self.backend} jobs={self.jobs} "
            f"months={self.months}]",
            f"  {'domains scanned':<22} {self.domains_scanned:>9,}",
            self._hit_line("dns queries", self.dns_queries,
                           self.dns_cache_hits),
            f"  {'dns negative hits':<22} "
            f"{self.dns_negative_cache_hits:>9,}",
            f"  {'policy fetches':<22} {self.policy_fetches:>9,}",
            self._hit_line("smtp probes", self.smtp_probes,
                           self.smtp_probe_cache_hits),
            self._hit_line("pkix validations", self.pkix_validations,
                           self.pkix_cache_hits),
            f"  {'connect retries':<22} {self.connect_retries:>9,}",
            f"  {'faults injected':<22} {self.faults_injected:>9,}",
            f"  {'transient domains':<22} {self.transient_domains:>9,}",
            f"  {'retry backoff':<22} "
            f"{self.retry_backoff_seconds:>10.2f}s (virtual)",
            f"  {'world build':<22} {self.world_build_seconds:>10.2f}s",
            f"  {'scan':<22} {self.scan_seconds:>10.2f}s",
        ]
        if self.checkpoints_written:
            lines.append(f"  {'checkpoints written':<22} "
                         f"{self.checkpoints_written:>9,}")
            lines.append(f"  {'checkpoint commit':<22} "
                         f"{self.checkpoint_seconds:>10.2f}s")
        return "\n".join(lines)


@dataclass
class PopulationScanResult:
    """What :meth:`ScanExecutor.scan_population` hands back: the merged
    store and stats, plus the snapshot context the CLI needs for
    committing and reporting."""

    store: SnapshotStore
    stats: ScanStats
    instant: Instant
    month_index: int
    build_stats: Dict[str, int]
    #: per-worker peak RSS (KiB, ``ru_maxrss``); empty for the serial
    #: backend.
    worker_peak_rss_kib: List[int] = field(default_factory=list)


class ScanExecutor:
    """Runs one month's scan through a configurable backend.

    The executor owns the scan-scoped cache lifecycle: every pass turns
    on the SMTP probe memo cache and flushes it afterwards (a probe
    result is only valid while the world does not mutate), and flushes
    the PKIX chain cache at its start so memory stays bounded across a
    long campaign.  A population scan's slices also start with an empty
    resolver cache.
    """

    def __init__(self, *, backend: str = "serial", jobs: int = 1,
                 trace: bool = False, profile: bool = False,
                 progress: Optional[Callable[[ProgressEvent], None]] = None,
                 heartbeat_every: int = 0):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}")
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if jobs > 1 and backend == "serial":
            raise ValueError(
                "the serial backend ignores jobs; pass jobs=1 or pick "
                "the 'process' backend")
        self.backend = backend
        self.jobs = jobs
        #: With tracing on, every scan leaves its merged
        #: :class:`~repro.trace.TraceReport` on :attr:`last_trace`.
        self.trace_enabled = trace
        self.last_trace: Optional[TraceReport] = None
        #: With profiling on, every scan leaves its merged wall-clock
        #: :class:`~repro.obs.profile.ProfileReport` on
        #: :attr:`last_profile`.
        self.profile_enabled = profile
        self.last_profile: Optional[ProfileReport] = None
        #: Progress callback: receives
        #: :class:`~repro.obs.progress.ProgressEvent` heartbeats while
        #: a scan runs.
        self.progress = progress
        self.heartbeat_every = heartbeat_every

    def scan(self, world: World, domains: Iterable[str], month_index: int,
             store: Optional[SnapshotStore] = None,
             instant: Optional[Instant] = None,
             ) -> tuple[SnapshotStore, ScanStats]:
        """Scan *domains* in *world* in one pass, returning the store and
        stats.  The pass starts from the world's resolver cache as it
        is; only :meth:`scan_population` cuts a scan into cold slices."""
        if self.backend == "process":
            raise ValueError(
                "the process backend materialises per-worker worlds from "
                "a population and cannot scan a pre-built world; use "
                "ScanExecutor.scan_population()")
        store = store if store is not None else SnapshotStore()
        instant = instant if instant is not None else world.now()
        names = canonical_names(domains)
        tracker = self._new_tracker(len(names), 1, month_index, instant)
        started = time.perf_counter()
        try:
            scanned = _scan_slice(
                world, names, month_index, instant, store,
                flush_resolver=False, trace=self.trace_enabled,
                profile=self.profile_enabled, progress=tracker)
        finally:
            if tracker is not None:
                tracker.finish()
        return store, self._merge([scanned], instant, jobs=1,
                                  scan_seconds=time.perf_counter() - started)

    def scan_population(self, population: PopulationConfig,
                        month_index: Optional[int] = None, *,
                        fault_seed: Optional[int] = None,
                        fault_rate: float = 0.2) -> PopulationScanResult:
        """Materialise and scan one month of *population*, slice by
        slice.

        The population-level entry point, supported by every backend
        and the only one the process backend offers (its workers build
        their own worlds, so there is no pre-built world to hand it).
        Each block of slices goes to :func:`_scan_block`: the serial
        backend runs one block of every slice in this process, the
        process backend ``min(jobs, slices)`` blocks in spawn workers.
        ``month_index`` defaults to the final scan month; with
        ``fault_seed`` every block installs the same seeded
        :class:`~repro.netsim.network.FaultPlan` after its world is
        built (faults perturb scans, never deployments), so fault
        decisions agree across blocks by construction.

        The merge digest-verifies every slice, checks the blocks agree
        on build churn, and merges stores, counters, tracers and
        profilers in slice order.  Both timings are the slowest
        block's, measured inside the block: the build, then the scan of
        its slices after the build.
        """
        timeline = EcosystemTimeline(TimelineConfig(population))
        if month_index is None:
            month_index = len(timeline.scan_instants) - 1
        instant = scan_instant(month_index)
        week = timeline.week_of(instant)
        slices = partition_names(
            [plan.name for plan in timeline.all_plans()
             if plan.adopted_by_week(week)], SCAN_SHARDS)
        blocks = min(self.jobs, len(slices))
        population_data = population_to_dict(population)
        payloads = [{
            "population": population_data,
            "month_index": month_index,
            "shard": (index, blocks),
            "slices": slices[contiguous_block(len(slices), index, blocks)],
            "fault_seed": fault_seed,
            "fault_rate": fault_rate,
            "trace": self.trace_enabled,
            "profile": self.profile_enabled,
        } for index in range(blocks)]

        tracker = self._new_tracker(sum(map(len, slices)), len(slices),
                                    month_index, instant)
        manager = None
        try:
            if self.backend == "serial":
                results = [_scan_block(payloads[0], tracker)]
            else:
                context = multiprocessing.get_context("spawn")
                queue = None
                if tracker is not None:
                    # A Manager proxy queue, not a pipe-backed one: a
                    # pipe's ``put`` blocks once it fills, and the parent
                    # stops draining when a progress callback raises, so
                    # workers could hang the pool's shutdown.
                    manager = context.Manager()
                    queue = manager.Queue()
                with ProcessPoolExecutor(max_workers=blocks,
                                         mp_context=context,
                                         initializer=_worker_init,
                                         initargs=(queue,)) as pool:
                    futures = [pool.submit(_process_scan_worker, payload)
                               for payload in payloads]
                    if tracker is not None:
                        # A worker's ``put`` is a synchronous round trip
                        # to the manager, so the drain after the last
                        # future completes sees every batch.
                        pending = futures
                        while pending:
                            pending = wait(pending, timeout=0.1).not_done
                            _drain_progress(queue, tracker)
                    results = [future.result() for future in futures]
        finally:
            if manager is not None:
                manager.shutdown()
            if tracker is not None:
                tracker.finish()

        store = SnapshotStore()
        scans: List[_SliceScan] = []
        for result in results:
            for text, digest, scanned in result["slices"]:
                if shard_digest(text) != digest:
                    raise RuntimeError(
                        f"population scan: slice {len(scans)} JSONL "
                        f"digest mismatch (corrupted in transit)")
                store.merge(SnapshotStore.from_rows(
                    json.loads(line) for line in text.splitlines()))
                scans.append(scanned)
        build_stats = results[0]["build_stats"]
        for result in results[1:]:
            if result["build_stats"] != build_stats:
                raise RuntimeError(
                    "population scan: blocks disagree on build churn "
                    f"({build_stats} vs {result['build_stats']}); "
                    "shard materialisation is nondeterministic")
        stats = self._merge(
            scans, instant, jobs=blocks,
            scan_seconds=max(r["scan_seconds"] for r in results),
            world_build_seconds=max(r["build_seconds"] for r in results))
        return PopulationScanResult(
            store=store, stats=stats, instant=instant,
            month_index=month_index, build_stats=dict(build_stats),
            worker_peak_rss_kib=(
                [r["peak_rss_kib"] for r in results]
                if self.backend == "process" else []))

    def _merge(self, scans: List[_SliceScan], instant: Instant, *,
               jobs: int, scan_seconds: float,
               world_build_seconds: float = 0.0) -> ScanStats:
        """Sum the slices' integer counters into one :class:`ScanStats`
        and merge their tracers and profilers, in slice order."""
        totals: Dict[str, int] = {}
        for scanned in scans:
            for name, value in scanned.counters.items():
                totals[name] = totals.get(name, 0) + value
        if self.trace_enabled:
            self.last_trace = TraceReport.merge(
                [scanned.tracer for scanned in scans],
                instant.epoch_seconds)
        if self.profile_enabled:
            self.last_profile = ProfileReport.merge(
                [scanned.profiler for scanned in scans])
        # Backoff is summed in integer microseconds and only converted
        # to seconds here, so the float does not depend on how the
        # slices were grouped.
        backoff_micros = totals.pop("retry_backoff_micros")
        return ScanStats(
            backend=self.backend, jobs=jobs, months=1,
            world_build_seconds=world_build_seconds,
            scan_seconds=scan_seconds,
            retry_backoff_seconds=backoff_micros / 1_000_000, **totals)

    def _new_tracker(self, domains_total: int, shards_total: int,
                     month_index: int,
                     instant: Instant) -> Optional[ProgressTracker]:
        if self.progress is None:
            return None
        return ProgressTracker(
            self.progress, month_index=month_index, backend=self.backend,
            domains_total=domains_total, shards_total=shards_total,
            virtual_epoch=instant.epoch_seconds,
            heartbeat_every=self.heartbeat_every)


@dataclass
class _SliceScan:
    """What one scan pass leaves besides its snapshots: its integer
    counter deltas (``ScanStats`` field names, backoff in
    microseconds) and its tracer and profiler."""

    counters: Dict[str, int]
    tracer: Optional[Tracer]
    profiler: Optional[StageProfiler]


#: The slice counters a trace records besides :data:`STAT_COUNTERS`,
#: by (slice counter, registry key).
_TRACE_COUNTERS = (("connects", "net.connects"),
                   ("retry_backoff_micros", "net.backoff_micros"))


def _world_counters(world: World) -> Dict[str, int]:
    pkix = chain_cache_stats()
    return {
        "connects": world.network.connect_count,
        "dns_queries": world.resolver.query_count,
        "dns_cache_hits": world.resolver.cache_hits,
        "dns_negative_cache_hits": world.resolver.negative_cache_hits,
        "smtp_probes": world.smtp_probe.probes_performed,
        "smtp_probe_cache_hits": world.smtp_probe.cache_hits,
        "pkix_validations": int(pkix["validations"]),
        "pkix_cache_hits": int(pkix["cache_hits"]),
        "connect_retries": world.network.retried_connects,
        "faults_injected": world.network.faults_injected,
        "retry_backoff_micros": world.network.backoff_micros,
    }


def _scan_slice(world: World, domains: List[str], month_index: int,
                instant: Instant, store: SnapshotStore, *,
                flush_resolver: bool, trace: bool, profile: bool,
                progress: "ProgressTracker | _QueueProgress | None"
                ) -> _SliceScan:
    """Scan *domains* into *store* in one pass: the routine under every
    scan, in both backends.

    The pass starts with empty SMTP-probe and PKIX caches, and with
    *flush_resolver* (every population-scan slice) an empty resolver
    cache too, so its work depends on nothing scanned before it.
    *progress* is told of every domain and of the finished slice.
    """
    if flush_resolver:
        world.resolver.flush_cache()
    probe = world.smtp_probe
    probe_was_cached = probe.cache_enabled
    probe.cache_enabled = True
    probe.flush_cache()
    flush_chain_cache()
    scanner = Scanner(world, tracer=Tracer() if trace else None,
                      profiler=StageProfiler() if profile else None)
    before = _world_counters(world)
    try:
        scanner.scan_all(
            domains, month_index, store, instant,
            on_domain=progress.domain_done if progress is not None else None)
    finally:
        probe.flush_cache()
        probe.cache_enabled = probe_was_cached
    after = _world_counters(world)
    counters = {name: after[name] - before[name] for name in after}
    counters.update(domains_scanned=len(domains),
                    policy_fetches=scanner.policy_fetches,
                    transient_domains=scanner.transient_domains)
    if scanner.tracer is not None:
        # The trace counts the slice's work from these deltas alone.
        # A key with no work stays absent, as in a registry that
        # counts as the work happens.
        metrics = scanner.tracer.metrics
        for name, key in STAT_COUNTERS + _TRACE_COUNTERS:
            if counters[name]:
                metrics.count(key, counters[name])
    del counters["connects"]        # no ScanStats field
    if progress is not None:
        progress.shard_done()
    return _SliceScan(counters, scanner.tracer, scanner.profiler)


def _scan_block(payload: dict,
                progress: "ProgressTracker | _QueueProgress | None"
                ) -> dict:
    """Build one block's world, scan the block's slices, and return each
    slice as shard text, digest and counters: the one routine behind
    :meth:`ScanExecutor.scan_population`, on both backends.

    The routine rebuilds the timeline from the population config
    (cheap relative to deployment), materialises **only its block** of
    slices — every adopted plan is still deployed and immediately
    undeployed when out-of-block, so allocation and issuance order
    match a whole-month build — installs the payload's seeded fault
    plan, and scans each slice cold.  Nothing a pass leaves behind
    reaches the next slice, so a pool process that runs a second
    payload returns the same result as a fresh one.
    """
    month_index = payload["month_index"]
    build_started = time.perf_counter()
    timeline = timeline_from_population(payload["population"])
    materialized = timeline.materialize(month_index, shard=payload["shard"])
    build_seconds = time.perf_counter() - build_started
    slices = payload["slices"]
    if sorted(materialized.deployed) != [name for names in slices
                                         for name in names]:
        raise RuntimeError(
            f"population scan: block {payload['shard']} built other "
            f"domains than its slices")

    world = materialized.world
    if payload["fault_seed"] is not None:
        world.network.install_fault_plan(FaultPlan.seeded(
            seed=payload["fault_seed"], rate=payload["fault_rate"]))

    scanned = []
    scan_started = time.perf_counter()
    for names in slices:
        store = SnapshotStore()
        scan = _scan_slice(
            world, names, month_index, materialized.instant, store,
            flush_resolver=True, trace=payload["trace"],
            profile=payload["profile"], progress=progress)
        text = month_shard_text(store, month_index)
        scanned.append((text, shard_digest(text), scan))

    return {
        "slices": scanned,
        "build_stats": materialized.build_stats,
        "build_seconds": build_seconds,
        "scan_seconds": time.perf_counter() - scan_started,
        "peak_rss_kib": _peak_rss_kib(),
    }


def _peak_rss_kib() -> int:
    """This process's peak RSS in KiB (0 where unsupported)."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


# ---------------------------------------------------------------------------
# The process backend's worker side.  Everything here is module-level so
# the ``spawn`` start method can pickle it by reference; the payload and
# result are plain data (plus each slice's Tracer / StageProfiler, which
# are plain-data objects by design).
# ---------------------------------------------------------------------------

#: Set by :func:`_worker_init` in each worker process; ``None`` when the
#: parent runs without a progress callback.
_PROGRESS_QUEUE: Any = None

#: Domains per progress message.  One queue message per domain would
#: make the Manager proxy round-trip the dominant per-domain cost;
#: batching keeps heartbeats cheap and the tracker's ``advance`` still
#: emits on every crossed heartbeat boundary.
_PROGRESS_BATCH = 32


def _worker_init(progress_queue: Any) -> None:
    global _PROGRESS_QUEUE
    _PROGRESS_QUEUE = progress_queue


class _QueueProgress:
    """A worker's progress sink: the tracker calls of a slice scan,
    shipped to the parent over the progress queue, domains in batches
    of :data:`_PROGRESS_BATCH`."""

    def __init__(self, queue: Any):
        self._queue = queue
        self._pending = 0

    def domain_done(self, domain: str) -> None:
        self._pending += 1
        if self._pending >= _PROGRESS_BATCH:
            self._flush()

    def shard_done(self) -> None:
        self._flush()
        self._queue.put(("shard", 1))

    def _flush(self) -> None:
        if self._pending:
            self._queue.put(("domains", self._pending))
            self._pending = 0


def _drain_progress(queue: Any, tracker: ProgressTracker) -> None:
    """Feed every queued worker heartbeat into the tracker, without
    blocking."""
    while True:
        try:
            kind, value = queue.get_nowait()
        except Empty:
            return
        if kind == "domains":
            tracker.advance(value)
        else:
            tracker.shard_done()


def _process_scan_worker(payload: dict) -> dict:
    """One pool worker: :func:`_scan_block` with its heartbeats sent
    over the progress queue."""
    queue = _PROGRESS_QUEUE
    return _scan_block(
        payload, _QueueProgress(queue) if queue is not None else None)
