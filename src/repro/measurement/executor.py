"""Scan execution: backends, sharding, and per-stage instrumentation.

The paper's monthly component scans cover every MTA-STS domain in four
TLD zone files — at that scale the scan pipeline's cost, not the
analysis, dominates a campaign.  :class:`ScanExecutor` runs one
month's scan through one of two backends:

``serial``
    one :class:`~repro.measurement.scanner.Scanner` walks the domains
    in canonical (sorted) order — the reference execution and the
    only in-process one;

``process``
    *jobs* shard workers in separate OS processes (``spawn``), each
    materialising **only its slice** of the population (see
    :meth:`~repro.ecosystem.timeline.EcosystemTimeline.materialize`'s
    ``shard`` argument), scanning it against its private world, and
    streaming the resulting snapshots back as the on-disk shard JSONL
    (:func:`~repro.measurement.store_io.month_shard_text`) for the
    parent to digest-verify, parse, and merge in shard order.  Because
    the workers share no caches, each one journals the memoizable work
    it performed (live DNS queries, settled SMTP probes, PKIX
    validations) so the parent can subtract cross-worker duplicates
    and recover serial-exact :class:`ScanStats` — see
    :class:`ShardScanJournal`.  This backend starts from a
    :class:`~repro.ecosystem.population.PopulationConfig`, not a
    pre-built world, so it is driven through :meth:`ScanExecutor.
    scan_population` rather than :meth:`ScanExecutor.scan`.

Both backends produce byte-identical
:class:`~repro.measurement.snapshots.SnapshotStore` contents (the
determinism tests assert this through ``canonical_bytes()``): a
domain's snapshot is a pure function of the world and the scan
instant, the per-snapshot memo caches (SMTP probe results keyed by MX
hostname, PKIX verdicts keyed by certificate fingerprint) compute each
entry once, and the merge order is fixed.  Neither backend starts a
thread: the process parent drains worker heartbeats between waits on
the shard futures, so progress callbacks run on the caller's thread.

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
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.clock import Instant
from repro.ecosystem.population import (
    PopulationConfig, canonical_names, partition_names,
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
from repro.obs.profile import ProfileReport, StageProfiler
from repro.obs.progress import ProgressEvent, ProgressTracker
from repro.pki.keys import fresh_key_ids
from repro.pki.validation import (
    chain_cache_keys, chain_cache_stats, flush_chain_cache,
)
from repro.trace import MetricsRegistry, TraceReport, Tracer

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

    _COUNTERS = ("months", "domains_scanned", "world_build_seconds",
                 "scan_seconds", "dns_queries", "dns_cache_hits",
                 "dns_negative_cache_hits", "policy_fetches",
                 "smtp_probes", "smtp_probe_cache_hits",
                 "pkix_validations", "pkix_cache_hits",
                 "connect_retries", "faults_injected",
                 "retry_backoff_seconds", "transient_domains",
                 "checkpoints_written", "checkpoint_seconds")

    def merge(self, other: "ScanStats") -> None:
        for name in self._COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @classmethod
    def from_metrics(cls, metrics: MetricsRegistry, *,
                     backend: str = "serial", jobs: int = 1,
                     months: int = 1, scan_seconds: float = 0.0,
                     world_build_seconds: float = 0.0) -> "ScanStats":
        """A stats block as a *view* over a merged trace registry.

        When tracing is enabled the registry is incremented at exactly
        the sites where the legacy world counters are, so this view
        must equal the counter-delta stats the executor computes — the
        trace determinism tests assert that equality.
        """
        get = metrics.get
        return cls(
            backend=backend, jobs=jobs, months=months,
            domains_scanned=get("scan.domains"),
            world_build_seconds=world_build_seconds,
            scan_seconds=scan_seconds,
            dns_queries=get("dns.queries"),
            dns_cache_hits=get("dns.cache_hits"),
            dns_negative_cache_hits=get("dns.negative_cache_hits"),
            policy_fetches=get("policy.fetches"),
            smtp_probes=get("smtp.probes"),
            smtp_probe_cache_hits=get("smtp.cache_hits"),
            pkix_validations=get("pkix.validations"),
            pkix_cache_hits=get("pkix.cache_hits"),
            connect_retries=get("net.connect_retries"),
            faults_injected=get("net.faults_injected"),
            retry_backoff_seconds=get("net.backoff_micros") / 1_000_000,
            transient_domains=get("scan.transient_domains"),
        )

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


class ShardScanJournal:
    """Per-worker record of the memoizable work a shard performed.

    Under the process backend every worker owns private caches, so
    work that the serial scan memoizes globally — live DNS queries
    that populate the resolver cache, settled SMTP probe executions,
    PKIX chain validations — is re-executed once per worker that
    needs it.  Snapshot *contents* are unaffected (every re-execution
    is byte-identical by construction: fault decisions are pure
    functions of the endpoint, attempt and virtual clock, and the
    clock never advances during a scan), but the per-worker counters
    over-count the duplicated work.  The journal captures exactly
    what was duplicated and what it cost, so the parent can subtract
    ``(multiplicity - 1) x cost`` per item and recover serial-exact
    :class:`ScanStats`:

    * every live DNS query that stored a cache entry is journaled
      with its key, negative flag, and the connect retries / faults /
      backoff the lookup itself spent;
    * every *settled* probe execution (the memoized kind — transient
      verdicts are never cached, hence never duplicated beyond their
      per-domain call count, which partitions exactly) is journaled
      with a full cost vector.  Costs of live DNS lookups nested
      inside the probe window are excluded from the probe's vector —
      they are corrected through their own DNS journal entries, and
      counting them in both would double-subtract.

    The journal is attached to a worker's resolver and probe by the
    process backend only.
    """

    def __init__(self, world: World):
        self._resolver = world.resolver
        self._network = world.network
        #: ``(key, negative, connect_retries, faults, backoff_micros)``
        #: per live DNS query that stored a (positive or negative)
        #: cache entry, in execution order.
        self.dns_log: List[Tuple[str, bool, int, int, int]] = []
        #: settled probe hostname -> its execution cost vector.
        self.probe_costs: Dict[str, Dict[str, int]] = {}

    def _net_state(self) -> Tuple[int, int, int]:
        net = self._network
        return (net.retried_connects, net.faults_injected,
                net.backoff_micros)

    # -- resolver hooks ----------------------------------------------

    def dns_started(self) -> Tuple[int, int, int]:
        return self._net_state()

    def dns_finished(self, key: str, negative: bool, token) -> None:
        retries0, faults0, backoff0 = token
        retries1, faults1, backoff1 = self._net_state()
        self.dns_log.append((key, bool(negative), retries1 - retries0,
                             faults1 - faults0, backoff1 - backoff0))

    # -- probe hooks -------------------------------------------------

    def probe_started(self):
        resolver = self._resolver
        pkix = chain_cache_stats()
        return (len(self.dns_log),
                resolver.query_count + resolver.cache_hits,
                resolver.negative_cache_hits,
                int(pkix["validations"]) + int(pkix["cache_hits"]),
                self._net_state())

    def probe_finished(self, name: str, transient: bool, token) -> None:
        if transient:
            return
        log_start, dns0, neg0, pkix0, (r0, f0, b0) = token
        resolver = self._resolver
        pkix = chain_cache_stats()
        window = self.dns_log[log_start:]
        r1, f1, b1 = self._net_state()
        self.probe_costs[name] = {
            # request counts are call counts — independent of each
            # worker's cache state, hence identical across workers
            # (the parent asserts this).
            "dns_requests": (resolver.query_count + resolver.cache_hits
                             - dns0),
            "neg_requests": (resolver.negative_cache_hits - neg0
                             + sum(1 for entry in window if entry[1])),
            "pkix_requests": (int(pkix["validations"])
                              + int(pkix["cache_hits"]) - pkix0),
            "connect_retries": r1 - r0 - sum(e[2] for e in window),
            "faults_injected": f1 - f0 - sum(e[3] for e in window),
            "backoff_micros": b1 - b0 - sum(e[4] for e in window),
        }


@dataclass
class PopulationScanResult:
    """What :meth:`ScanExecutor.scan_population` hands back: the merged
    store and serial-exact stats, plus the snapshot context the CLI
    needs for committing and reporting."""

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

    The executor owns the scan-scoped cache lifecycle: it turns on the
    SMTP probe memo cache for the duration of one snapshot scan and
    flushes it afterwards (a probe result is only valid while the
    world does not mutate), and it flushes the PKIX chain cache at
    scan start so memory stays bounded across a long campaign.
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
        """Scan *domains* in *world*, returning the store and stats."""
        if self.backend == "process":
            raise ValueError(
                "the process backend materialises per-shard worlds from "
                "a population and cannot scan a pre-built world; use "
                "ScanExecutor.scan_population()")
        store = store if store is not None else SnapshotStore()
        instant = instant if instant is not None else world.now()
        domains = canonical_names(domains)
        tracker = self._new_tracker(domains, month_index, instant)

        probe = world.smtp_probe
        probe_was_cached = probe.cache_enabled
        probe.cache_enabled = True
        probe.flush_cache()
        flush_chain_cache()

        scanner = Scanner(
            world, tracer=Tracer() if self.trace_enabled else None,
            profiler=StageProfiler() if self.profile_enabled else None)
        before = self._counters(world)
        started = time.perf_counter()
        try:
            scanner.scan_all(
                domains, month_index, store, instant,
                on_domain=tracker.domain_done if tracker else None)
            if tracker is not None:
                tracker.shard_done()
        finally:
            probe.flush_cache()
            probe.cache_enabled = probe_was_cached
            if tracker is not None:
                tracker.finish()
        elapsed = time.perf_counter() - started

        if self.trace_enabled:
            self.last_trace = TraceReport.merge([scanner.tracer],
                                                instant.epoch_seconds)
        if self.profile_enabled:
            self.last_profile = ProfileReport.merge([scanner.profiler])

        after = self._counters(world)
        deltas = {name: after[name] - before[name] for name in after}
        # Backoff is tracked in integer microseconds end to end and
        # only converted to seconds here, so the serial and process
        # backends derive the float the same way — exact equality
        # across backends, no float-subtraction residue.
        backoff_micros = deltas.pop("retry_backoff_micros")
        stats = ScanStats(
            backend=self.backend, jobs=self.jobs, months=1,
            domains_scanned=len(domains),
            scan_seconds=elapsed,
            policy_fetches=scanner.policy_fetches,
            transient_domains=scanner.transient_domains,
            retry_backoff_seconds=backoff_micros / 1_000_000,
            **deltas,
        )
        return store, stats

    def scan_population(self, population: PopulationConfig,
                        month_index: Optional[int] = None, *,
                        fault_seed: Optional[int] = None,
                        fault_rate: float = 0.2) -> PopulationScanResult:
        """Materialise and scan one month of *population*.

        The population-level entry point, supported by every backend
        and the only one the process backend offers (its workers build
        their own shard-scoped worlds, so there is no pre-built world
        to hand it).  ``month_index`` defaults to the final scan month;
        with ``fault_seed`` a seeded
        :class:`~repro.netsim.network.FaultPlan` is installed after the
        world is built (faults perturb scans, never deployments) — in
        the process backend each worker installs the identical plan, so
        fault decisions agree across shards by construction.
        """
        timeline = EcosystemTimeline(TimelineConfig(population))
        if month_index is None:
            month_index = len(timeline.scan_instants) - 1
        if self.backend == "process":
            return self._scan_process(timeline, month_index,
                                      fault_seed=fault_seed,
                                      fault_rate=fault_rate)
        build_started = time.perf_counter()
        materialized = timeline.materialize(month_index)
        build_seconds = time.perf_counter() - build_started
        if fault_seed is not None:
            materialized.world.network.install_fault_plan(
                FaultPlan.seeded(seed=fault_seed, rate=fault_rate))
        store, stats = self.scan(
            materialized.world, materialized.deployed.keys(), month_index,
            instant=materialized.instant)
        stats.world_build_seconds = build_seconds
        return PopulationScanResult(
            store=store, stats=stats, instant=materialized.instant,
            month_index=month_index, build_stats=materialized.build_stats)

    def _scan_process(self, timeline: EcosystemTimeline, month_index: int,
                      *, fault_seed: Optional[int],
                      fault_rate: float) -> PopulationScanResult:
        """Fan one month out over spawn workers and merge the streams.

        Each worker materialises shard ``(i, n)`` of the population,
        scans it, and returns the month's shard JSONL (the on-disk
        interchange format) plus its counters and
        :class:`ShardScanJournal`.  The parent digest-verifies every
        shard, parses and merges the stores in shard order, and folds
        the counters back to serial-exact totals through
        :meth:`_merge_process_stats`.
        """
        instant = scan_instant(month_index)
        week = timeline.week_of(instant)
        adopted = [plan.name for plan in timeline.all_plans()
                   if plan.adopted_by_week(week)]
        # partition_names clamps the shard count to the domain count,
        # so worker i's slice here is exactly the shard the worker's
        # own materialisation keeps.
        slices = partition_names(adopted, self.jobs)
        shard_count = len(slices)

        tracker: Optional[ProgressTracker] = None
        if self.progress is not None:
            tracker = ProgressTracker(
                self.progress, month_index=month_index,
                backend=self.backend,
                domains_total=sum(len(s) for s in slices),
                shards_total=shard_count,
                virtual_epoch=instant.epoch_seconds,
                heartbeat_every=self.heartbeat_every)

        population_data = population_to_dict(timeline.config.population)
        payloads = [{
            "population": population_data,
            "month_index": month_index,
            "shard_index": index,
            "shard_count": shard_count,
            "fault_seed": fault_seed,
            "fault_rate": fault_rate,
            "trace": self.trace_enabled,
            "profile": self.profile_enabled,
        } for index in range(shard_count)]

        context = multiprocessing.get_context("spawn")
        manager = queue = None
        if tracker is not None:
            # A plain mp.Queue cannot ride through ProcessPoolExecutor
            # initargs; a Manager proxy queue can.
            manager = context.Manager()
            queue = manager.Queue()
        started = time.perf_counter()
        try:
            with ProcessPoolExecutor(max_workers=shard_count,
                                     mp_context=context,
                                     initializer=_worker_init,
                                     initargs=(queue,)) as pool:
                futures = [pool.submit(_process_scan_worker, payload)
                           for payload in payloads]
                if tracker is not None:
                    # A worker's ``put`` is a synchronous round trip to
                    # the manager, so the drain after the last future
                    # completes sees every batch.
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
        elapsed = time.perf_counter() - started

        store = SnapshotStore()
        for result in results:
            text = result["shard_text"]
            if shard_digest(text) != result["shard_digest"]:
                raise RuntimeError(
                    f"process scan: shard {result['shard_index']} JSONL "
                    f"digest mismatch (corrupted in transit)")
            store.merge(SnapshotStore.from_rows(
                json.loads(line) for line in text.splitlines()))
        build_stats = results[0]["build_stats"]
        for result in results[1:]:
            if result["build_stats"] != build_stats:
                raise RuntimeError(
                    "process scan: workers disagree on build churn "
                    f"({build_stats} vs {result['build_stats']}); "
                    "shard materialisation is nondeterministic")

        stats, corrections = self._merge_process_stats(
            results, elapsed, shard_count)
        if self.trace_enabled:
            report = TraceReport.merge(
                [r["tracer"] for r in results if r["tracer"] is not None],
                instant.epoch_seconds)
            # Cross-worker duplicated work inflates the summed trace
            # counters exactly like the legacy counters; overwrite the
            # affected keys with the corrected serial-exact values (a
            # zero means serial would never have created the key).
            # Histograms keep per-execution observations — documented
            # as execution-shaped, not serial-shaped.
            for key, value in corrections.items():
                if value:
                    report.metrics.counters[key] = value
                else:
                    report.metrics.counters.pop(key, None)
            self.last_trace = report
        if self.profile_enabled:
            self.last_profile = ProfileReport.merge(
                [r["profiler"] for r in results
                 if r["profiler"] is not None])
        return PopulationScanResult(
            store=store, stats=stats, instant=instant,
            month_index=month_index, build_stats=dict(build_stats),
            worker_peak_rss_kib=[r["peak_rss_kib"] for r in results])

    def _merge_process_stats(self, results: List[dict], elapsed: float,
                             shard_count: int
                             ) -> tuple[ScanStats, Dict[str, int]]:
        """Fold per-worker counters into serial-exact totals.

        Per-domain work (domains, policy fetches, per-domain DNS and
        probe requests) partitions exactly across shards and just
        sums.  Memoized work re-executed by several workers is
        corrected by ``(multiplicity - 1) x cost`` using the shard
        journals: live DNS queries by cache key, settled probe
        executions by hostname, PKIX validations by the union of
        validation-cache keys.  All arithmetic is integer, so the
        result is independent of worker count and merge order; the
        consistency checks raise on any cross-worker disagreement,
        which would mean a worker's execution was *not* the byte-
        identical replay the determinism invariant promises.
        """
        dns_mult: Dict[str, int] = {}
        dns_info: Dict[str, Tuple[bool, int, int, int]] = {}
        neg_live_sum = 0
        for result in results:
            seen: set = set()
            for key, negative, retries, faults, backoff in \
                    result["dns_journal"]:
                if key in seen:
                    raise RuntimeError(
                        f"process scan: {key!r} live-queried twice in "
                        f"shard {result['shard_index']} (cache entry "
                        "lost mid-scan?)")
                seen.add(key)
                info = (bool(negative), retries, faults, backoff)
                previous = dns_info.setdefault(key, info)
                if previous != info:
                    raise RuntimeError(
                        f"process scan: shards disagree on the cost of "
                        f"DNS query {key!r}: {previous} vs {info}")
                dns_mult[key] = dns_mult.get(key, 0) + 1
                if negative:
                    neg_live_sum += 1

        probe_mult: Dict[str, int] = {}
        probe_info: Dict[str, Dict[str, int]] = {}
        for result in results:
            for name, cost in result["probe_journal"].items():
                previous = probe_info.setdefault(name, cost)
                if previous != cost:
                    raise RuntimeError(
                        f"process scan: shards disagree on the cost of "
                        f"probe {name!r}: {previous} vs {cost}")
                probe_mult[name] = probe_mult.get(name, 0) + 1

        pkix_union: set = set()
        for result in results:
            keys = {tuple(key) for key in result["pkix_keys"]}
            if len(keys) != result["counters"]["pkix_validations"]:
                raise RuntimeError(
                    f"process scan: shard {result['shard_index']} "
                    f"reports {result['counters']['pkix_validations']} "
                    f"validations but {len(keys)} distinct cache keys")
            pkix_union |= keys

        def total(name: str) -> int:
            return sum(result["counters"][name] for result in results)

        def dns_extra(index: int) -> int:
            return sum((mult - 1) * dns_info[key][index]
                       for key, mult in dns_mult.items())

        def probe_extra(name: str) -> int:
            return sum((mult - 1) * probe_info[host][name]
                       for host, mult in probe_mult.items())

        dns_queries = total("dns_queries") - sum(
            mult - 1 for mult in dns_mult.values())
        dns_requests = (total("dns_queries") + total("dns_cache_hits")
                        - probe_extra("dns_requests"))
        dns_cache_hits = dns_requests - dns_queries
        neg_requests = (total("dns_negative_cache_hits") + neg_live_sum
                        - probe_extra("neg_requests"))
        neg_live = sum(1 for info in dns_info.values() if info[0])
        dns_negative_cache_hits = neg_requests - neg_live

        smtp_probes = total("smtp_probes") - sum(
            mult - 1 for mult in probe_mult.values())
        smtp_probe_cache_hits = (total("smtp_probes")
                                 + total("smtp_probe_cache_hits")
                                 - smtp_probes)

        pkix_validations = len(pkix_union)
        pkix_requests = (total("pkix_validations")
                         + total("pkix_cache_hits")
                         - probe_extra("pkix_requests"))
        pkix_cache_hits = pkix_requests - pkix_validations

        connect_retries = (total("connect_retries") - dns_extra(1)
                           - probe_extra("connect_retries"))
        faults_injected = (total("faults_injected") - dns_extra(2)
                           - probe_extra("faults_injected"))
        backoff_micros = (total("retry_backoff_micros") - dns_extra(3)
                          - probe_extra("backoff_micros"))

        corrections = {
            "dns.queries": dns_queries,
            "dns.cache_hits": dns_cache_hits,
            "dns.negative_cache_hits": dns_negative_cache_hits,
            "smtp.probes": smtp_probes,
            "smtp.cache_hits": smtp_probe_cache_hits,
            "pkix.validations": pkix_validations,
            "pkix.cache_hits": pkix_cache_hits,
            "net.connect_retries": connect_retries,
            "net.faults_injected": faults_injected,
            "net.backoff_micros": backoff_micros,
        }
        for name, value in corrections.items():
            if value < 0:
                raise RuntimeError(
                    f"process scan: merged counter {name} went negative "
                    f"({value}); the shard journals over-corrected")

        stats = ScanStats(
            backend=self.backend, jobs=shard_count, months=1,
            domains_scanned=sum(r["domains_scanned"] for r in results),
            world_build_seconds=max(
                result["build_seconds"] for result in results),
            scan_seconds=elapsed,
            dns_queries=dns_queries,
            dns_cache_hits=dns_cache_hits,
            dns_negative_cache_hits=dns_negative_cache_hits,
            policy_fetches=sum(r["policy_fetches"] for r in results),
            smtp_probes=smtp_probes,
            smtp_probe_cache_hits=smtp_probe_cache_hits,
            pkix_validations=pkix_validations,
            pkix_cache_hits=pkix_cache_hits,
            connect_retries=connect_retries,
            faults_injected=faults_injected,
            retry_backoff_seconds=backoff_micros / 1_000_000,
            transient_domains=sum(
                r["transient_domains"] for r in results),
        )
        return stats, corrections

    def _new_tracker(self, domains: List[str], month_index: int,
                     instant: Instant) -> Optional[ProgressTracker]:
        if self.progress is None:
            return None
        return ProgressTracker(
            self.progress, month_index=month_index, backend=self.backend,
            domains_total=len(domains), shards_total=1,
            virtual_epoch=instant.epoch_seconds,
            heartbeat_every=self.heartbeat_every)

    @staticmethod
    def _counters(world: World) -> Dict[str, int | float]:
        pkix = chain_cache_stats()
        return {
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


# ---------------------------------------------------------------------------
# The process backend's worker side.  Everything here is module-level so
# the ``spawn`` start method can pickle it by reference; the payload and
# result are plain dicts of picklable data (plus the worker's Tracer /
# StageProfiler, which are plain-data objects by design).
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


def _peak_rss_kib() -> int:
    """This process's peak RSS in KiB (0 where unsupported)."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _process_scan_worker(payload: dict) -> dict:
    """One shard worker: build the shard's world, scan it, stream back.

    The worker rebuilds the timeline from the population config (cheap
    relative to deployment), materialises **only its shard** of the
    world — every adopted plan is still deployed and immediately
    undeployed when out-of-shard, so allocation order, certificate
    issuance and ACME cache warmth match a serial build byte for byte —
    installs the same seeded fault plan the serial scan would, scans
    its slice, and returns the month's shard JSONL plus counters and
    the :class:`ShardScanJournal` the parent merges with.

    The pool may run several shards in one process, one after another,
    so the shard runs under :func:`~repro.pki.keys.fresh_key_ids`: its
    world's keys, and hence the certificate fingerprints in the PKIX
    cache keys the parent unions, are the ones a fresh process mints.
    """
    with fresh_key_ids():
        return _scan_shard(payload)


def _scan_shard(payload: dict) -> dict:
    month_index = payload["month_index"]
    shard = (payload["shard_index"], payload["shard_count"])

    build_started = time.perf_counter()
    timeline = timeline_from_population(payload["population"])
    materialized = timeline.materialize(month_index, shard=shard)
    build_seconds = time.perf_counter() - build_started

    world = materialized.world
    if payload["fault_seed"] is not None:
        world.network.install_fault_plan(FaultPlan.seeded(
            seed=payload["fault_seed"], rate=payload["fault_rate"]))

    journal = ShardScanJournal(world)
    world.resolver.journal = journal
    probe = world.smtp_probe
    probe.journal = journal
    probe.cache_enabled = True
    probe.flush_cache()
    flush_chain_cache()

    queue = _PROGRESS_QUEUE
    pending = 0

    def on_domain(domain: str) -> None:
        nonlocal pending
        pending += 1
        if pending >= _PROGRESS_BATCH:
            queue.put(("domains", pending))
            pending = 0

    domains = sorted(materialized.deployed)
    store = SnapshotStore()
    tracer = Tracer() if payload["trace"] else None
    profiler = StageProfiler() if payload["profile"] else None
    scanner = Scanner(world, tracer=tracer, profiler=profiler)

    before = ScanExecutor._counters(world)
    scan_started = time.perf_counter()
    scanner.scan_all(domains, month_index, store, materialized.instant,
                     on_domain=on_domain if queue is not None else None)
    scan_seconds = time.perf_counter() - scan_started
    after = ScanExecutor._counters(world)
    probe.flush_cache()

    if queue is not None:
        if pending:
            queue.put(("domains", pending))
        queue.put(("shard", 1))

    text = month_shard_text(store, month_index)
    return {
        "shard_index": payload["shard_index"],
        "domains_scanned": len(domains),
        "shard_text": text,
        "shard_digest": shard_digest(text),
        "counters": {name: after[name] - before[name] for name in after},
        "policy_fetches": scanner.policy_fetches,
        "transient_domains": scanner.transient_domains,
        "dns_journal": journal.dns_log,
        "probe_journal": journal.probe_costs,
        "pkix_keys": chain_cache_keys(),
        "build_stats": materialized.build_stats,
        "build_seconds": build_seconds,
        "scan_seconds": scan_seconds,
        "peak_rss_kib": _peak_rss_kib(),
        "tracer": tracer,
        "profiler": profiler,
    }
