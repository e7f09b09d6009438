"""The MTA-STS policy-checker service (``repro serve``).

Every other workload in the repo is batch; this is the always-on,
user-facing one: a validator-as-a-service on the simulated network
that answers "is this domain's MTA-STS deployment correct, and why"
— the checking infrastructure the paper's §4.7 notification
experiment presumes and Figure 5's retrieval-failure classes motivate.
Operators cannot see their own breakage; a service that anyone can
query (and that popular domains get queried about constantly) can.

Architecture
============

* **Verdict computation** reuses the scanner's single-domain path
  verbatim: :meth:`~repro.measurement.scanner.Scanner.scan_domain`
  against the live materialised world, folded through
  :func:`~repro.measurement.taxonomy.primary_bucket` and
  :func:`~repro.measurement.taxonomy.categorize` into a canonical
  JSON verdict payload — a pure function of (world, domain, instant),
  which is what makes everything below deterministic.

* **TTL verdict cache** — a :class:`VerdictCache` keyed by
  :func:`~repro.dns.name.canonical_host`, sharing the policy cache's
  RFC 8461-style expiry (:func:`~repro.core.cache.ttl_fresh`) against
  the virtual clock (strict ``now < stored + ttl``, stale entries
  evicted on read).  A verdict
  for a domain publishing a policy honours that policy's ``max_age``
  (clamped into ``[min_ttl_seconds, ttl_seconds]``); domains without a
  usable ``max_age`` cache for the configured default.

* **Per-tick request grouping** — the coordinator groups each tick's
  batch by canonical key before it touches the cache, so a flash
  crowd on one domain computes the verdict once and every other
  request in the crowd is served the stored result (counted as
  *collapsed*).  A failed computation stores nothing, so the next
  request for the key computes afresh.

* **Seeded query mix** — an open-internet workload over the full
  domain universe (adopted or not: real checkers get asked about
  domains with no MTA-STS at all), with Zipf-ish popularity over a
  seeded ranking and periodic flash crowds that slam one domain with
  a burst of identical requests.

* **Deterministic request loop** — requests are replayed in ticks
  against a frozen virtual instant; the clock advances only between
  ticks, and month boundaries re-materialise the world through
  :class:`~repro.ecosystem.timeline.IncrementalMaterializer`, so the
  service runs against a *live, evolving* ecosystem.  Every metric on
  the determinism surface (hit/miss/collapse counters, integer-micro
  latency histograms, stampede fan-in) is derived by the coordinator
  from batch composition — never from the order requests are served
  in — so any two same-seed runs emit **byte-identical** metrics
  JSONL.

Virtual latency is modelled as a pure function of the observed
snapshot (per-lookup DNS cost, policy fetch cost, per-MX probe cost),
so the p99 the monitor reports measures *deployment shape* under the
cache policy, not host scheduling.
"""

from __future__ import annotations

import json
import math
import random
import time
from bisect import bisect_left
from dataclasses import asdict, dataclass, fields
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.clock import DAY, Clock, Duration, Instant
from repro.core.cache import ttl_fresh
from repro.dns.name import canonical_host
from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import (
    EcosystemTimeline, IncrementalMaterializer, TimelineConfig,
)
from repro.measurement.scanner import Scanner
from repro.measurement.snapshots import DomainSnapshot
from repro.measurement.taxonomy import categorize, primary_bucket
from repro.obs.monitor import FeedRecord, ServeMonitor, ServeThresholds
from repro.trace import Histogram, MetricsRegistry

__all__ = [
    "SERVE_LATENCY_BOUNDS", "HIT_LATENCY_MICROS",
    "ServeConfig", "ServeStats", "ServeResult",
    "VerdictCache", "QueryMixGenerator",
    "verdict_payload", "verdict_cost_micros", "verdict_ttl",
    "run_serve",
]

#: Latency histogram bounds (seconds) tuned for service latencies:
#: cache hits land in the first bucket, verdict computations spread
#: over the 0.1 s – 5 s range depending on deployment shape.
SERVE_LATENCY_BOUNDS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.25,
                        0.5, 1.0, 2.0, 5.0)

#: Virtual cost of serving a cached verdict.
HIT_LATENCY_MICROS = 1_000
#: Virtual cost per DNS lookup a verdict computation performs.
DNS_LATENCY_MICROS = 25_000
#: Virtual cost of the HTTPS policy fetch.
FETCH_LATENCY_MICROS = 120_000
#: Virtual cost per SMTP MX probe.
PROBE_LATENCY_MICROS = 180_000


# ---------------------------------------------------------------------------
# Verdicts: payload, cost, and TTL — pure functions of the snapshot
# ---------------------------------------------------------------------------

def verdict_payload(snapshot: DomainSnapshot) -> str:
    """The canonical JSON answer to "is this deployment correct, and
    why" — compact, sorted keys, so equal verdicts are equal bytes
    (the eviction-then-refetch identity the property tests assert)."""
    bucket = primary_bucket(snapshot)
    return json.dumps({
        "domain": snapshot.domain,
        "checked_at": snapshot.instant.epoch_seconds,
        "bucket": bucket,
        "ok": bucket == "ok",
        "sts": snapshot.sts_like,
        "categories": [c.value for c in categorize(snapshot)],
        "mode": snapshot.policy_mode,
        "max_age": snapshot.policy_max_age or 0,
        "mx": list(snapshot.mx_hostnames),
        "fetch_stage": snapshot.policy_fetch_stage or "",
        "syntax_errors": list(snapshot.policy_syntax_errors),
    }, sort_keys=True, separators=(",", ":"))


def verdict_cost_micros(snapshot: DomainSnapshot) -> int:
    """The modelled virtual cost of computing one verdict.

    A pure function of the observed snapshot: the DNS lookups the
    scanner performed (NS, apex A, MX, TLSRPT plus one per MX host),
    the HTTPS policy fetch when the domain signals MTA-STS, and one
    SMTP probe per observed MX.  Deliberately *not* measured from
    shared world counters, which depend on what earlier verdicts
    already cached.
    """
    lookups = 4 + len(snapshot.mx_hostnames)
    cost = DNS_LATENCY_MICROS * lookups
    if snapshot.sts_like:
        cost += FETCH_LATENCY_MICROS
    cost += PROBE_LATENCY_MICROS * len(snapshot.mx_observations)
    return cost


def verdict_ttl(snapshot: DomainSnapshot, *, ttl_seconds: int,
                min_ttl_seconds: int) -> int:
    """How long one verdict stays servable, RFC 8461-style.

    A domain publishing a parseable ``max_age`` is re-checked on its
    own cadence (clamped into ``[min_ttl, ttl]``); everything else —
    no MTA-STS, unfetchable policy — caches for the default, the
    service's equivalent of negative caching.
    """
    max_age = snapshot.policy_max_age
    if max_age:
        return max(min_ttl_seconds, min(max_age, ttl_seconds))
    return ttl_seconds


# ---------------------------------------------------------------------------
# The verdict cache
# ---------------------------------------------------------------------------

class VerdictCache:
    """A TTL verdict cache keyed by canonical host.

    The policy cache's expiry contract against the virtual clock:
    strict :func:`~repro.core.cache.ttl_fresh` freshness, a stale entry
    evicted (and counted in :attr:`eviction_count`) by the read that
    finds it, and a non-counting :meth:`fresh` probe so freshness
    checks never inflate :attr:`hit_count`.  A miss computes the
    verdict and stores it; a computation that raises stores nothing,
    so a failure is never cached and the next request for the key
    computes afresh.
    """

    def __init__(self, clock: Clock):
        self._clock = clock
        #: canonical host -> (verdict payload, stored at, TTL seconds)
        self._entries: Dict[str, Tuple[str, Instant, int]] = {}
        #: Verdict computations performed.
        self.computed_count = 0
        self.hit_count = 0
        self.eviction_count = 0

    def get_or_compute(self, domain: str,
                       compute: Callable[[str], Tuple[str, int]]) -> str:
        """The fresh verdict for *domain*, computing and storing it on
        a miss.  *compute* receives the canonical key and returns
        ``(payload, ttl)``; a TTL under one second raises
        :class:`ValueError`."""
        key = canonical_host(domain)
        value = self._fresh_value(key)
        if value is not None:
            self.hit_count += 1
            return value
        payload, ttl = compute(key)
        if ttl < 1:
            raise ValueError("a verdict TTL must be >= 1 second")
        self._entries[key] = (payload, self._clock.now(), ttl)
        self.computed_count += 1
        return payload

    def fresh(self, domain: str) -> bool:
        """Non-counting freshness probe (evicts stale entries)."""
        return self._fresh_value(canonical_host(domain)) is not None

    def _fresh_value(self, key: str) -> Optional[str]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        value, stored_at, ttl_seconds = entry
        if not ttl_fresh(stored_at, ttl_seconds, self._clock.now()):
            del self._entries[key]
            self.eviction_count += 1
            return None
        return value

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------------
# The seeded open-internet query mix
# ---------------------------------------------------------------------------

class QueryMixGenerator:
    """Zipf-ish domain popularity plus periodic flash crowds.

    The popularity ranking is a seeded shuffle of the canonically
    sorted universe; request *i* samples rank ``r`` with probability
    proportional to ``1/(r+1)**zipf_s``.  Every ``flash_every``-th
    tick additionally slams one seeded domain with ``flash_size``
    back-to-back requests — the stampede the per-tick grouping must
    collapse.  One generator instance feeds one replay: the sequence
    is a pure function of (seed, universe, tick schedule), identical
    across runs.
    """

    def __init__(self, universe: Sequence[str], seed: int, *,
                 zipf_s: float = 1.1, flash_every: int = 0,
                 flash_size: int = 0):
        if not universe:
            raise ValueError("query mix needs a non-empty universe")
        ranked = sorted(canonical_host(name) for name in universe)
        random.Random(f"serve:{seed}:rank").shuffle(ranked)
        self.ranked = ranked
        self.zipf_s = zipf_s
        self.flash_every = flash_every
        self.flash_size = flash_size
        weights = [1.0 / (rank + 1) ** zipf_s
                   for rank in range(len(ranked))]
        self._cumulative = list(accumulate(weights))
        self._total_weight = self._cumulative[-1]
        self._rng = random.Random(f"serve:{seed}:mix")
        self.flash_domains: List[str] = []

    def sample(self) -> str:
        """One Zipf-ish draw from the ranked universe."""
        point = self._rng.random() * self._total_weight
        return self.ranked[min(bisect_left(self._cumulative, point),
                               len(self.ranked) - 1)]

    def batch(self, tick_index: int, size: int) -> Tuple[List[str], int]:
        """The requests of one tick: *size* popularity draws, plus a
        flash crowd when the tick lands on the flash cadence.  Returns
        ``(requests, flash_request_count)``."""
        requests = [self.sample() for _ in range(size)]
        flash = 0
        if (self.flash_every and self.flash_size
                and tick_index % self.flash_every == self.flash_every - 1):
            target = self.ranked[self._rng.randrange(len(self.ranked))]
            self.flash_domains.append(target)
            requests.extend([target] * self.flash_size)
            flash = self.flash_size
        return requests, flash


# ---------------------------------------------------------------------------
# Config / stats / result
# ---------------------------------------------------------------------------

@dataclass
class ServeConfig:
    """Everything that determines a serve replay's metrics feed.

    Two runs with equal configs emit byte-identical metrics JSONL —
    the config is the replay's identity.
    """

    scale: float = 0.02            # recipient world scale
    seed: int = 11                 # world population seed
    query_seed: int = 97           # query-mix seed
    requests: int = 100_000        # base popularity-mix requests
    batch_size: int = 2_000        # requests per tick (frozen instant)
    month_index: int = 0           # first materialised scan month
    months: int = 1                # month snapshots traversed
    ttl_seconds: int = 86_400      # default / maximum verdict TTL
    min_ttl_seconds: int = 3_600   # floor for policy-driven TTLs
    zipf_s: float = 1.1            # popularity skew
    flash_every: int = 16          # ticks between flash crowds (0=off)
    flash_size: int = 4_000        # requests per flash crowd
    record_every: int = 8          # ticks per metrics window record

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.months < 1:
            raise ValueError("months must be >= 1")
        if self.month_index < 0:
            raise ValueError("month_index must be >= 0")
        if self.min_ttl_seconds < 1:
            raise ValueError("min_ttl_seconds must be >= 1")
        if self.ttl_seconds < self.min_ttl_seconds:
            raise ValueError("ttl_seconds must be >= min_ttl_seconds")
        if not 0.0 < self.zipf_s < math.inf:
            raise ValueError("zipf_s must be a finite number > 0")
        if self.flash_every < 0 or self.flash_size < 0:
            raise ValueError("flash parameters must be >= 0")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    @property
    def ticks(self) -> int:
        return -(-self.requests // self.batch_size)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ServeConfig":
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in (data or {}).items()
                      if key in known})


@dataclass
class ServeStats:
    """Integer replay totals plus wall-clock throughput.

    :meth:`comparable` strips the wall-clock timings; everything left
    is on the run-to-run byte-identity surface.
    """

    scale: float = 0.0
    seed: int = 0
    query_seed: int = 0
    months: int = 0
    requests: int = 0
    flash_requests: int = 0
    computations: int = 0
    hits: int = 0
    collapsed: int = 0
    evictions: int = 0
    stampede_fanin_peak: int = 0
    windows: int = 0
    cache_entries: int = 0
    world_build_seconds: float = 0.0
    serve_seconds: float = 0.0

    _NON_DETERMINISTIC = ("world_build_seconds", "serve_seconds")

    @property
    def hit_rate(self) -> float:
        if not self.requests:
            return 0.0
        return (self.hits + self.collapsed) / self.requests

    @property
    def requests_per_second(self) -> float:
        if self.serve_seconds <= 0.0:
            return 0.0
        return self.requests / self.serve_seconds

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["hit_rate"] = self.hit_rate
        data["requests_per_second"] = self.requests_per_second
        return data

    def comparable(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in self._NON_DETERMINISTIC}


@dataclass
class ServeResult:
    """One finished serve replay."""

    config: ServeConfig
    stats: ServeStats
    monitor: ServeMonitor
    total_registry: MetricsRegistry

    def health(self):
        return self.monitor.health()

    @property
    def p99_latency_seconds(self) -> float:
        histogram = self.total_registry.histograms.get("serve.latency")
        return histogram.quantile(0.99) if histogram is not None else 0.0


# ---------------------------------------------------------------------------
# The request loop
# ---------------------------------------------------------------------------

class _VerdictService:
    """Binds the scanner's single-domain path to the verdict cache."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.scanner: Optional[Scanner] = None
        self.month_index = -1
        self.instant: Optional[Instant] = None
        #: canonical key -> virtual cost of its last computation; a
        #: pure function of (world, domain, instant), read by the
        #: coordinator for latency accounting.
        self.costs: Dict[str, int] = {}

    def bind(self, scanner: Scanner, month_index: int) -> None:
        self.scanner = scanner
        self.month_index = month_index

    def compute(self, key: str) -> Tuple[str, int]:
        snapshot = self.scanner.scan_domain(key, self.month_index,
                                            self.instant)
        self.costs[key] = verdict_cost_micros(snapshot)
        return (verdict_payload(snapshot),
                verdict_ttl(snapshot,
                            ttl_seconds=self.config.ttl_seconds,
                            min_ttl_seconds=self.config.min_ttl_seconds))


def _month_segments(timeline: EcosystemTimeline,
                    config: ServeConfig) -> List[Tuple[int, Instant, Instant]]:
    """(month, segment start, segment end) per traversed month.

    Segment boundaries land exactly on the scan instants so the
    incremental materialiser's ``advance_to`` never has to rewind; the
    final month (which has no successor instant) serves for 30 virtual
    days.
    """
    instants = timeline.scan_instants
    last = config.month_index + config.months - 1
    if last >= len(instants):
        raise ValueError(
            f"month span [{config.month_index}, {last}] exceeds the "
            f"timeline's {len(instants)} scan months")
    segments = []
    for month in range(config.month_index, last + 1):
        start = instants[month]
        end = (instants[month + 1] if month + 1 < len(instants)
               else start + Duration(30 * DAY.seconds))
        segments.append((month, start, end))
    return segments


def _split(total: int, parts: int) -> List[int]:
    """*total* split into *parts* near-equal integer shares."""
    base, remainder = divmod(total, parts)
    return [base + (1 if index < remainder else 0)
            for index in range(parts)]


class _WindowAccumulator:
    """Builds one metrics window record."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.registry.histograms["serve.latency"] = Histogram(
            bounds=SERVE_LATENCY_BOUNDS)
        self.fanin_peak = 0

    def observe_batch(self, requests: int, flash: int, computations: int,
                      collapsed: int, hits: int, fanin_peak: int) -> None:
        registry = self.registry
        registry.count("serve.requests", requests)
        if flash:
            registry.count("serve.flash_requests", flash)
        registry.count("serve.computations", computations)
        registry.count("serve.collapsed", collapsed)
        registry.count("serve.hits", hits)
        self.fanin_peak = max(self.fanin_peak, fanin_peak)

    def flush(self, window_index: int, now: Instant, month: int,
              cache_entries: int, evictions: int) -> "FeedRecord":
        registry = self.registry
        registry.count("serve.stampede_fanin_peak", self.fanin_peak)
        registry.count("serve.month", month)
        registry.count("serve.cache_entries", cache_entries)
        registry.count("serve.evictions", evictions)
        return FeedRecord(window_index, now.date_string(), registry)


def run_serve(config: ServeConfig, *,
              thresholds: Optional[ServeThresholds] = None,
              progress: Optional[Callable[[int, int], None]] = None,
              ) -> ServeResult:
    """Replay the seeded query mix against the evolving world.

    The coordinator serves every request of a tick inline, one verdict
    computation per stale domain; *progress* (when given) receives
    ``(requests_served, requests_total)`` after every tick.
    """
    build_started = time.perf_counter()
    timeline = EcosystemTimeline(TimelineConfig(
        PopulationConfig(scale=config.scale, seed=config.seed)))
    segments = _month_segments(timeline, config)
    universe = sorted(plan.name for plan in timeline.all_plans())
    mix = QueryMixGenerator(
        universe, config.query_seed, zipf_s=config.zipf_s,
        flash_every=config.flash_every, flash_size=config.flash_size)

    materializer = IncrementalMaterializer(timeline)
    snapshot = materializer.materialize(config.month_index)
    world = snapshot.world
    build_seconds = time.perf_counter() - build_started

    service = _VerdictService(config)
    service.bind(Scanner(world), config.month_index)
    cache = VerdictCache(world.clock)
    monitor = ServeMonitor(thresholds)
    total_registry = MetricsRegistry()

    stats = ServeStats(
        scale=config.scale, seed=config.seed,
        query_seed=config.query_seed, months=config.months,
        world_build_seconds=build_seconds)

    ticks_total = config.ticks
    tick_requests = _split(config.requests, ticks_total)
    tick_months = _split(ticks_total, len(segments))

    serve_started = time.perf_counter()
    window = _WindowAccumulator()
    window_index = 0
    evictions_seen = 0
    tick_index = 0
    served = 0
    for segment_index, (month, start, end) in enumerate(segments):
        if month != service.month_index:
            build_started = time.perf_counter()
            snapshot = materializer.materialize(month)
            world = snapshot.world
            service.bind(Scanner(world), month)
            stats.world_build_seconds += time.perf_counter() - build_started
        ticks_here = tick_months[segment_index]
        if ticks_here == 0:
            continue
        step = max(1, (end - start).seconds // ticks_here)
        for _ in range(ticks_here):
            now = world.clock.now()
            service.instant = now
            batch, flash = mix.batch(tick_index, tick_requests[tick_index])

            # Group by canonical key, preserving first-seen order;
            # classify each group once against the frozen instant.
            groups: Dict[str, int] = {}
            for name in batch:
                key = canonical_host(name)
                groups[key] = groups.get(key, 0) + 1
            stale = [key for key in groups if not cache.fresh(key)]
            stale_set = set(stale)

            for key in groups:
                cache.get_or_compute(key, service.compute)

            # Every determinism-surface metric derives from batch
            # composition.
            computations = len(stale)
            collapsed = sum(groups[key] - 1 for key in stale)
            hits = len(batch) - computations - collapsed
            fanin_peak = max((groups[key] for key in stale), default=0)
            window.observe_batch(len(batch), flash, computations,
                                 collapsed, hits, fanin_peak)
            histogram = window.registry.histograms["serve.latency"]
            for name in batch:
                key = canonical_host(name)
                if key in stale_set:
                    histogram.observe_micros(service.costs[key])
                else:
                    histogram.observe_micros(HIT_LATENCY_MICROS)

            stats.requests += len(batch)
            stats.flash_requests += flash
            stats.computations += computations
            stats.collapsed += collapsed
            stats.hits += hits
            stats.stampede_fanin_peak = max(
                stats.stampede_fanin_peak, fanin_peak)
            served += len(batch)

            tick_index += 1
            flush_due = (tick_index % config.record_every == 0
                         or tick_index == ticks_total)
            if flush_due:
                eviction_total = cache.eviction_count
                record = window.flush(
                    window_index, now, month, len(cache),
                    eviction_total - evictions_seen)
                evictions_seen = eviction_total
                monitor.add_record(record)
                total_registry.merge(record.metrics)
                window_index += 1
                window = _WindowAccumulator()
            if progress is not None:
                progress(served, config.requests)
            world.clock.advance(Duration(step))
        if month + 1 < len(timeline.scan_instants):
            world.clock.advance_to(end)

    stats.windows = window_index
    stats.evictions = cache.eviction_count
    stats.cache_entries = len(cache)
    stats.serve_seconds = time.perf_counter() - serve_started
    return ServeResult(config=config, stats=stats, monitor=monitor,
                       total_registry=total_registry)
