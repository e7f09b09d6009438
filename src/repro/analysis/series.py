"""Campaign orchestration: run every monthly scan and assemble the
time series behind Figures 4-10.

:func:`run_campaign` is the expensive step (it materialises a world
per scan month and runs the full scanner); :class:`CampaignAnalysis`
then answers every figure's question from the month columns of a
:class:`~repro.measurement.columnar.ColumnarStore`, so benchmarks
share one campaign run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:
    from repro.obs.monitor import CampaignMonitor

from repro.ecosystem.timeline import (
    EcosystemTimeline, IncrementalMaterializer, population_to_dict,
    timeline_from_population,
)
from repro.errors import MisconfigCategory
from repro.measurement.columnar import (
    ColumnarStore, delegation_census_view, historical_series_view,
    mismatch_census_view, outsourcing_census_view, snapshot_summary_view,
    taxonomy_census_view,
)
from repro.measurement.executor import ScanExecutor, ScanStats
from repro.measurement.snapshots import SnapshotStore
# Re-exported: the object-list adapter over ``snapshot_summary_view``.
from repro.measurement.taxonomy import SnapshotSummary, snapshot_summary


@dataclass
class CampaignAnalysis:
    """Everything one full scan campaign produced.

    Every figure series and census reads ``columns``; ``store`` holds
    the live campaign's snapshot objects and is ``None`` for a
    campaign loaded from disk, which decodes straight to columns.
    """

    timeline: EcosystemTimeline
    columns: ColumnarStore
    store: Optional[SnapshotStore] = None
    summaries: Dict[int, SnapshotSummary] = field(default_factory=dict)
    stats_by_month: Dict[int, ScanStats] = field(default_factory=dict)

    def months(self) -> List[int]:
        return self.columns.months()

    def total_stats(self) -> ScanStats:
        """Per-stage counters and timings summed over every scan month."""
        total = ScanStats()
        for month in sorted(self.stats_by_month):
            stats = self.stats_by_month[month]
            total.backend, total.jobs = stats.backend, stats.jobs
            total.merge(stats)
        return total

    def _record_month(self, month: int, date: str, stats: ScanStats,
                      build_stats: Dict[str, int],
                      monitor: Optional["CampaignMonitor"]) -> None:
        """Fold one finished month into the summaries and the monitor."""
        view = self.columns.month_view(month)
        self.stats_by_month[month] = stats
        self.summaries[month] = snapshot_summary_view(view)
        if monitor is not None:
            monitor.observe_month(month, date, stats,
                                  build_stats=build_stats,
                                  bucket_census=taxonomy_census_view(view))

    # -- Figure 4 ---------------------------------------------------------

    def figure4_series(self) -> List[dict]:
        rows = []
        for month in self.months():
            summary = self.summaries[month]
            rows.append({
                "month_index": month,
                "date": self.timeline.scan_instants[month].date_string(),
                "total_sts": summary.total_sts,
                "misconfigured": summary.misconfigured,
                "misconfigured_pct": summary.misconfigured_percent(),
                **{category.value: summary.category_percent(category)
                   for category in MisconfigCategory},
            })
        return rows

    # -- Figure 5 -------------------------------------------------------------

    def figure5_series(self, entity: str) -> List[dict]:
        """Per-month policy-server error percentages for one entity
        ('self-managed' or 'third-party'), split by failure stage."""
        rows = []
        for month in self.months():
            summary = self.summaries[month]
            total = summary.policy_entity_totals[entity]
            errors = summary.policy_errors_by_entity[entity]
            row = {"month_index": month, "total": total}
            for stage in ("dns", "tcp", "tls", "http", "policy-syntax"):
                row[stage] = 100.0 * errors[stage] / total if total else 0.0
            row["any"] = (100.0 * sum(errors.values()) / total
                          if total else 0.0)
            rows.append(row)
        return rows

    # -- Figure 6 / 7 -----------------------------------------------------------

    def figure6_series(self, entity: str) -> List[dict]:
        rows = []
        for month in self.months():
            summary = self.summaries[month]
            total = summary.mx_entity_totals[entity]
            classes = summary.mx_cert_by_entity[entity]
            row = {"month_index": month, "total": total,
                   "invalid": summary.mx_invalid_by_entity[entity],
                   "invalid_pct": (100.0 * summary.mx_invalid_by_entity[entity]
                                   / total if total else 0.0)}
            for failure_class in ("cn-mismatch", "self-signed", "expired"):
                row[failure_class] = (100.0 * classes[failure_class] / total
                                      if total else 0.0)
            rows.append(row)
        return rows

    def figure7_series(self) -> List[dict]:
        rows = []
        for month in self.months():
            summary = self.summaries[month]
            total = summary.total_sts or 1
            rows.append({
                "month_index": month,
                "all_invalid": summary.all_invalid_mx,
                "all_invalid_pct": 100.0 * summary.all_invalid_mx / total,
                "partially_invalid": summary.partially_invalid_mx,
                "partially_invalid_pct":
                    100.0 * summary.partially_invalid_mx / total,
                "enforce_invalid": summary.enforce_invalid_mx,
                "enforce_invalid_pct":
                    100.0 * summary.enforce_invalid_mx / total,
            })
        return rows

    # -- Figure 8 / 9 -------------------------------------------------------------

    def figure8_series(self) -> List[dict]:
        rows = []
        for month in self.months():
            census = mismatch_census_view(self.columns.month_view(month))
            total = census["total_sts"] or 1
            row = {"month_index": month,
                   "enforce": census["enforce"],
                   "enforce_pct": 100.0 * census["enforce"] / total}
            for cls, count in census["counts"].items():
                row[cls.value] = count
                row[cls.value + "_pct"] = 100.0 * count / total
            rows.append(row)
        return rows

    def figure9_series(self) -> List[dict]:
        return historical_series_view(self.columns)

    # -- Figure 10 ----------------------------------------------------------------

    def figure10_series(self) -> List[dict]:
        return [outsourcing_census_view(self.columns.month_view(month))
                for month in self.months()]

    # -- Table 2 ------------------------------------------------------------------

    def table2_census(self, month: Optional[int] = None,
                      top: int = 8) -> List[dict]:
        month = month if month is not None else max(self.months())
        return delegation_census_view(self.columns.month_view(month),
                                      top=top)

    # -- headline numbers --------------------------------------------------------

    def latest_summary(self) -> SnapshotSummary:
        return self.summaries[max(self.months())]


def _load_committed(state_dir: str, timeline: EcosystemTimeline,
                    months: List[int], resume: bool):
    """The checkpointed months a (possibly resuming) campaign starts
    from: ``(store, {month: MonthEntry})``."""
    from repro.measurement.store_io import load_state, read_manifest

    manifest = read_manifest(state_dir)
    if manifest is None:
        return SnapshotStore(), {}
    committed = [int(entry["month"]) for entry in manifest.get("months", ())]
    if committed and not resume:
        raise ValueError(
            f"state dir {state_dir!r} already holds "
            f"{len(committed)} committed month(s); pass resume=True to "
            f"continue that campaign or point at a fresh directory")
    persisted = manifest.get("population")
    current = population_to_dict(timeline.config.population)
    if persisted is not None and persisted != current:
        raise ValueError(
            f"state dir {state_dir!r} was written by a campaign with a "
            f"different population config ({persisted!r} != {current!r}); "
            f"resuming it with this timeline would mix incompatible "
            f"snapshots")
    state = load_state(state_dir, months=months)
    return state.store, {entry.month: entry for entry in state.months}


def run_campaign(timeline: EcosystemTimeline,
                 months: Optional[List[int]] = None,
                 *, incremental: bool = True,
                 executor: Optional[ScanExecutor] = None,
                 monitor: Optional["CampaignMonitor"] = None,
                 state_dir: Optional[str] = None,
                 resume: bool = False,
                 fault_plan_factory: Optional[Callable[[int], object]] = None,
                 ) -> CampaignAnalysis:
    """Materialise and scan every requested month (default: all).

    ``incremental`` materialises consecutive months by diffing one
    long-lived world (:class:`IncrementalMaterializer`); pass ``False``
    to rebuild each month from scratch — the slower reference path the
    equivalence tests compare against.  *executor* selects the scan
    backend (default: a serial :class:`ScanExecutor`); per-month
    :class:`ScanStats` land in ``analysis.stats_by_month``.  *monitor*
    attaches a :class:`~repro.obs.monitor.CampaignMonitor`: every
    finished month is snapshotted into its metrics feed (and, if the
    monitor carries a ``jsonl_path``, appended to the on-disk feed as
    the campaign runs).

    ``state_dir`` turns on durable checkpointing: each completed month
    is committed atomically (shard + manifest, see
    :mod:`repro.measurement.store_io`) the moment its scan finishes.
    With ``resume=True`` a killed campaign continues from the last
    committed month: committed months load from disk instead of being
    rescanned, while — under the incremental materialiser — their world
    *builds* are still replayed, so the long-lived world reaches the
    first unscanned month in exactly the state an uninterrupted run
    would have.  The resumed campaign's store is therefore
    byte-identical (``canonical_bytes``) to an uninterrupted run's on
    both backends, with or without fault plans.

    ``fault_plan_factory`` (month -> FaultPlan or None) installs a
    fault plan on the materialised world for each month's *scan* only;
    materialisation — which the incremental path replays — is never
    faulted.
    """
    if months is None:
        months = list(range(len(timeline.scan_instants)))
    if resume and state_dir is None:
        raise ValueError("resume=True requires a state_dir")
    executor = executor if executor is not None else ScanExecutor()
    materializer = IncrementalMaterializer(timeline) if incremental else None
    committed = {}
    if state_dir is not None:
        store, committed = _load_committed(state_dir, timeline, months,
                                           resume)
        population = population_to_dict(timeline.config.population)
    else:
        store = SnapshotStore()
    analysis = CampaignAnalysis(timeline=timeline,
                                columns=ColumnarStore.from_store(store),
                                store=store)
    for month in months:
        entry = committed.get(month)
        if entry is not None:
            # Committed month: skip the scan, replay the (cheap,
            # deterministic) world build so incremental state carries
            # forward exactly as in the uninterrupted run.
            if materializer is not None:
                materializer.materialize(month)
            analysis._record_month(month, entry.date,
                                   ScanStats.from_dict(entry.stats),
                                   entry.build_stats, monitor)
            continue

        built_at = time.perf_counter()
        if materializer is not None:
            materialized = materializer.materialize(month)
        else:
            materialized = timeline.materialize(month)
        build_seconds = time.perf_counter() - built_at
        if fault_plan_factory is not None:
            materialized.world.network.install_fault_plan(
                fault_plan_factory(month))
        try:
            _, stats = executor.scan(
                materialized.world, materialized.deployed.keys(), month,
                store, materialized.instant)
        finally:
            if fault_plan_factory is not None:
                # Plans must never fault world materialisation: the
                # incremental path replays deployment traffic next month.
                materialized.world.network.install_fault_plan(None)
        stats.world_build_seconds = build_seconds
        if state_dir is not None:
            from repro.measurement.store_io import commit_month
            stats.checkpoints_written = 1
            commit_started = time.perf_counter()
            commit_month(state_dir, store, month,
                         date=materialized.instant.date_string(),
                         stats=stats.as_dict(),
                         build_stats=materialized.build_stats,
                         population=population)
            stats.checkpoint_seconds = time.perf_counter() - commit_started
        analysis._record_month(month, materialized.instant.date_string(),
                               stats, materialized.build_stats, monitor)
    return analysis


def load_campaign(state_dir: str,
                  *, timeline: Optional[EcosystemTimeline] = None,
                  ) -> CampaignAnalysis:
    """Rebuild a :class:`CampaignAnalysis` offline from a saved store.

    Shards decode straight to columns
    (:meth:`ColumnarStore.from_state_dir`, verified against the
    manifest); each month's :class:`ScanStats` comes back from the
    manifest and its summary is recomputed from the columns, so every
    figure series, census, and drift table is available without
    rescanning anything or constructing a snapshot object.  The
    timeline is rebuilt from the persisted population config unless
    one is supplied.
    """
    columns = ColumnarStore.from_state_dir(state_dir)
    if timeline is None:
        timeline = timeline_from_population(columns.population)
    analysis = CampaignAnalysis(timeline=timeline, columns=columns)
    for month in columns.months():
        analysis.stats_by_month[month] = ScanStats.from_dict(
            columns.entries[month].stats)
        analysis.summaries[month] = snapshot_summary_view(
            columns.month_view(month))
    return analysis
