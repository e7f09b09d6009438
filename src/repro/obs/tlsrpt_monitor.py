"""TLSRPT ingestion health monitoring (RFC 8460, operator side).

The delivery campaign's senders emit daily aggregate reports; the
operator-side :class:`~repro.core.reporting.ReportAggregator` receives
them.  :class:`TlsRptMonitor` turns that received stream into
per-window metrics — reports received, sessions attempted, failure
rate by result type, the top failing sending MTAs — kept and evaluated
by the shared :class:`~repro.obs.monitor.FeedMonitor` against its
one-rule table (:class:`TlsRptThresholds` is generated from it), with
Prometheus + JSONL exposition through :mod:`repro.obs.exporters`.

Unlike the delivery monitor's cumulative rates, the failure-rate
bounds here are **per window**: a seeded fault spike must raise an
ALERT on exactly the poisoned window, not smear across the campaign.
Every recorded value is an integer counter derived from the
deterministically ordered report set, so the window JSONL is
byte-identical between runs of one campaign, clean and fault-seeded.

The monitor also exposes a **verdict feed** —
:meth:`TlsRptMonitor.verdicts` yields per-domain
:class:`TlsRptVerdict` items that ``measurement/notify.py``
(``run_from_verdicts``) and ``measurement/repair.py``
(``plan_repairs_from_verdict``) consume, so notifications and repairs
are triggered by *received reports* rather than rescans.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.tlsrpt import ResultType, TlsRptReport
from repro.obs.monitor import (
    ALERT, RECORD, UP, WARN, Bound, FeedMonitor, FeedRecord, Rule, Signal,
    make_threshold_class,
)
from repro.trace import MetricsRegistry

__all__ = [
    "TOP_FAILING_MTAS",
    "TlsRptVerdict", "TlsRptThresholds", "TlsRptMonitor",
]

#: How many failing sender organisations each window's registry names
#: (bounded cardinality: the campaign has thousands of senders).
TOP_FAILING_MTAS = 5


@dataclass(frozen=True)
class TlsRptVerdict:
    """One actionable conclusion from received reports: *this* policy
    domain accumulated *this many* failed sessions of *this* type."""

    policy_domain: str
    result_type: ResultType
    failed_sessions: int


TLSRPT_RULES = (
    Rule("tlsrpt-failure-rate", RECORD,
         Signal(("tlsrpt.failure",), over=("tlsrpt.sessions",)), UP,
         (Bound(WARN, "failure_rate_warn", 0.15,
                help="WARN when a reporting window's failed session "
                     "share exceeds R"),
          Bound(ALERT, "failure_rate_alert", 0.35,
                help="ALERT when a reporting window's failed session "
                     "share exceeds R")),
         "window failure share {value:.2%} exceeds {bound:.2%} "
         "({metrics[tlsrpt.failure]} of {metrics[tlsrpt.sessions]} "
         "sessions)"),
)

TlsRptThresholds = make_threshold_class(
    "TlsRptThresholds", TLSRPT_RULES,
    """Per-window health bounds over the received report stream.

    Defaults are calibrated so a clean campaign stays all-OK (its only
    failures are the sparse misconfigured-recipient tail) while a
    fault-seeded one pushes the poisoned window's failure share over
    the ALERT line.""")


class TlsRptMonitor(FeedMonitor):
    """Per-window report aggregates, plus the verdict feed.

    A monitor rebuilt with :meth:`from_jsonl` has the window feed but
    no verdict tallies — those need the reports themselves; re-ingest
    via :meth:`observe_reports` for a verdict-capable monitor.
    """

    name, unit = "tlsrpt", "window"
    rules = TLSRPT_RULES
    threshold_class = TlsRptThresholds
    ok_detail = ("{metrics[tlsrpt.reports]} report(s), "
                 "{metrics[tlsrpt.sessions]} session(s), all checks passed")

    def __init__(self, thresholds=None, *, jsonl_path=None):
        super().__init__(thresholds, jsonl_path=jsonl_path)
        self._verdict_tallies: Dict[Tuple[str, ResultType], int] = \
            defaultdict(int)

    # -- capture ------------------------------------------------------

    def observe_window(self, window_index: int, date: str,
                       reports: Sequence[TlsRptReport]) -> FeedRecord:
        """Aggregate one window's received reports into a record.

        *reports* must arrive in a deterministic order (the campaign's
        mailbox sweep sorts them) — every derived counter is
        order-independent anyway, but the invariant keeps the feed's
        provenance obvious.
        """
        registry = MetricsRegistry()
        domains = set()
        successes = failures = 0
        by_result = {rtype: 0 for rtype in ResultType}
        by_org: Dict[str, int] = defaultdict(int)
        for report in reports:
            for summary in report.policies:
                domains.add(summary.policy_domain)
                successes += summary.total_successful_sessions
                failures += summary.total_failed_sessions
                if summary.total_failed_sessions:
                    by_org[report.organization_name] += \
                        summary.total_failed_sessions
                for detail in summary.failure_details:
                    by_result[detail.result_type] += \
                        detail.failed_session_count
                    self._verdict_tallies[
                        (summary.policy_domain, detail.result_type)] += \
                        detail.failed_session_count
        registry.count("tlsrpt.reports", len(reports))
        registry.count("tlsrpt.domains", len(domains))
        registry.count("tlsrpt.success", successes)
        registry.count("tlsrpt.failure", failures)
        registry.count("tlsrpt.sessions", successes + failures)
        for rtype in ResultType:
            registry.count(f"tlsrpt.failure.{rtype.value}",
                           by_result[rtype])
        top = sorted(by_org.items(), key=lambda kv: (-kv[1], kv[0]))
        for org, count in top[:TOP_FAILING_MTAS]:
            registry.count(f"tlsrpt.failing_mta.{org}", count)
        return self.add_record(FeedRecord(window_index, date, registry))

    def observe_reports(self, reports: Sequence[TlsRptReport]
                        ) -> List[FeedRecord]:
        """Group *reports* into windows by their start date and observe
        each (sorted by date) — the whole-campaign / report-dir entry
        point shared by the campaign driver and ``repro tlsrpt``."""
        by_window: Dict[str, List[TlsRptReport]] = defaultdict(list)
        for report in reports:
            by_window[report.window_start.date_string()].append(report)
        records = []
        for date in sorted(by_window):
            records.append(self.observe_window(
                len(self.records), date, by_window[date]))
        return records

    def total_registry(self) -> MetricsRegistry:
        total = MetricsRegistry()
        for record in self.records:
            total.merge(record.metrics)
        return total

    def failing_mtas(self) -> List[Tuple[str, int]]:
        """Aggregated top failing sender organisations across every
        window (recomputable from a saved feed)."""
        prefix = "tlsrpt.failing_mta."
        totals: Dict[str, int] = defaultdict(int)
        for record in self.records:
            for key, value in record.metrics.counters.items():
                if key.startswith(prefix):
                    totals[key[len(prefix):]] += int(value)
        return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))

    # -- the verdict feed ---------------------------------------------

    def verdicts(self, *, min_failed_sessions: int = 1
                 ) -> List[TlsRptVerdict]:
        """Per-(domain, result-type) failure totals over every observed
        window, sorted canonically — what the notification and repair
        loops consume."""
        return [TlsRptVerdict(domain, rtype, count)
                for (domain, rtype), count in sorted(
                    self._verdict_tallies.items(),
                    key=lambda kv: (kv[0][0], kv[0][1].value))
                if count >= min_failed_sessions]
