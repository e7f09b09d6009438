"""SMTP TLS Reporting (RFC 8460) — the feedback loop of Appendix B.

TLSRPT lets receiving domains learn why senders' TLS negotiations or
MTA-STS/DANE validations fail.  The paper observes that while many
domains *publish* TLSRPT records (Figure 12), only two major providers
actually *send* reports.  This module implements both halves so the
reproduction's compliant senders can be among them:

* :class:`~repro.core.tlsrpt.FailureDetail` /
  :class:`~repro.core.tlsrpt.PolicySummary` /
  :class:`~repro.core.tlsrpt.TlsRptReport` — the RFC 8460 report data
  model (JSON-renderable), re-exported here;
* :class:`ReportCollector` — accumulates per-recipient-domain session
  results inside a sending MTA over a reporting window;
* :class:`ReportAggregator` — the operator-side ingestion point that
  collects received reports per policy domain (fed by the delivery
  campaign's mailbox sweep and the ``repro tlsrpt`` CLI).

Finished reports travel to the recipient's ``rua`` endpoints through
the sender lanes of :mod:`repro.measurement.delivery_campaign`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.clock import DAY, Clock
from repro.core.tlsrpt import (
    FailureDetail, PolicySummary, ResultType, TlsRptReport,
)
from repro.dns.name import canonical_host

__all__ = [
    "ResultType", "FailureDetail", "PolicySummary", "TlsRptReport",
    "ReportCollector", "ReportAggregator",
    "result_type_for_fetch_stage", "result_type_for_tls_failure",
]


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class _DomainTally:
    policy_type: str = "no-policy-found"
    policy_strings: Tuple[str, ...] = ()
    successes: int = 0
    failures: Dict[Tuple[ResultType, str], int] = field(
        default_factory=lambda: defaultdict(int))


class ReportCollector:
    """Accumulates session outcomes per recipient policy domain.

    A sending MTA records one entry per delivery attempt; the collector
    rolls a 24-hour window (RFC 8460 reports are daily) and emits
    :class:`TlsRptReport` objects on :meth:`close_window`.
    """

    __slots__ = ("organization", "contact", "_clock", "_window_start",
                 "_tallies", "_report_serial")

    def __init__(self, organization: str, contact: str, clock: Clock):
        self.organization = organization
        self.contact = contact
        self._clock = clock
        self._window_start = clock.now()
        self._tallies: Dict[str, _DomainTally] = defaultdict(_DomainTally)
        self._report_serial = 0

    def record_policy(self, domain: str, policy_type: str,
                      policy_strings: Tuple[str, ...]) -> None:
        tally = self._tallies[canonical_host(domain)]
        tally.policy_type = policy_type
        tally.policy_strings = policy_strings

    def record_success(self, domain: str) -> None:
        self._tallies[canonical_host(domain)].successes += 1

    def record_failure(self, domain: str, result_type: ResultType,
                       mx_hostname: str = "", detail: str = "") -> None:
        tally = self._tallies[canonical_host(domain)]
        tally.failures[(result_type, mx_hostname)] += 1

    def window_expired(self) -> bool:
        return self._clock.now() - self._window_start >= DAY

    def has_tallies(self) -> bool:
        """Whether :meth:`close_window` has anything to reset beyond
        the window start."""
        return bool(self._tallies)

    def close_window(self) -> List[TlsRptReport]:
        """Emit one report per recipient domain and reset the window."""
        reports: List[TlsRptReport] = []
        window_end = self._clock.now()
        for domain, tally in sorted(self._tallies.items()):
            if not tally.successes and not tally.failures:
                continue
            self._report_serial += 1
            details = [
                FailureDetail(result_type=rtype,
                              receiving_mx_hostname=mx,
                              failed_session_count=count)
                for (rtype, mx), count in sorted(
                    tally.failures.items(),
                    key=lambda kv: (kv[0][0].value, kv[0][1]))]
            summary = PolicySummary(
                policy_type=tally.policy_type,
                policy_domain=domain,
                policy_strings=tally.policy_strings,
                total_successful_sessions=tally.successes,
                total_failed_sessions=sum(tally.failures.values()),
                failure_details=details)
            reports.append(TlsRptReport(
                organization_name=self.organization,
                contact_info=self.contact,
                report_id=(f"{self._window_start.date_string()}-"
                           f"{domain}-{self._report_serial:06d}"),
                window_start=self._window_start,
                window_end=window_end,
                policies=[summary]))
        self._tallies.clear()
        self._window_start = window_end
        return reports


# ---------------------------------------------------------------------------
# Operator-side aggregation
# ---------------------------------------------------------------------------

class ReportAggregator:
    """Ingests received reports, indexed per recipient policy domain.

    This is the operator side of the RFC 8460 loop: reports arrive
    from the mailbox sweep or a saved report dir, and the aggregator
    gives downstream consumers —
    :class:`repro.obs.tlsrpt_monitor.TlsRptMonitor`, the verdict-driven
    repair planner — one indexed view of them.  Malformed submissions
    are counted, never raised.
    """

    def __init__(self):
        self.reports: List[TlsRptReport] = []
        self.by_domain: Dict[str, List[TlsRptReport]] = defaultdict(list)
        self.malformed = 0

    def ingest(self, report_json: str) -> Optional[TlsRptReport]:
        """Parse and add one submitted report body."""
        try:
            report = TlsRptReport.from_json(report_json)
        except (KeyError, ValueError, json.JSONDecodeError):
            self.malformed += 1
            return None
        self.add(report)
        return report

    def add(self, report: TlsRptReport) -> None:
        self.reports.append(report)
        for summary in report.policies:
            self.by_domain[canonical_host(
                summary.policy_domain)].append(report)

    def census(self) -> Dict[str, object]:
        """Integer totals over everything ingested so far."""
        sessions = successes = failures = 0
        by_result: Dict[str, int] = {}
        for report in self.reports:
            for summary in report.policies:
                successes += summary.total_successful_sessions
                failures += summary.total_failed_sessions
                for detail in summary.failure_details:
                    key = detail.result_type.value
                    by_result[key] = (by_result.get(key, 0)
                                      + detail.failed_session_count)
        sessions = successes + failures
        return {
            "reports": len(self.reports),
            "domains": len(self.by_domain),
            "malformed": self.malformed,
            "sessions": sessions,
            "successful_sessions": successes,
            "failed_sessions": failures,
            "failures_by_result_type": dict(sorted(by_result.items())),
        }


# ---------------------------------------------------------------------------
# Mapping sender events to result types
# ---------------------------------------------------------------------------

def result_type_for_fetch_stage(stage: str) -> ResultType:
    """Map a policy-fetch failure stage onto RFC 8460's vocabulary."""
    if stage == "policy-syntax":
        return ResultType.STS_POLICY_INVALID
    if stage == "tls":
        # The policy host presented a certificate the web PKI rejects —
        # RFC 8460 §4.3.2's dedicated result type, not a generic fetch
        # error.
        return ResultType.STS_WEBPKI_INVALID
    return ResultType.STS_POLICY_FETCH_ERROR


def result_type_for_tls_failure(failure_value: str) -> ResultType:
    mapping = {
        "hostname-mismatch": ResultType.CERTIFICATE_HOST_MISMATCH,
        "expired": ResultType.CERTIFICATE_EXPIRED,
        "not-yet-valid": ResultType.CERTIFICATE_EXPIRED,
        "self-signed": ResultType.CERTIFICATE_NOT_TRUSTED,
        "untrusted-root": ResultType.CERTIFICATE_NOT_TRUSTED,
        "no-tls-support": ResultType.STARTTLS_NOT_SUPPORTED,
    }
    return mapping.get(failure_value, ResultType.VALIDATION_FAILURE)
