"""Disclosure-campaign simulation (paper §4.7).

The paper notified the ``postmaster@`` address of every misconfigured
domain in the latest snapshot: 20,144 emails, of which more than 5,000
bounced; after the campaign, 10% of the misconfigured domains had
their issues resolved (not necessarily causally).  The simulation
delivers notifications through the real simulated SMTP path — domains
whose MX setup is broken enough genuinely bounce — and applies a
remediation draw to the remainder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.ecosystem.world import World
from repro.measurement.snapshots import DomainSnapshot
from repro.smtp.delivery import Message, SendingMta

#: §4.7 anchors.
BOUNCE_RATE_FLOOR = 5_000 / 20_144      # "more than 5,000 bounced"
REMEDIATION_RATE = 0.10
FEEDBACK_RESPONSES = 497
FEEDBACK_HELPFUL = 341
FEEDBACK_THANKS = 45


@dataclass
class NotificationResult:
    domain: str
    delivered: bool
    bounce_reason: str = ""
    remediated: bool = False


@dataclass
class CampaignReport:
    notified: int = 0
    bounced: int = 0
    delivered: int = 0
    remediated: int = 0
    results: List[NotificationResult] = field(default_factory=list)

    @property
    def bounce_rate(self) -> float:
        return self.bounced / self.notified if self.notified else 0.0

    @property
    def remediation_rate(self) -> float:
        return self.remediated / self.notified if self.notified else 0.0


class DisclosureCampaign:
    """Sends postmaster notifications to misconfigured domains."""

    def __init__(self, world: World, *, seed: int = 20241022,
                 extra_bounce_rate: float = 0.12):
        self._world = world
        self._rng = random.Random(seed)
        # Plenty of bounces in the wild come from full mailboxes, spam
        # filtering, and missing postmaster aliases that the transport
        # layer cannot see; they are modelled as an extra bounce draw.
        self._extra_bounce_rate = extra_bounce_rate
        self._mta = SendingMta(
            "notify.netsecurelab.org", world.network, world.resolver,
            world.trust_store, world.clock)

    def notify(self, snapshot: DomainSnapshot) -> NotificationResult:
        # The fallbacks chain *inside* the concatenation: a domain with
        # no syntax errors gets the fetch-stage (or generic) body, not
        # an empty suffix.
        message = Message(
            sender="research@netsecurelab.org",
            recipient=f"postmaster@{snapshot.domain}",
            body=("Your MTA-STS deployment appears misconfigured: "
                  + (", ".join(snapshot.policy_syntax_errors)
                     or snapshot.policy_fetch_stage or "see details")))
        attempt = self._mta.send(message)
        if not attempt.delivered:
            return NotificationResult(snapshot.domain, False,
                                      bounce_reason=attempt.status.value)
        if self._rng.random() < self._extra_bounce_rate:
            return NotificationResult(snapshot.domain, False,
                                      bounce_reason="mailbox-level bounce")
        return NotificationResult(snapshot.domain, True)

    def run(self, misconfigured: List[DomainSnapshot]) -> CampaignReport:
        report = CampaignReport(notified=len(misconfigured))
        for snapshot in misconfigured:
            self._tally(report, self.notify(snapshot))
        return report

    # -- TLSRPT-driven notifications ----------------------------------

    def notify_verdict(self, verdict) -> NotificationResult:
        """One notification triggered by received TLSRPT reports (a
        :class:`repro.obs.tlsrpt_monitor.TlsRptVerdict`) instead of an
        active rescan — the loop ROADMAP item 1 asks to close."""
        message = Message(
            sender="research@netsecurelab.org",
            recipient=f"postmaster@{verdict.policy_domain}",
            body=(f"TLSRPT reports show {verdict.failed_sessions} failed "
                  f"session(s) to your domain: "
                  f"{verdict.result_type.value}"))
        attempt = self._mta.send(message)
        if not attempt.delivered:
            return NotificationResult(verdict.policy_domain, False,
                                      bounce_reason=attempt.status.value)
        if self._rng.random() < self._extra_bounce_rate:
            return NotificationResult(verdict.policy_domain, False,
                                      bounce_reason="mailbox-level bounce")
        return NotificationResult(verdict.policy_domain, True)

    def run_from_verdicts(self, verdicts) -> CampaignReport:
        """Notify each domain named by a TLSRPT verdict feed (one mail
        per domain, covering its worst verdict)."""
        by_domain: Dict[str, object] = {}
        for verdict in verdicts:
            current = by_domain.get(verdict.policy_domain)
            if (current is None
                    or verdict.failed_sessions > current.failed_sessions):
                by_domain[verdict.policy_domain] = verdict
        report = CampaignReport(notified=len(by_domain))
        for domain in sorted(by_domain):
            self._tally(report, self.notify_verdict(by_domain[domain]))
        return report

    def _tally(self, report: CampaignReport,
               result: NotificationResult) -> None:
        if result.delivered:
            report.delivered += 1
            # Post-notification remediation (10% overall, §4.7) —
            # conditioned on the mail actually arriving.
            if self._rng.random() < REMEDIATION_RATE / (
                    1 - BOUNCE_RATE_FLOOR):
                result.remediated = True
                report.remediated += 1
        else:
            report.bounced += 1
        report.results.append(result)
