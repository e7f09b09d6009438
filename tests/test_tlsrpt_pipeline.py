"""End-to-end TLSRPT pipeline (RFC 8460) over the delivery campaign.

The tentpole invariants under test:

* a campaign run with ``tlsrpt=True`` delivers its reports through
  the simulated world — retrying through the fault layer when seeded —
  and receives every report it delivered;
* a poisoned reporting window raises an ALERT on exactly that window
  while a clean campaign stays all-OK;
* the verdict feed closes the loop: received reports drive
  notifications (``run_from_verdicts``) and executable repairs
  (``plan_repairs_from_verdict`` + ``apply_repairs``) with no rescan;
* the CLI round-trips: ``campaign deliver --tlsrpt-out`` writes the
  artifacts and ``repro tlsrpt`` re-ingests them to the byte-identical
  monitor feed.
"""

import functools
import os

import pytest

from repro.clock import DAY, Instant
from repro.cli import main
from repro.core.policy import Policy, PolicyMode
from repro.core.reporting import ReportAggregator, ReportCollector
from repro.core.sender import MtaStsSender
from repro.core.tlsrpt import (
    FailureDetail, PolicySummary, ResultType, TlsRptRecord, TlsRptReport,
)
from repro.ecosystem.deployment import DomainSpec, deploy_domain
from repro.ecosystem.misconfig import Fault, apply_fault
from repro.measurement.delivery_campaign import (
    DeliveryCampaignConfig, run_delivery_campaign,
)
from repro.measurement.notify import DisclosureCampaign
from repro.measurement.repair import apply_repairs, plan_repairs_from_verdict
from repro.obs.monitor import ALERT, OK, WARN
from repro.obs.tlsrpt_monitor import TlsRptMonitor, TlsRptThresholds
from repro.smtp.delivery import Message

FAULT_SEED = 4242

_CONFIG = dict(scale=0.004, seed=11, month_index=3, senders=30,
               messages_per_sender=4, backpressure=60, tlsrpt=True)


@functools.lru_cache(maxsize=None)
def _campaign(fault_seed=None):
    config = DeliveryCampaignConfig(fault_seed=fault_seed,
                                    fault_rate=0.35, **_CONFIG)
    return run_delivery_campaign(config)


class TestCampaignReporting:
    def test_reports_flow_end_to_end(self):
        result = _campaign()
        stats = result.stats
        assert stats.reports_generated > 0
        assert stats.reports_delivered > 0
        # Every report the queues delivered landed in a swept mailbox.
        assert stats.reports_received == stats.reports_delivered
        assert stats.reports_received == len(result.tlsrpt_reports)
        assert stats.report_attempts >= stats.reports_delivered
        # The materialised world publishes TLSRPT for only a share of
        # recipients (Figure 12): the rest have no rua endpoint.
        assert stats.reports_missing_endpoint > 0

    def test_fault_plan_reaches_report_delivery(self):
        stats = _campaign(fault_seed=FAULT_SEED).stats
        assert stats.faults_injected > 0
        # Report mail rides the fault layer, so some deliveries retry.
        assert stats.report_attempts > stats.reports_delivered
        assert stats.reports_received == stats.reports_delivered

    def test_reports_are_canonically_ordered_and_parseable(self):
        result = _campaign()
        keys = [(r.policy_domain, r.organization_name, r.report_id)
                for r in result.tlsrpt_reports]
        assert keys == sorted(keys)
        for line in result.tlsrpt_reports_jsonl.splitlines():
            report = TlsRptReport.from_json(line)
            assert report.policies

    def test_clean_campaign_is_all_ok(self):
        result = _campaign()
        report = result.tlsrpt_monitor.health()
        assert report.findings
        assert all(f.level == OK for f in report.findings)

    def test_census_counts_real_failures(self):
        census = _campaign().tlsrpt_aggregator.census()
        assert census["malformed"] == 0
        assert census["sessions"] == (census["successful_sessions"]
                                      + census["failed_sessions"])
        assert census["failed_sessions"] > 0
        assert ResultType.STARTTLS_NOT_SUPPORTED.value in \
            census["failures_by_result_type"]

    def test_tlsrpt_rejects_state_dir(self, tmp_path):
        config = DeliveryCampaignConfig(**_CONFIG)
        with pytest.raises(ValueError, match="durable state"):
            run_delivery_campaign(config, state_dir=str(tmp_path))

    def test_disabled_by_default(self):
        config = DeliveryCampaignConfig(scale=0.004, seed=11)
        assert config.tlsrpt is False


# ---------------------------------------------------------------------------
# The ingestion monitor
# ---------------------------------------------------------------------------

def _window_report(start: Instant, policy_domain: str, org: str,
                   successes: int, failures) -> TlsRptReport:
    details = [FailureDetail(rtype, "mx." + policy_domain, count)
               for rtype, count in failures]
    summary = PolicySummary(
        policy_type="sts", policy_domain=policy_domain,
        total_successful_sessions=successes,
        total_failed_sessions=sum(count for _, count in failures),
        failure_details=details)
    return TlsRptReport(
        organization_name=org, contact_info=f"tls@{org}",
        report_id=f"{start.date_string()}-{policy_domain}-{org}",
        window_start=start, window_end=start + DAY, policies=[summary])


class TestTlsRptMonitor:
    def test_alert_pins_exactly_the_poisoned_window(self):
        base = Instant(0)
        monitor = TlsRptMonitor()
        monitor.observe_reports([
            _window_report(base, "a.com", "relay.net", 10, []),
            _window_report(base + DAY, "a.com", "relay.net", 5,
                           [(ResultType.CERTIFICATE_EXPIRED, 5)]),
            _window_report(base + DAY + DAY, "a.com", "relay.net", 10, []),
        ])
        findings = monitor.health().findings
        assert [f.level for f in findings] == [OK, ALERT, OK]
        alert = findings[1]
        assert alert.index == 1
        assert alert.metric == "tlsrpt-failure-rate"

    def test_warn_band(self):
        base = Instant(0)
        monitor = TlsRptMonitor()
        monitor.observe_reports([
            _window_report(base, "a.com", "relay.net", 4,
                           [(ResultType.VALIDATION_FAILURE, 1)]),
        ])
        findings = monitor.health().findings
        assert [f.level for f in findings] == [WARN]

    def test_thresholds_configurable(self):
        base = Instant(0)
        monitor = TlsRptMonitor(TlsRptThresholds(failure_rate_warn=0.01,
                                                 failure_rate_alert=0.05))
        monitor.observe_reports([
            _window_report(base, "a.com", "relay.net", 9,
                           [(ResultType.VALIDATION_FAILURE, 1)]),
        ])
        assert monitor.health().findings[0].level == ALERT

    def test_jsonl_round_trip(self):
        monitor = _campaign().tlsrpt_monitor
        rebuilt = TlsRptMonitor.from_jsonl(monitor.to_jsonl())
        assert rebuilt.to_jsonl() == monitor.to_jsonl()
        assert rebuilt.health().render() == monitor.health().render()
        assert rebuilt.failing_mtas() == monitor.failing_mtas()

    def test_failing_mtas_aggregate_across_windows(self):
        base = Instant(0)
        monitor = TlsRptMonitor()
        monitor.observe_reports([
            _window_report(base, "a.com", "big.relay", 0,
                           [(ResultType.CERTIFICATE_EXPIRED, 3)]),
            _window_report(base + DAY, "a.com", "big.relay", 0,
                           [(ResultType.CERTIFICATE_EXPIRED, 2)]),
            _window_report(base, "b.com", "small.relay", 0,
                           [(ResultType.VALIDATION_FAILURE, 1)]),
        ])
        assert monitor.failing_mtas() == [("big.relay", 5),
                                          ("small.relay", 1)]

    def test_verdict_feed_sorted_and_filtered(self):
        base = Instant(0)
        monitor = TlsRptMonitor()
        monitor.observe_reports([
            _window_report(base, "b.com", "relay.net", 0,
                           [(ResultType.VALIDATION_FAILURE, 1)]),
            _window_report(base, "a.com", "relay.net", 0,
                           [(ResultType.CERTIFICATE_EXPIRED, 4),
                            (ResultType.STARTTLS_NOT_SUPPORTED, 2)]),
        ])
        verdicts = monitor.verdicts(min_failed_sessions=2)
        assert [(v.policy_domain, v.result_type, v.failed_sessions)
                for v in verdicts] == [
            ("a.com", ResultType.CERTIFICATE_EXPIRED, 4),
            ("a.com", ResultType.STARTTLS_NOT_SUPPORTED, 2),
        ]


class TestAggregator:
    def test_malformed_counted_not_raised(self):
        aggregator = ReportAggregator()
        assert aggregator.ingest("{not json") is None
        assert aggregator.ingest("{}") is None
        assert aggregator.malformed == 2
        assert aggregator.census()["reports"] == 0

    def test_by_domain_keyed_canonically(self):
        base = Instant(0)
        aggregator = ReportAggregator()
        aggregator.ingest(_window_report(
            base, "strasse.example", "relay.net", 1, []).to_canonical_json())
        assert "strasse.example" in aggregator.by_domain


# ---------------------------------------------------------------------------
# The report-driven loop: verdicts -> notifications -> repairs -> clean
# ---------------------------------------------------------------------------

class TestVerdictClosedLoop:
    def _broken_recipient(self, world):
        recipient = deploy_domain(world, DomainSpec(
            domain="loop.com",
            policy=Policy(version="STSv1", mode=PolicyMode.TESTING,
                          max_age=86400, mx_patterns=("mail.loop.com",)),
            tlsrpt=TlsRptRecord("TLSRPTv1",
                                ("mailto:tls-reports@loop.com",))))
        apply_fault(world, recipient, Fault.MX_CERT_SELF_SIGNED)
        return recipient

    def _send_and_collect(self, world, fetcher):
        collector = ReportCollector("relay.net", "tls@relay.net",
                                    world.clock)
        sender = MtaStsSender("relay.net", world.network, world.resolver,
                              world.trust_store, world.clock, fetcher,
                              reporter=collector)
        assert sender.send(Message("a@relay.net", "b@loop.com")).delivered
        return collector.close_window()

    def test_reports_drive_repairs_to_clean(self, world, fetcher):
        recipient = self._broken_recipient(world)
        monitor = TlsRptMonitor()
        monitor.observe_reports(self._send_and_collect(world, fetcher))
        verdicts = monitor.verdicts()
        assert any(v.result_type is ResultType.CERTIFICATE_NOT_TRUSTED
                   for v in verdicts)

        actions = plan_repairs_from_verdict(verdicts)
        assert any(a.action == "fix-mx-certificate" for a in actions)
        applied = apply_repairs(world, recipient, actions)
        assert "fix-mx-certificate" in applied

        # Post-repair sessions carry no failure details: the loop
        # closed on received reports alone, no rescan involved.
        post = self._send_and_collect(world, fetcher)
        assert post[0].policies[0].total_failed_sessions == 0

    def test_verdicts_drive_notifications(self, world, fetcher):
        recipient = self._broken_recipient(world)
        monitor = TlsRptMonitor()
        monitor.observe_reports(self._send_and_collect(world, fetcher))
        campaign = DisclosureCampaign(world, extra_bounce_rate=0.0)
        report = campaign.run_from_verdicts(monitor.verdicts())
        assert report.notified == 1
        assert report.delivered == 1
        bodies = [m.body for host in recipient.mx_hosts
                  for m in host.mailbox
                  if m.recipient == "postmaster@loop.com"]
        assert any(ResultType.CERTIFICATE_NOT_TRUSTED.value in body
                   for body in bodies)

    def test_dedup_one_action_per_domain_and_verb(self):
        from repro.obs.tlsrpt_monitor import TlsRptVerdict
        verdicts = [
            TlsRptVerdict("x.com", ResultType.CERTIFICATE_EXPIRED, 3),
            TlsRptVerdict("x.com", ResultType.CERTIFICATE_NOT_TRUSTED, 2),
            TlsRptVerdict("x.com", ResultType.STS_POLICY_INVALID, 1),
        ]
        actions = plan_repairs_from_verdict(verdicts)
        assert [a.action for a in actions] == ["fix-policy-syntax",
                                               "fix-mx-certificate"]


# Satellite: the notification body's fallback chain (operator
# precedence — a domain with no syntax errors gets the fetch-stage or
# generic body, never a bare prefix).
class TestNotifyBodyFallbacks:
    def _notify(self, world, simple_domain, **fields):
        from types import SimpleNamespace
        snapshot = SimpleNamespace(domain="example.com",
                                   policy_syntax_errors=[],
                                   policy_fetch_stage="", **{})
        for key, value in fields.items():
            setattr(snapshot, key, value)
        campaign = DisclosureCampaign(world, extra_bounce_rate=0.0)
        assert campaign.notify(snapshot).delivered
        return simple_domain.mx_hosts[0].mailbox[-1].body

    def test_syntax_errors_win(self, world, simple_domain):
        body = self._notify(world, simple_domain,
                            policy_syntax_errors=["bad mode", "bad mx"],
                            policy_fetch_stage="http")
        assert body.endswith("bad mode, bad mx")

    def test_fetch_stage_when_no_syntax_errors(self, world, simple_domain):
        body = self._notify(world, simple_domain,
                            policy_fetch_stage="http")
        assert body.endswith("misconfigured: http")

    def test_generic_fallback(self, world, simple_domain):
        body = self._notify(world, simple_domain)
        assert body.endswith("see details")


# ---------------------------------------------------------------------------
# CLI: campaign deliver --tlsrpt-out / repro tlsrpt
# ---------------------------------------------------------------------------

_CLI_ARGS = ["campaign", "deliver", "--scale", "0.004", "--senders", "20",
             "--messages-per-sender", "3", "--backpressure", "40"]


class TestCli:
    def test_deliver_writes_artifacts_and_tlsrpt_reingests(self, tmp_path,
                                                           capsys):
        out = tmp_path / "tlsrpt"
        assert main(_CLI_ARGS + ["--tlsrpt-out", str(out)]) == 0
        reports_path = out / "reports.jsonl"
        monitor_path = out / "monitor.jsonl"
        assert reports_path.exists() and monitor_path.exists()
        output = capsys.readouterr().out
        assert "tlsrpt:" in output
        # Each report is titled with its monitor and unit of record.
        assert "\ndelivery health: OK (0 alert(s), 0 warning(s), " in output
        assert " wave(s) clean)\n[OK   ] w00 all-checks" in output
        assert "\ntlsrpt health: OK (0 alert(s), 0 warning(s), 1 window(s) " \
            "clean)\n[OK   ] w00 all-checks" in output
        assert "campaign health" not in output

        rebuilt = tmp_path / "monitor2.jsonl"
        assert main(["tlsrpt", str(out),
                     "--monitor-out", str(rebuilt)]) == 0
        output = capsys.readouterr().out
        assert "report(s) covering" in output
        assert "\ntlsrpt health: OK (" in output
        # Re-ingesting the saved reports reproduces the campaign's
        # monitor feed byte for byte.
        assert rebuilt.read_text() == monitor_path.read_text()

    def test_deliver_alert_exit_code(self, tmp_path, capsys):
        out = tmp_path / "tlsrpt"
        # A floor-zero alert threshold turns any failed session into an
        # ALERT window; the clean campaign has a few (plaintext tail).
        assert main(_CLI_ARGS + ["--tlsrpt-out", str(out),
                    "--tlsrpt-failure-rate-alert", "0.0"]) == 1
        capsys.readouterr()
        assert main(["tlsrpt", str(out),
                     "--failure-rate-alert", "0.0"]) == 1
        capsys.readouterr()

    def test_tlsrpt_out_refuses_state_dir(self, tmp_path, capsys):
        assert main(_CLI_ARGS + ["--tlsrpt-out", str(tmp_path / "t"),
                    "--state-dir", str(tmp_path / "s")]) == 2
        assert "--state-dir" in capsys.readouterr().err

    def test_tlsrpt_missing_reports(self, tmp_path, capsys):
        assert main(["tlsrpt", str(tmp_path)]) == 2
        assert "no TLSRPT reports" in capsys.readouterr().err

    def test_tlsrpt_accepts_file_path(self, tmp_path, capsys):
        path = tmp_path / "reports.jsonl"
        report = _window_report(Instant(0), "a.com", "relay.net", 3,
                                [(ResultType.CERTIFICATE_EXPIRED, 1)])
        path.write_text(report.to_canonical_json() + "\n",
                        encoding="utf-8")
        assert main(["tlsrpt", str(path)]) == 0
        assert "certificate-expired" in capsys.readouterr().out
