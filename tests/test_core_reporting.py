"""Tests for SMTP TLS Reporting (RFC 8460): the report model, the
sender-side collector and the receiving inbox.  Report delivery to
``rua`` endpoints is tested through the delivery campaign in
``test_tlsrpt_pipeline.py``."""

import json

from repro.clock import DAY, Duration
from repro.core.policy import Policy, PolicyMode
from repro.core.reporting import (
    FailureDetail, PolicySummary, ReportCollector, ResultType,
    TlsRptReport, result_type_for_fetch_stage, result_type_for_tls_failure,
)
from repro.core.sender import MtaStsSender
from repro.ecosystem.deployment import DomainSpec, deploy_domain
from repro.ecosystem.misconfig import Fault, apply_fault
from repro.smtp.delivery import Message


class TestReportModel:
    def make_report(self, world):
        detail = FailureDetail(ResultType.CERTIFICATE_EXPIRED,
                               "mail.example.com", 3)
        summary = PolicySummary(
            policy_type="sts", policy_domain="example.com",
            policy_strings=("version: STSv1", "mode: enforce"),
            total_successful_sessions=10, total_failed_sessions=3,
            failure_details=[detail])
        return TlsRptReport(
            organization_name="relay.net", contact_info="tls@relay.net",
            report_id="r1", window_start=world.now(),
            window_end=world.now() + DAY, policies=[summary])

    def test_json_round_trip(self, world):
        report = self.make_report(world)
        parsed = TlsRptReport.from_json(report.to_json())
        assert parsed.report_id == "r1"
        assert parsed.policies[0].total_failed_sessions == 3
        assert parsed.policies[0].failure_details[0].result_type is \
            ResultType.CERTIFICATE_EXPIRED

    def test_json_is_rfc8460_shaped(self, world):
        body = json.loads(self.make_report(world).to_json())
        assert body["organization-name"] == "relay.net"
        assert "date-range" in body
        policy_block = body["policies"][0]
        assert policy_block["policy"]["policy-type"] == "sts"
        assert policy_block["summary"][
            "total-failure-session-count"] == 3

    def test_result_type_mappings(self):
        # A TLS failure at the policy host is RFC 8460 §4.3's dedicated
        # sts-webpki-invalid, not a generic fetch error.
        assert result_type_for_fetch_stage("tls") is \
            ResultType.STS_WEBPKI_INVALID
        assert result_type_for_fetch_stage("http") is \
            ResultType.STS_POLICY_FETCH_ERROR
        assert result_type_for_fetch_stage("policy-syntax") is \
            ResultType.STS_POLICY_INVALID
        assert result_type_for_tls_failure("hostname-mismatch") is \
            ResultType.CERTIFICATE_HOST_MISMATCH
        assert result_type_for_tls_failure("self-signed") is \
            ResultType.CERTIFICATE_NOT_TRUSTED


class TestCollector:
    def test_window_rollup(self, world):
        collector = ReportCollector("relay.net", "tls@relay.net",
                                    world.clock)
        collector.record_policy("example.com", "sts", ("mode: enforce",))
        collector.record_success("example.com")
        collector.record_success("example.com")
        collector.record_failure("example.com",
                                 ResultType.CERTIFICATE_EXPIRED,
                                 "mail.example.com")
        collector.record_failure("example.com",
                                 ResultType.CERTIFICATE_EXPIRED,
                                 "mail.example.com")
        world.clock.advance(DAY + Duration(1))
        assert collector.window_expired()
        reports = collector.close_window()
        assert len(reports) == 1
        summary = reports[0].policies[0]
        assert summary.total_successful_sessions == 2
        assert summary.total_failed_sessions == 2
        assert summary.failure_details[0].failed_session_count == 2

    def test_idle_domains_skipped(self, world):
        collector = ReportCollector("relay.net", "tls@relay.net",
                                    world.clock)
        collector.record_policy("quiet.com", "sts", ())
        assert collector.close_window() == []

    def test_window_resets(self, world):
        collector = ReportCollector("relay.net", "tls@relay.net",
                                    world.clock)
        collector.record_success("a.com")
        collector.close_window()
        assert collector.close_window() == []


class TestSenderIntegration:
    def _reporting_sender(self, world, fetcher):
        collector = ReportCollector("relay.net", "tls@relay.net",
                                    world.clock)
        sender = MtaStsSender("relay.net", world.network, world.resolver,
                              world.trust_store, world.clock, fetcher,
                              reporter=collector)
        return sender, collector

    def test_success_sessions_reported(self, world, fetcher, simple_domain):
        sender, collector = self._reporting_sender(world, fetcher)
        sender.send(Message("a@relay.net", "b@example.com"))
        report = collector.close_window()[0]
        summary = report.policies[0]
        assert summary.policy_domain == "example.com"
        assert summary.policy_type == "sts"
        assert summary.total_successful_sessions == 1
        assert summary.policy_strings    # the fetched policy lines

    def test_certificate_failures_reported(self, world, fetcher):
        deployed = deploy_domain(world, DomainSpec(
            domain="badmx.com",
            policy=Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                          max_age=86400, mx_patterns=("mail.badmx.com",))))
        apply_fault(world, deployed, Fault.MX_CERT_EXPIRED, mx_index=None)
        sender, collector = self._reporting_sender(world, fetcher)
        sender.send(Message("a@relay.net", "b@badmx.com"))
        report = collector.close_window()[0]
        details = report.policies[0].failure_details
        assert any(d.result_type is ResultType.CERTIFICATE_EXPIRED
                   for d in details)
        assert report.policies[0].total_failed_sessions >= 1

    def test_policy_fetch_errors_reported(self, world, fetcher,
                                          simple_domain):
        apply_fault(world, simple_domain, Fault.POLICY_HTTP_404)
        sender, collector = self._reporting_sender(world, fetcher)
        sender.send(Message("a@relay.net", "b@example.com"))
        report = collector.close_window()[0]
        details = report.policies[0].failure_details
        assert any(d.result_type is ResultType.STS_POLICY_FETCH_ERROR
                   for d in details)

    def test_end_to_end_report_loop(self, world, fetcher):
        """Sender observes failures at a testing-mode recipient, and
        its closed window holds that recipient's report (the delivery
        campaign's lanes then send it to the published rua)."""
        recipient = deploy_domain(world, DomainSpec(
            domain="loop.com",
            policy=Policy(version="STSv1", mode=PolicyMode.TESTING,
                          max_age=86400, mx_patterns=("mail.loop.com",))))
        apply_fault(world, recipient, Fault.MX_CERT_SELF_SIGNED)
        sender, collector = self._reporting_sender(world, fetcher)
        # Testing mode: delivery proceeds despite the bad certificate.
        assert sender.send(Message("a@relay.net", "b@loop.com")).delivered

        reports = collector.close_window()
        assert [r.policy_domain for r in reports] == ["loop.com"]
        parsed = TlsRptReport.from_json(reports[0].to_json())
        assert parsed.policies[0].total_failed_sessions >= 1
        assert parsed.policies[0].total_successful_sessions >= 1
