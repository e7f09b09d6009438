"""Tests for the offline zone assessment and the CLI."""

from repro.cli import main
from repro.errors import MismatchClass
from repro.measurement.offline import assess_zone

GOOD_ZONE = """\
$ORIGIN example.com.
$TTL 3600
@        IN SOA ns1.example.com. hostmaster.example.com. 1
@        IN NS ns1.example.com.
@        IN MX 10 mail
mail     IN A 10.1.2.3
mta-sts  IN A 10.1.2.4
_mta-sts IN TXT "v=STSv1; id=20240101;"
"""

GOOD_POLICY = ("version: STSv1\nmode: enforce\nmx: mail.example.com\n"
               "max_age: 604800\n")


class TestOfflineAssessment:
    def test_healthy_zone_and_policy(self):
        assessment = assess_zone(GOOD_ZONE, "example.com", GOOD_POLICY)
        assert assessment.ok, [f.render() for f in assessment.findings]
        assert assessment.record_valid
        assert assessment.consistent
        assert assessment.mx_hostnames == ["mail.example.com"]

    def test_missing_record(self):
        zone = GOOD_ZONE.replace(
            '_mta-sts IN TXT "v=STSv1; id=20240101;"\n', "")
        assessment = assess_zone(zone, "example.com")
        assert any("no MTA-STS TXT record" in f.message
                   for f in assessment.errors)

    def test_invalid_record_id(self):
        zone = GOOD_ZONE.replace("id=20240101", "id=2024-01-01")
        assessment = assess_zone(zone, "example.com")
        assert not assessment.record_valid
        assert any("invalid-id" in f.message for f in assessment.errors)

    def test_missing_policy_host(self):
        zone = GOOD_ZONE.replace("mta-sts  IN A 10.1.2.4\n", "")
        assessment = assess_zone(zone, "example.com")
        assert any(f.component == "policy-host" for f in assessment.errors)

    def test_cname_delegation_noted(self):
        zone = GOOD_ZONE.replace(
            "mta-sts  IN A 10.1.2.4",
            "mta-sts  IN CNAME customer.mta-sts.provider.net.")
        assessment = assess_zone(zone, "example.com", GOOD_POLICY)
        assert assessment.ok
        assert any("delegated via CNAME" in f.message
                   for f in assessment.findings)

    def test_enforce_mismatch_is_an_error(self):
        policy = GOOD_POLICY.replace("mail.example.com",
                                     "mx.oldprovider.net")
        assessment = assess_zone(GOOD_ZONE, "example.com", policy)
        assert not assessment.ok
        assert assessment.consistent is False
        assert assessment.mismatch_class is MismatchClass.DOMAIN
        assert any("refuse to deliver" in f.message
                   for f in assessment.errors)

    def test_testing_mismatch_is_a_warning(self):
        policy = (GOOD_POLICY.replace("enforce", "testing")
                  .replace("mail.example.com", "mx.oldprovider.net"))
        assessment = assess_zone(GOOD_ZONE, "example.com", policy)
        assert assessment.ok      # warnings only
        assert assessment.consistent is False

    def test_stale_pattern_warning(self):
        policy = GOOD_POLICY.replace(
            "mx: mail.example.com\n",
            "mx: mail.example.com\nmx: mx.retired-provider.net\n")
        assessment = assess_zone(GOOD_ZONE, "example.com", policy)
        assert assessment.ok
        assert any("stale" in f.message for f in assessment.findings)

    def test_uncovered_mx_warning(self):
        zone = GOOD_ZONE.replace("@        IN MX 10 mail\n",
                                 "@        IN MX 10 mail\n"
                                 "@        IN MX 20 Backup.Example.com.\n")
        assessment = assess_zone(zone, "example.com", GOOD_POLICY)
        assert assessment.ok
        assert assessment.consistent
        assert [f.message for f in assessment.findings
                if f.severity == "warning"] == [
            "MX hosts not covered by any pattern: ['backup.example.com'] "
            "— senders will skip them"]

    def test_implicit_mx_fallback(self):
        zone = GOOD_ZONE.replace("@        IN MX 10 mail\n",
                                 "@        IN A 10.1.2.9\n")
        assessment = assess_zone(zone, "example.com")
        assert assessment.mx_hostnames == ["example.com"]
        assert any("implicit MX" in f.message for f in assessment.findings)

    def test_unparseable_zone(self):
        assessment = assess_zone("@ IN SRV broken", "example.com")
        assert not assessment.ok

    def test_wrong_domain_for_zone(self):
        assessment = assess_zone(GOOD_ZONE, "other.org")
        assert not assessment.ok


class TestCli:
    def test_lint_record_ok(self, capsys):
        assert main(["lint-record", "v=STSv1; id=20240101;"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_lint_record_invalid(self, capsys):
        assert main(["lint-record", "v=STSv1; id=bad-id;"]) == 1
        assert "invalid-id" in capsys.readouterr().out

    def test_lint_policy(self, tmp_path, capsys):
        good = tmp_path / "policy.txt"
        good.write_text(GOOD_POLICY)
        assert main(["lint-policy", str(good)]) == 0
        assert "mode=enforce" in capsys.readouterr().out
        bad = tmp_path / "bad.txt"
        bad.write_text("mode: nonsense\n")
        assert main(["lint-policy", str(bad)]) == 1

    def test_check_zone(self, tmp_path, capsys):
        zone_file = tmp_path / "example.com.zone"
        zone_file.write_text(GOOD_ZONE)
        policy_file = tmp_path / "policy.txt"
        policy_file.write_text(GOOD_POLICY)
        code = main(["check-zone", str(zone_file), "example.com",
                     "--policy", str(policy_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "no errors found" in out

    def test_check_zone_reports_errors(self, tmp_path, capsys):
        zone_file = tmp_path / "bad.zone"
        zone_file.write_text(GOOD_ZONE.replace("id=20240101", "id=x y"))
        assert main(["check-zone", str(zone_file), "example.com"]) == 1

    def test_plan_removal(self, capsys):
        assert main(["plan-removal", "example.com", "604800"]) == 0
        out = capsys.readouterr().out
        assert "mode=none" in out or "publish-policy" in out
        assert "wait" in out

    def test_survey(self, capsys):
        assert main(["survey"]) == 0
        out = capsys.readouterr().out
        assert "94.7%" in out
        assert "respondents: 117" in out

    def test_audit_small(self, capsys):
        assert main(["audit", "--scale", "0.002", "--month", "0"]) == 0
        out = capsys.readouterr().out
        assert "misconfigured" in out

    def test_audit_with_repair_plans(self, capsys):
        assert main(["audit", "--scale", "0.003", "--month", "11",
                     "--show-repairs", "2"]) == 0
        out = capsys.readouterr().out
        assert "repair plan for" in out
        assert "[policy-host]" in out or "[policy]" in out \
            or "[record]" in out or "[mx]" in out
