"""Unit tests for mx pattern matching (RFC 8461 §4.1)."""

from repro.core.matching import (
    mx_pattern_matches, policy_covers_mx, uncovered_mx_hosts,
    unused_patterns,
)
from repro.core.policy import Policy, PolicyMode


class TestExactMatching:
    def test_identical(self):
        assert mx_pattern_matches("mail.example.com", "mail.example.com")

    def test_case_insensitive(self):
        assert mx_pattern_matches("MAIL.example.com", "mail.EXAMPLE.com")

    def test_trailing_dot_ignored(self):
        assert mx_pattern_matches("mail.example.com", "mail.example.com.")
        assert mx_pattern_matches("mail.example.com.", "mail.example.com")

    def test_different_hosts(self):
        assert not mx_pattern_matches("mail.example.com", "mx.example.com")

    def test_empty_inputs(self):
        assert not mx_pattern_matches("", "mail.example.com")
        assert not mx_pattern_matches("mail.example.com", "")


class TestWildcardMatching:
    def test_wildcard_matches_one_label(self):
        assert mx_pattern_matches("*.example.com", "mx1.example.com")

    def test_wildcard_does_not_match_apex(self):
        assert not mx_pattern_matches("*.example.com", "example.com")

    def test_wildcard_does_not_cross_labels(self):
        assert not mx_pattern_matches("*.example.com", "a.b.example.com")

    def test_wildcard_requires_nonempty_label(self):
        assert not mx_pattern_matches("*.example.com", ".example.com")

    def test_bare_wildcard_invalid(self):
        assert not mx_pattern_matches("*.", "example.com")


class TestPolicyCoverage:
    def make_policy(self, *patterns):
        return Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                      max_age=86400, mx_patterns=patterns)

    def test_any_pattern_suffices(self):
        policy = self.make_policy("a.example.com", "*.example.net")
        assert policy_covers_mx(policy, "mx.example.net")
        assert policy_covers_mx(policy, "a.example.com")
        assert not policy_covers_mx(policy, "b.example.com")

    def test_sequence_of_patterns_accepted(self):
        assert policy_covers_mx(["mail.example.com"], "mail.example.com")

    def test_uncovered_hosts(self):
        policy = self.make_policy("mail.example.com")
        uncovered = uncovered_mx_hosts(
            policy, ["mail.example.com", "backup.example.com"])
        assert uncovered == ["backup.example.com"]

    def test_unused_patterns_finds_stale_entries(self):
        # A migrated domain: patterns list the old provider's hosts.
        policy = self.make_policy("mx.oldhost.net", "mail.example.com")
        stale = unused_patterns(policy, ["mail.example.com"])
        assert stale == ["mx.oldhost.net"]

    def test_all_patterns_used(self):
        policy = self.make_policy("*.example.com")
        assert unused_patterns(policy, ["mx1.example.com"]) == []


class TestCanonicalisationParity:
    """Pattern matching and DNS parsing must canonicalise identically
    (the shared ``canonical_host`` helper is the fix)."""

    def test_case_and_dot_insensitive_match(self):
        assert mx_pattern_matches("MAIL.Example.COM.", "mail.example.com")
        assert mx_pattern_matches("mail.example.com", " MAIL.EXAMPLE.COM. ")

    def test_sharp_s_folds_like_dns_name(self):
        from repro.dns.name import canonical_host
        # lower() keeps "ẞ" as "ß" while DnsName.parse casefolds to
        # "ss"; with a shared helper both sides agree.
        assert mx_pattern_matches("straẞe.example", "strasse.example")
        assert canonical_host("straẞe.example") == "strasse.example"

    def test_empty_label_hosts_never_match(self):
        assert not mx_pattern_matches("a..b", "a..b")
        assert not mx_pattern_matches("*.example.com", "mx..example.com")
