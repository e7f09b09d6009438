"""Unit tests for MTA-STS policy parsing (RFC 8461 §3.2)."""

import dataclasses

import pytest

from repro.core import record
from repro.core.policy import (
    MAX_POLICY_AGE, PolicyMode, check_policy_text, parse_policy,
    render_policy,
)
from repro.core.record import evaluate_txt_rrset
from repro.core.tlsrpt import parse_tlsrpt_record
from repro.errors import PolicyError, PolicySyntaxError

VALID = ("version: STSv1\r\n"
         "mode: enforce\r\n"
         "mx: mail.example.com\r\n"
         "mx: *.example.net\r\n"
         "max_age: 604800\r\n")


class TestParseValid:
    def test_full_policy(self):
        policy = parse_policy(VALID)
        assert policy.version == "STSv1"
        assert policy.mode is PolicyMode.ENFORCE
        assert policy.max_age == 604800
        assert policy.mx_patterns == ("mail.example.com", "*.example.net")

    def test_lf_line_endings_accepted(self):
        policy = parse_policy(VALID.replace("\r\n", "\n"))
        assert policy.mode is PolicyMode.ENFORCE

    def test_testing_mode(self):
        text = VALID.replace("enforce", "testing")
        assert parse_policy(text).mode is PolicyMode.TESTING

    def test_none_mode_needs_no_mx(self):
        policy = parse_policy("version: STSv1\nmode: none\nmax_age: 86400\n")
        assert policy.mode is PolicyMode.NONE
        assert policy.mx_patterns == ()

    def test_mx_patterns_lowercased(self):
        text = VALID.replace("mail.example.com", "MAIL.Example.COM")
        assert "mail.example.com" in parse_policy(text).mx_patterns

    def test_max_age_capped_at_one_year(self):
        text = VALID.replace("604800", str(MAX_POLICY_AGE * 10))
        assert parse_policy(text).max_age == MAX_POLICY_AGE

    def test_unknown_keys_ignored(self):
        text = VALID + "future_field: hello\r\n"
        assert parse_policy(text).mode is PolicyMode.ENFORCE

    def test_render_round_trips(self):
        policy = parse_policy(VALID)
        assert parse_policy(render_policy(policy)) == policy


class TestParseErrors:
    @pytest.mark.parametrize("mutation, expected", [
        (lambda t: "", PolicySyntaxError.EMPTY_FILE),
        (lambda t: "   \r\n \r\n", PolicySyntaxError.EMPTY_FILE),
        (lambda t: t.replace("version: STSv1\r\n", ""),
         PolicySyntaxError.MISSING_VERSION),
        (lambda t: t.replace("STSv1", "STSv2"),
         PolicySyntaxError.BAD_VERSION),
        (lambda t: t.replace("mode: enforce\r\n", ""),
         PolicySyntaxError.MISSING_MODE),
        (lambda t: t.replace("enforce", "enfroce"),
         PolicySyntaxError.INVALID_MODE),
        (lambda t: t.replace("max_age: 604800\r\n", ""),
         PolicySyntaxError.MISSING_MAX_AGE),
        (lambda t: t.replace("604800", "a while"),
         PolicySyntaxError.INVALID_MAX_AGE),
    ])
    def test_single_fault(self, mutation, expected):
        with pytest.raises(PolicyError) as excinfo:
            parse_policy(mutation(VALID))
        assert excinfo.value.kind is expected

    def test_enforce_without_mx_patterns(self):
        text = ("version: STSv1\r\nmode: enforce\r\nmax_age: 86400\r\n")
        with pytest.raises(PolicyError) as excinfo:
            parse_policy(text)
        assert excinfo.value.kind is PolicySyntaxError.NO_MX_PATTERNS

    @pytest.mark.parametrize("bad_pattern", [
        "postmaster@example.com",     # email address (§4.3.3)
        "mail.example.com.",          # trailing dot (§4.3.3)
        "",                           # empty pattern (§4.3.3)
        "mx.*.example.com",           # wildcard not leftmost
        "*.",                         # bare wildcard
        "*.*.example.com",            # double wildcard
        "mail server.example.com",    # embedded space
    ])
    def test_invalid_mx_patterns(self, bad_pattern):
        text = VALID.replace("mail.example.com", bad_pattern)
        check = check_policy_text(text)
        assert PolicySyntaxError.INVALID_MX_PATTERN in check.errors

    def test_duplicate_scalar_key(self):
        text = VALID + "mode: testing\r\n"
        check = check_policy_text(text)
        assert PolicySyntaxError.DUPLICATE_KEY in check.errors

    def test_line_without_separator(self):
        check = check_policy_text(VALID + "garbage line\r\n")
        assert PolicySyntaxError.MALFORMED_LINE in check.errors


class TestLenientCheck:
    def test_collects_multiple_errors(self):
        check = check_policy_text("mode: nonsense\nmax_age: never\n")
        kinds = set(check.errors)
        assert PolicySyntaxError.MISSING_VERSION in kinds
        assert PolicySyntaxError.INVALID_MODE in kinds
        assert PolicySyntaxError.INVALID_MAX_AGE in kinds
        assert check.policy is None

    def test_valid_policy_has_no_errors(self):
        check = check_policy_text(VALID)
        assert check.valid
        assert check.errors == ()

    def test_empty_file_is_the_dmarcreport_case(self):
        # §5: an empty policy file parses as an error that senders
        # treat like mode=none.
        check = check_policy_text("")
        assert check.errors == (PolicySyntaxError.EMPTY_FILE,)


class TestMaxAgeValidation:
    """Regressions: ``str.isdigit`` accepts non-ASCII digits, and the
    RFC 8461 upper bound used to be clamped silently."""

    def test_arabic_indic_digits_rejected(self):
        # "١٢٣".isdigit() is True and int("١٢٣") == 123, so the old
        # check silently accepted a max_age no operator ever wrote.
        check = check_policy_text(VALID.replace("604800", "١٢٣"))
        assert PolicySyntaxError.INVALID_MAX_AGE in check.errors

    def test_superscript_digits_rejected_not_crashed(self):
        # "²".isdigit() is True but int("²") raises ValueError — the
        # old code path crashed instead of reporting a syntax error.
        check = check_policy_text(VALID.replace("604800", "²³"))
        assert PolicySyntaxError.INVALID_MAX_AGE in check.errors

    def test_fullwidth_digits_rejected(self):
        check = check_policy_text(VALID.replace("604800", "１２３"))
        assert PolicySyntaxError.INVALID_MAX_AGE in check.errors

    def test_over_bound_max_age_warns_and_clamps(self):
        from repro.errors import PolicyWarning
        check = check_policy_text(
            VALID.replace("604800", str(MAX_POLICY_AGE + 1)))
        assert check.valid
        assert check.policy.max_age == MAX_POLICY_AGE
        assert check.warnings == (PolicyWarning.MAX_AGE_OVER_BOUND,)
        assert str(MAX_POLICY_AGE + 1) in check.warning_details[0]

    def test_in_bound_max_age_has_no_warning(self):
        check = check_policy_text(VALID)
        assert check.valid
        assert check.warnings == ()
        boundary = check_policy_text(
            VALID.replace("604800", str(MAX_POLICY_AGE)))
        assert boundary.valid
        assert boundary.warnings == ()
        assert boundary.policy.max_age == MAX_POLICY_AGE


class TestDuplicateKeys:
    """RFC 8461 regression: repeated scalar keys must be flagged."""

    @pytest.mark.parametrize("dupe", ["version: STSv1",
                                      "mode: testing",
                                      "max_age: 100"])
    def test_duplicate_scalar_key_flagged(self, dupe):
        check = check_policy_text(VALID + dupe + "\r\n")
        assert PolicySyntaxError.DUPLICATE_KEY in check.errors

    def test_strict_parse_raises_duplicate_key(self):
        with pytest.raises(PolicyError) as excinfo:
            parse_policy(VALID + "mode: testing\r\n")
        assert excinfo.value.kind is PolicySyntaxError.DUPLICATE_KEY

    def test_repeated_mx_keys_are_legal(self):
        # mx is the one key RFC 8461 allows (requires) to repeat.
        assert check_policy_text(VALID).valid


class TestTextParseMemo:
    """The three text parses on the scan path are pure functions of
    their text, memoised by an LRU of 1,024 entries: a repeated text
    gets the same frozen result back."""

    @pytest.mark.parametrize("parse, memo, text, spelling", [
        (check_policy_text, check_policy_text, VALID, VALID),
        (check_policy_text, check_policy_text, "mode: nonsense\n",
         "mode: nonsense\n"),
        # The RRset is keyed by the tuple of its texts, whatever
        # sequence the caller holds them in.
        (evaluate_txt_rrset, record._evaluate_texts,
         ["v=STSv1; id=1;", "v=spf1 -all"],
         ("v=STSv1; id=1;", "v=spf1 -all")),
        (parse_tlsrpt_record, parse_tlsrpt_record,
         "v=TLSRPTv1; rua=mailto:tls@example.com",
         "v=TLSRPTv1; rua=mailto:tls@example.com"),
    ], ids=["policy", "bad-policy", "rrset", "tlsrpt"])
    def test_repeat_returns_the_same_frozen_result(self, parse, memo, text,
                                                   spelling):
        first = parse(text)
        assert parse(spelling) is first
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(first, dataclasses.fields(first)[0].name, None)
        assert memo.cache_info().maxsize == 1024

