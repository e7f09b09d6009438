"""Unit tests for the _mta-sts TXT record parser (RFC 8461 §3.1)."""

import pytest

from repro.core.record import evaluate_txt_rrset, parse_sts_record
from repro.errors import RecordError, StsRecordError


class TestParseValid:
    def test_minimal_record(self):
        record = parse_sts_record("v=STSv1; id=20240101;")
        assert record.version == "STSv1"
        assert record.id == "20240101"
        assert record.extensions == ()

    def test_alphanumeric_id_with_letters(self):
        record = parse_sts_record("v=STSv1; id=abcDEF123;")
        assert record.id == "abcDEF123"

    def test_no_trailing_semicolon(self):
        record = parse_sts_record("v=STSv1; id=1")
        assert record.id == "1"

    def test_extension_fields_allowed(self):
        record = parse_sts_record("v=STSv1; id=5; ext=value;")
        assert record.extensions == (("ext", "value"),)

    def test_whitespace_tolerated_between_fields(self):
        record = parse_sts_record("v=STSv1;   id=20240101  ;")
        assert record.id == "20240101"

    def test_max_length_id(self):
        record = parse_sts_record(f"v=STSv1; id={'a' * 32};")
        assert len(record.id) == 32

    def test_render_round_trips(self):
        record = parse_sts_record("v=STSv1; id=42; foo=bar;")
        assert parse_sts_record(record.render()) == record


class TestParseErrors:
    def test_missing_id(self):
        with pytest.raises(RecordError) as excinfo:
            parse_sts_record("v=STSv1;")
        assert excinfo.value.kind is StsRecordError.MISSING_ID

    def test_hyphenated_id_rejected(self):
        # §4.3.2: 61% of broken records carry ids like 2024-01-01.
        with pytest.raises(RecordError) as excinfo:
            parse_sts_record("v=STSv1; id=2024-01-01;")
        assert excinfo.value.kind is StsRecordError.INVALID_ID

    def test_empty_id_rejected(self):
        with pytest.raises(RecordError) as excinfo:
            parse_sts_record("v=STSv1; id=;")
        assert excinfo.value.kind is StsRecordError.INVALID_ID

    def test_id_longer_than_32_rejected(self):
        with pytest.raises(RecordError) as excinfo:
            parse_sts_record(f"v=STSv1; id={'a' * 33};")
        assert excinfo.value.kind is StsRecordError.INVALID_ID

    def test_wrong_version_prefix(self):
        with pytest.raises(RecordError) as excinfo:
            parse_sts_record("v=STS1; id=1;")
        assert excinfo.value.kind is StsRecordError.BAD_VERSION

    def test_version_not_first(self):
        with pytest.raises(RecordError) as excinfo:
            parse_sts_record("id=1; v=STSv1;")
        assert excinfo.value.kind is StsRecordError.BAD_VERSION

    def test_the_in_the_wild_extension_error(self):
        # The §4.3.2 example: colon-separated policy fields in the record.
        with pytest.raises(RecordError) as excinfo:
            parse_sts_record("v=STSv1; id=1; mx: a.com; mode: testing;")
        assert excinfo.value.kind is StsRecordError.INVALID_EXTENSION

    def test_duplicate_id_field(self):
        with pytest.raises(RecordError) as excinfo:
            parse_sts_record("v=STSv1; id=1; id=2;")
        assert excinfo.value.kind is StsRecordError.INVALID_EXTENSION

    def test_field_without_equals(self):
        with pytest.raises(RecordError) as excinfo:
            parse_sts_record("v=STSv1; id=1; bogus;")
        assert excinfo.value.kind is StsRecordError.INVALID_EXTENSION

    def test_empty_extension_value(self):
        with pytest.raises(RecordError):
            parse_sts_record("v=STSv1; id=1; ext=;")


class TestRrsetEvaluation:
    def test_single_valid_record(self):
        result = evaluate_txt_rrset(["v=STSv1; id=1;"])
        assert result.valid
        assert result.signals_sts

    def test_empty_rrset(self):
        result = evaluate_txt_rrset([])
        assert not result.valid
        assert not result.signals_sts
        assert result.error is StsRecordError.MISSING

    def test_unrelated_txt_ignored(self):
        result = evaluate_txt_rrset(
            ["v=spf1 -all", "google-site-verification=xyz",
             "v=STSv1; id=1;"])
        assert result.valid
        assert result.sts_like_count == 1

    def test_multiple_sts_records_invalidate(self):
        # RFC 8461: more than one v=STSv1 record means no MTA-STS.
        result = evaluate_txt_rrset(["v=STSv1; id=1;", "v=STSv1; id=2;"])
        assert not result.valid
        assert result.error is StsRecordError.MULTIPLE_RECORDS
        assert result.signals_sts

    def test_broken_record_still_signals_sts(self):
        # The paper counts syntactically broken deployments as enabled.
        result = evaluate_txt_rrset(["v=STSv1; id=bad-id;"])
        assert not result.valid
        assert result.signals_sts
        assert result.error is StsRecordError.INVALID_ID

    def test_sts_like_lowercase_version(self):
        result = evaluate_txt_rrset(["v=stsv1; id=1;"])
        assert result.signals_sts
        assert not result.valid

    def test_only_spf_does_not_signal(self):
        result = evaluate_txt_rrset(["v=spf1 include:_spf.google.com ~all"])
        assert not result.signals_sts
