"""Tests for the analysis helpers: rendering and series assembly."""

import pytest

from repro.analysis.report import (
    render_drift_table, render_series, render_table,
)
from repro.analysis.series import run_campaign
from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig


class TestRenderTable:
    def test_alignment_and_header(self):
        rows = [{"name": "alpha", "value": 1.5},
                {"name": "beta-longer", "value": 22}]
        text = render_table(rows, ["name", "value"], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert lines[3].startswith("alpha")
        assert "1.50" in lines[3]        # floats rendered with 2 decimals
        assert "22" in lines[4]

    def test_empty_rows(self):
        assert "(empty)" in render_table([], ["a"], title="X")

    def test_missing_keys_render_blank(self):
        text = render_table([{"a": 1}], ["a", "b"])
        assert text    # does not raise


class TestRenderSeries:
    def test_bars_scale(self):
        text = render_series([("w1", 2.0), ("w2", 4.0)], bar_scale=2)
        lines = text.splitlines()
        assert lines[0].count("#") == 4
        assert lines[1].count("#") == 8

    def test_title_prepended(self):
        text = render_series([("x", 1.0)], title="Series")
        assert text.splitlines()[0] == "Series"


class TestRenderDriftTable:
    def test_empty_rows(self):
        assert "no monthly records" in render_drift_table([])

    def test_first_month_has_no_deltas(self):
        rows = [{"month": 0, "domains": 100, "transient_rate": 0.01,
                 "dns_hit_rate": 0.4, "smtp_hit_rate": 0.3,
                 "retries_per_domain": 0.02, "backoff_millis": 120},
                {"month": 1, "domains": 110, "transient_rate": 0.02,
                 "transient_jump": 0.01, "max_bucket_shift": 0.03,
                 "dns_hit_rate": 0.4, "smtp_hit_rate": 0.3,
                 "retries_per_domain": 0.02, "backoff_millis": 130}]
        text = render_drift_table(rows)
        assert "month-over-month scan health" in text
        lines = text.splitlines()
        assert lines[-2].startswith("m00")
        assert "-" in lines[-2]            # missing deltas render as "-"
        assert "+1.00%" in lines[-1]


class TestCampaignAnalysis:
    @pytest.fixture(scope="class")
    def small_campaign(self):
        timeline = EcosystemTimeline(
            TimelineConfig(PopulationConfig(scale=0.005, seed=3)))
        return run_campaign(timeline, months=[0, 11])

    def test_figure4_rows_have_dates(self, small_campaign):
        rows = small_campaign.figure4_series()
        assert [r["month_index"] for r in rows] == [0, 11]
        assert rows[0]["date"] == "2023-11-07"
        assert rows[1]["date"] == "2024-09-29"

    def test_figure5_percentages_bounded(self, small_campaign):
        for entity in ("self-managed", "third-party", "unclassified"):
            for row in small_campaign.figure5_series(entity):
                for stage in ("dns", "tcp", "tls", "http",
                              "policy-syntax", "any"):
                    assert 0.0 <= row[stage] <= 100.0

    def test_figure7_counts_consistent(self, small_campaign):
        for row in small_campaign.figure7_series():
            assert row["enforce_invalid"] <= row["all_invalid"]

    def test_campaign_summaries_match_store(self, small_campaign):
        summary = small_campaign.latest_summary()
        assert summary.total_sts == sum(
            1 for s in small_campaign.latest if s.sts_like)

    def test_verdicts_cover_every_domain(self, small_campaign):
        from repro.measurement.classify import EntityClassifier
        from repro.measurement.columnar import ENTITY_KEYS
        month = max(small_campaign.months())
        snapshots = small_campaign.latest
        view = small_campaign.columns.month_view(month)
        verdicts = EntityClassifier(snapshots).classify_all()
        assert set(verdicts) == {s.domain for s in snapshots}
        # The month's entity columns hold the classifier's verdicts.
        for i in range(view.n):
            verdict = verdicts[view.domain(i)]
            assert ENTITY_KEYS[view.mx_entity[i]] == verdict.mx.value
            assert ENTITY_KEYS[view.policy_entity[i]] == verdict.policy.value
