"""Tests for the §4.6 key-takeaway computation."""

import pytest

from repro.analysis.series import run_campaign
from repro.analysis.takeaways import compute_takeaways
from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig


@pytest.fixture(scope="module")
def campaign():
    timeline = EcosystemTimeline(
        TimelineConfig(PopulationConfig(scale=0.01, seed=5)))
    return run_campaign(timeline, months=[0, 11])


class TestTakeaways:
    def test_three_takeaways(self, campaign):
        takeaways = compute_takeaways(campaign)
        assert len(takeaways) == 3

    def test_all_hold_on_the_synthetic_ecosystem(self, campaign):
        for takeaway in compute_takeaways(campaign):
            assert takeaway.holds, takeaway.render()

    def test_evidence_is_quantitative(self, campaign):
        for takeaway in compute_takeaways(campaign):
            assert "%" in takeaway.evidence or "/" in takeaway.evidence

    def test_render(self, campaign):
        text = compute_takeaways(campaign)[0].render()
        assert "HOLDS" in text
        assert "policy-server" in text

    def test_broken_claim_detected(self, campaign):
        # Zero out the final summary's MX stats: takeaway 2 breaks.
        summary = campaign.latest_summary()
        saved = dict(summary.mx_invalid_by_entity)
        try:
            summary.mx_invalid_by_entity["self-managed"] = 0
            takeaways = compute_takeaways(campaign)
            assert not takeaways[1].holds
        finally:
            summary.mx_invalid_by_entity.update(saved)
