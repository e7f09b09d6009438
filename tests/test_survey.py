"""Tests for the questionnaire model, synthesis, and analysis (§7)."""

import pytest

from repro.survey.analysis import analyze
from repro.survey.questionnaire import build_questionnaire
from repro.survey.synthesize import synthesize_respondents


@pytest.fixture(scope="module")
def questionnaire():
    return build_questionnaire()


@pytest.fixture(scope="module")
def respondents():
    return synthesize_respondents()


@pytest.fixture(scope="module")
def findings(respondents):
    return analyze(respondents)


class TestQuestionnaire:
    def test_all_pages_covered(self, questionnaire):
        pages = {q.page for q in questionnaire.questions}
        assert pages == set(range(1, 16)) - {3, 4} | {3, 4}

    def test_refusing_consent_ends_survey(self, questionnaire):
        walk = questionnaire.walk({"consent_participate": "no"})
        assert walk == [1]

    def test_never_heard_ends_survey(self, questionnaire):
        walk = questionnaire.walk({
            "consent_participate": "yes", "consent_publication": "yes",
            "heard_mta_sts": "no"})
        assert walk == [1, 2, 3]

    def test_not_deployed_jumps_to_page_10(self, questionnaire):
        walk = questionnaire.walk({
            "consent_participate": "yes", "consent_publication": "yes",
            "heard_mta_sts": "yes", "deployed_mta_sts": "no",
            "heard_dane": "yes", "validates_outbound": "yes"})
        assert 10 in walk
        assert 5 not in walk and 9 not in walk

    def test_self_managed_policy_host_skips_provider_pages(
            self, questionnaire):
        walk = questionnaire.walk({
            "consent_participate": "yes", "consent_publication": "yes",
            "heard_mta_sts": "yes", "deployed_mta_sts": "yes",
            "policy_host_management": "self-managed",
            "heard_dane": "yes", "validates_outbound": "yes"})
        assert 8 not in walk and 9 not in walk
        assert 11 in walk

    def test_dane_unknown_skips_comparison(self, questionnaire):
        walk = questionnaire.walk({
            "consent_participate": "yes", "consent_publication": "yes",
            "heard_mta_sts": "yes", "deployed_mta_sts": "no",
            "heard_dane": "no", "validates_outbound": "yes"})
        assert 12 not in walk
        assert 13 in walk

    def test_no_outbound_validation_ends(self, questionnaire):
        walk = questionnaire.walk({
            "consent_participate": "yes", "consent_publication": "yes",
            "heard_mta_sts": "yes", "deployed_mta_sts": "no",
            "heard_dane": "no", "validates_outbound": "no"})
        assert walk[-1] == 13

    def test_unknown_question_raises(self, questionnaire):
        with pytest.raises(KeyError):
            questionnaire.question("nope")


class TestSynthesis:
    def test_respondent_count(self, respondents):
        assert len(respondents) == 117

    def test_branch_consistency(self, questionnaire, respondents):
        # Nobody answers a question on a page their walk never visits.
        for respondent in respondents:
            reachable = set(questionnaire.reachable_questions(
                respondent.answers))
            for qid in respondent.answers:
                question = next(
                    (q for q in questionnaire.questions if q.qid == qid),
                    None)
                if question is None:
                    continue    # derived keys (e.g. dane_no_tlsa grids)
                assert qid in reachable, (respondent.rid, qid)

    def test_only_deployed_answer_deployment_pages(self, respondents):
        for respondent in respondents:
            if respondent.get("why_adopt") is not None:
                assert respondent.get("deployed_mta_sts") == "yes"
            if respondent.get("why_not_deployed") is not None:
                assert respondent.get("deployed_mta_sts") == "no"


class TestFindingsMatchPaper:
    def test_awareness(self, findings):
        count, denominator, percent = findings.heard_of_mta_sts
        assert (count, denominator) == (89, 94)
        assert round(percent, 1) == 94.7

    def test_deployment(self, findings):
        count, denominator, percent = findings.deployed
        assert (count, denominator) == (50, 88)
        assert round(percent, 1) == 56.8

    def test_motivation(self, findings):
        count, denominator, percent = findings.motivation_downgrade
        assert (count, denominator) == (34, 42)
        assert round(percent, 1) == 81.0
        assert findings.trust_web_pki == 9
        assert findings.favored_over_dane == 10

    def test_requirements(self, findings):
        assert findings.customer_demand[:2] == (13, 41)
        assert round(findings.customer_demand[2], 1) == 31.7
        assert findings.regulation[:2] == (14, 41)
        assert round(findings.regulation[2], 1) == 34.1
        assert findings.reputation_large_providers == 5

    def test_bottlenecks(self, findings):
        assert findings.bottleneck_complexity[:2] == (21, 43)
        assert round(findings.bottleneck_complexity[2], 1) == 48.8
        assert findings.bottleneck_dane_secure[:2] == (17, 43)
        assert findings.bottleneck_no_need[:2] == (5, 43)

    def test_non_deployers(self, findings):
        assert findings.not_deployed_use_dane[:2] == (15, 33)
        assert round(findings.not_deployed_use_dane[2], 1) == 45.5
        assert findings.not_deployed_too_complicated[:2] == (9, 33)

    def test_management(self, findings):
        assert findings.mgmt_https_hard[:2] == (8, 41)
        assert findings.mgmt_updates_hard[:2] == (11, 41)

    def test_update_sequence(self, findings):
        assert findings.update_never[:2] == (15, 42)
        assert findings.update_txt_first[:2] == (10, 42)

    def test_dane_comparison(self, findings):
        assert findings.heard_dane[:2] == (78, 79)
        assert round(findings.heard_dane[2], 1) == 98.7
        assert findings.dane_no_tlsa[0] == 26
        assert round(findings.dane_no_tlsa[2], 1) == 33.3
        assert findings.dane_no_dnssec == 10
        assert findings.dane_superior[0] == 51
        assert round(findings.dane_superior[2], 1) == 72.9

    def test_demographics_figure11(self, findings):
        assert sum(findings.demographics.values()) == 92
        assert findings.demographics["<10"] == 22
        above_500 = (findings.demographics["500-1k"]
                     + findings.demographics[">1k"])
        assert above_500 == 36
        assert sum(findings.demographics_deployed.values()) == 50
        # Larger operators deploy more (Figure 11's visual message).
        assert findings.demographics_deployed[">1k"] > \
            findings.demographics_deployed["<10"]
