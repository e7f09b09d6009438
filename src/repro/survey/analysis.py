"""Survey analysis: recompute every §7.2 statistic from answer sheets.

The functions work for any respondent population with this
questionnaire's answer keys — the synthetic one ships with the
library, but real exported answers load the same way.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from repro.survey.questionnaire import ACCOUNT_BUCKETS
from repro.survey.synthesize import Respondent


def _answered(respondents: List[Respondent], qid: str) -> List[Respondent]:
    return [r for r in respondents if r.get(qid) is not None]


def _count(respondents: List[Respondent], qid: str) -> Counter:
    return Counter(r.get(qid) for r in _answered(respondents, qid))


def _pct(part: int, whole: int) -> float:
    return 100.0 * part / whole if whole else 0.0


@dataclass
class SurveyFindings:
    """Every §7.2 number, as (count, denominator, percent) triples."""

    engaged: int = 0
    heard_of_mta_sts: tuple = (0, 0, 0.0)
    deployed: tuple = (0, 0, 0.0)
    motivation_downgrade: tuple = (0, 0, 0.0)
    trust_web_pki: int = 0
    favored_over_dane: int = 0
    customer_demand: tuple = (0, 0, 0.0)
    regulation: tuple = (0, 0, 0.0)
    reputation_large_providers: int = 0
    bottleneck_complexity: tuple = (0, 0, 0.0)
    bottleneck_dane_secure: tuple = (0, 0, 0.0)
    bottleneck_no_need: tuple = (0, 0, 0.0)
    not_deployed_use_dane: tuple = (0, 0, 0.0)
    not_deployed_too_complicated: tuple = (0, 0, 0.0)
    mgmt_https_hard: tuple = (0, 0, 0.0)
    mgmt_updates_hard: tuple = (0, 0, 0.0)
    update_never: tuple = (0, 0, 0.0)
    update_txt_first: tuple = (0, 0, 0.0)
    heard_dane: tuple = (0, 0, 0.0)
    dane_no_tlsa: tuple = (0, 0, 0.0)
    dane_no_dnssec: int = 0
    dane_superior: tuple = (0, 0, 0.0)
    demographics: Dict[str, int] = field(default_factory=dict)
    demographics_deployed: Dict[str, int] = field(default_factory=dict)


def analyze(respondents: List[Respondent]) -> SurveyFindings:
    findings = SurveyFindings()
    findings.engaged = sum(1 for r in respondents if r.answers)

    heard = _count(respondents, "heard_mta_sts")
    heard_n = sum(heard.values())
    findings.heard_of_mta_sts = (heard["yes"], heard_n,
                                 _pct(heard["yes"], heard_n))

    dep = _count(respondents, "deployed_mta_sts")
    dep_n = sum(dep.values())
    findings.deployed = (dep["yes"], dep_n, _pct(dep["yes"], dep_n))

    adopt = _count(respondents, "why_adopt")
    adopt_n = sum(adopt.values())
    findings.motivation_downgrade = (
        adopt["prevent-downgrade"], adopt_n,
        _pct(adopt["prevent-downgrade"], adopt_n))
    secondary = _count(respondents, "why_adopt_secondary")
    findings.trust_web_pki = (adopt["trust-web-pki"]
                              + secondary["trust-web-pki"])
    findings.favored_over_dane = (adopt["dane-harder"]
                                  + secondary["dane-harder"])

    rollout = _count(respondents, "why_operators_roll_out")
    rollout_n = sum(rollout.values())
    findings.customer_demand = (rollout["customers-asked"], rollout_n,
                                _pct(rollout["customers-asked"], rollout_n))
    findings.regulation = (rollout["regulation"], rollout_n,
                           _pct(rollout["regulation"], rollout_n))
    findings.reputation_large_providers = rollout["google-acceptance"]

    bottleneck = _count(respondents, "deployment_bottleneck")
    bn = sum(bottleneck.values())
    findings.bottleneck_complexity = (
        bottleneck["operational-complexity"], bn,
        _pct(bottleneck["operational-complexity"], bn))
    findings.bottleneck_dane_secure = (
        bottleneck["dane-better"], bn, _pct(bottleneck["dane-better"], bn))
    findings.bottleneck_no_need = (
        bottleneck["no-need-encryption"], bn,
        _pct(bottleneck["no-need-encryption"], bn))

    why_not = _count(respondents, "why_not_deployed")
    wn = sum(why_not.values())
    findings.not_deployed_use_dane = (
        why_not["use-dane"], wn, _pct(why_not["use-dane"], wn))
    findings.not_deployed_too_complicated = (
        why_not["too-complicated"], wn,
        _pct(why_not["too-complicated"], wn))

    hardest = _count(respondents, "hardest_aspect")
    hn = sum(hardest.values())
    findings.mgmt_https_hard = (
        hardest["https-policy-file"], hn,
        _pct(hardest["https-policy-file"], hn))
    findings.mgmt_updates_hard = (
        hardest["policy-update"], hn, _pct(hardest["policy-update"], hn))

    sequence = _count(respondents, "update_sequence")
    sn = sum(sequence.values())
    findings.update_never = (sequence["never-updated"], sn,
                             _pct(sequence["never-updated"], sn))
    findings.update_txt_first = (sequence["txt-first"], sn,
                                 _pct(sequence["txt-first"], sn))

    dane = _count(respondents, "heard_dane")
    dn = sum(dane.values())
    findings.heard_dane = (dane["yes"], dn, _pct(dane["yes"], dn))

    no_tlsa = _count(respondents, "dane_no_tlsa")
    nt = sum(no_tlsa.values())
    findings.dane_no_tlsa = (no_tlsa["yes"], nt, _pct(no_tlsa["yes"], nt))
    findings.dane_no_dnssec = _count(
        respondents, "dane_no_dnssec_support")["yes"]

    better = _count(respondents, "better_protocol")
    bp = sum(better.values())
    findings.dane_superior = (better["dane"], bp, _pct(better["dane"], bp))

    findings.demographics = {
        bucket: _count(respondents, "account_count")[bucket]
        for bucket in ACCOUNT_BUCKETS}
    deployed_respondents = [r for r in respondents
                            if r.get("deployed_mta_sts") == "yes"]
    findings.demographics_deployed = {
        bucket: _count(deployed_respondents, "account_count")[bucket]
        for bucket in ACCOUNT_BUCKETS}
    return findings
