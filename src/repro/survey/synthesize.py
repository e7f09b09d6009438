"""Synthetic survey respondents matching §7.2's reported marginals.

The paper released the raw answers; this reproduction synthesises a
respondent population whose per-question counts equal every figure the
paper reports, while respecting the questionnaire's branching (only
respondents who said they deployed MTA-STS answer the deployment
pages, etc.).  The construction is deterministic — exact counts, not
sampling — so the analysis stage reproduces §7.2 verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


TOTAL_INITIAL = 120
TOTAL_ENGAGED = 117


@dataclass
class Respondent:
    """One participant's answer sheet (None = unanswered/skipped)."""

    rid: int
    answers: Dict[str, object] = field(default_factory=dict)

    def answer(self, qid: str, value: object) -> None:
        self.answers[qid] = value

    def get(self, qid: str) -> object:
        return self.answers.get(qid)


def _assign(respondents: Sequence[Respondent], qid: str,
            counts: Dict[object, int]) -> None:
    """Assign answers in order: the first ``counts[a]`` respondents get
    answer ``a``, and so on.  Respondents beyond the total stay
    unanswered (they dropped out of this question)."""
    total = sum(counts.values())
    if total > len(respondents):
        raise ValueError(
            f"{qid}: {total} answers but only {len(respondents)} "
            f"eligible respondents")
    index = 0
    for answer, count in counts.items():
        for _ in range(count):
            respondents[index].answer(qid, answer)
            index += 1


def synthesize_respondents() -> List[Respondent]:
    """The 117 engaged respondents, with §7.2-exact marginals."""
    respondents = [Respondent(rid=i) for i in range(TOTAL_ENGAGED)]
    for r in respondents:
        r.answer("consent_participate", "yes")
        r.answer("consent_publication", "yes")

    # §7.2 Deployment: 94 answered familiarity (89 yes); of the
    # continuers, 88 answered deployment (50 yes).
    _assign(respondents, "heard_mta_sts", {"yes": 89, "no": 5})
    continuers = [r for r in respondents
                  if r.get("heard_mta_sts") == "yes"]
    _assign(continuers, "deployed_mta_sts", {"yes": 50, "no": 38})

    deployed = [r for r in continuers if r.get("deployed_mta_sts") == "yes"]
    not_deployed = [r for r in continuers
                    if r.get("deployed_mta_sts") == "no"]

    # Figure 11: 92 respondents answered the account-count question
    # (totals 22 / 20 / 14 / 16 / 20 per bucket, 36 above 500 accounts);
    # the deployed subset contributes 6 / 10 / 8 / 11 / 15 — larger
    # operators deploy MTA-STS more.
    _assign(deployed, "account_count", {
        "<10": 6, "10-100": 10, "100-500": 8, "500-1k": 11, ">1k": 15})
    rest = not_deployed + [r for r in respondents
                           if r.get("heard_mta_sts") != "yes"]
    _assign(rest, "account_count", {
        "<10": 16, "10-100": 10, "100-500": 6, "500-1k": 5, ">1k": 5})

    # Motivation (42 respondents): 34 most-important = prevent
    # downgrade; 9 trust the web PKI more than DANE; 10 cite DANE's
    # DNSSEC complexity (some respondents appear in several columns of
    # a Likert grid; the primary choice is stored here).
    _assign(deployed, "why_adopt", {
        "prevent-downgrade": 34, "trust-web-pki": 4, "dane-harder": 4})
    _assign(deployed, "why_adopt_secondary", {
        "trust-web-pki": 5, "dane-harder": 6})

    # Requirements (41): 13 customer demand, 14 regulation, 5
    # reputation with large providers.
    _assign(deployed, "why_operators_roll_out", {
        "customers-asked": 13, "regulation": 14, "google-acceptance": 5,
        "curiosity": 6, "tech-pulse": 3})

    # Challenges among the deployed (43): operational complexity 21,
    # DANE fundamentally more secure 17, no need for encryption 5.
    _assign(deployed, "deployment_bottleneck", {
        "operational-complexity": 21, "dane-better": 17,
        "no-need-encryption": 5})

    # Management (41): 8 found the HTTPS policy file challenging, 11
    # policy updates.
    _assign(deployed, "hardest_aspect", {
        "https-policy-file": 8, "policy-update": 11, "dns-records": 9,
        "smtp-pkix-cert": 7, "opt-out": 6})

    # Update sequence (42): 15 never updated; 10 update the TXT record
    # first (the risky order).
    _assign(deployed, "update_sequence", {
        "never-updated": 15, "txt-first": 10, "policy-first": 12,
        "dont-know": 5})

    # Policy-host management pages.
    _assign(deployed, "policy_host_management", {
        "outsourced": 18, "self-managed": 27})
    outsourced = [r for r in deployed
                  if r.get("policy_host_management") == "outsourced"]
    _assign(outsourced, "which_provider", {
        "Tutanota": 4, "DMARCReport": 3, "PowerDMARC": 3, "EasyDMARC": 2,
        "Mailhardener": 2, "URIports": 1, "OnDMARC": 1, "other": 2})
    _assign(outsourced, "smtp_management", {
        "outsourced": 11, "self-managed": 7})
    both_outsourced = [r for r in outsourced
                       if r.get("smtp_management") == "outsourced"]
    _assign(both_outsourced, "provider_manages_policy",
            {"yes": 6, "no": 5})

    # Page 10 (33 answered of the 38 non-deployers): 15 use DANE, 9
    # find MTA-STS too complicated to manage.
    _assign(not_deployed, "why_not_deployed", {
        "use-dane": 15, "too-complicated": 9, "do-not-need": 5,
        "do-not-understand": 2, "other": 2})
    _assign(not_deployed, "ever_used", {"yes": 7, "no": 24})

    # DANE familiarity (79 answered, 78 yes).
    dane_eligible = continuers
    _assign(dane_eligible, "heard_dane", {"yes": 78, "no": 1})
    dane_aware = [r for r in dane_eligible if r.get("heard_dane") == "yes"]

    # Of the DANE-aware: 26 serve no TLSA record; 10 lack DNSSEC
    # support at their authoritative server or registrar.
    _assign(dane_aware, "dane_no_tlsa", {"yes": 26, "no": 52})
    _assign(dane_aware, "dane_no_dnssec_support", {"yes": 10, "no": 55})

    # 51 of 70 (72.8%) judge DANE the superior design on security.
    _assign(dane_aware, "better_protocol", {
        "dane": 51, "mta-sts": 12, "balanced": 7})

    # Outbound validation (pages 13-15).
    _assign(continuers, "validates_outbound", {
        "yes": 24, "no": 40, "dont-know": 12})
    validators = [r for r in continuers
                  if r.get("validates_outbound") == "yes"]
    _assign(validators, "validation_tool", {
        "postfix-mta-sts-resolver": 11, "mox": 3, "proprietary": 6,
        "other": 4})
    _assign(validators, "validation_bottleneck", {
        "no-sender-incentive": 9, "low-deployment": 7,
        "cache-maintenance": 4, "low-awareness": 4})

    return respondents
