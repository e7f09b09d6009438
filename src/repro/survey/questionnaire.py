"""The Appendix-C questionnaire, with page flow and branching.

The survey is fifteen pages; several answers terminate the survey or
jump over pages (e.g. answering "No" to "Have you heard about
MTA-STS?" ends it; answering "No" to "Does your domain support
MTA-STS?" jumps to Page 10).  The model captures every question the
paper lists plus the branching rules, so the synthesizer can only
produce answer sets a real participant could have produced — the
denominators in §7.2 differ per question precisely because of this
flow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class QuestionKind(enum.Enum):
    SINGLE_CHOICE = "SCQ"
    MULTIPLE_CHOICE = "MCQ"
    YES_NO = "YN"
    TEXTBOX = "TB"
    GRID = "GS"
    LIKERT = "LS"


@dataclass(frozen=True)
class Question:
    qid: str
    page: int
    kind: QuestionKind
    text: str
    options: tuple = ()
    optional: bool = True


@dataclass
class BranchRule:
    """After *question*, an answer in *answers* jumps to *target_page*
    (None = end the survey)."""

    question: str
    answers: tuple
    target_page: Optional[int]


@dataclass
class Questionnaire:
    questions: List[Question] = field(default_factory=list)
    branches: List[BranchRule] = field(default_factory=list)
    last_page: int = 15

    def question(self, qid: str) -> Question:
        for q in self.questions:
            if q.qid == qid:
                return q
        raise KeyError(qid)

    def next_page(self, page: int,
                  answers: Dict[str, object]) -> Optional[int]:
        """The page after *page*, honouring branch rules (None = done)."""
        for rule in self.branches:
            question = self.question(rule.question)
            if question.page != page:
                continue
            answer = answers.get(rule.question)
            if answer in rule.answers:
                return rule.target_page
        nxt = page + 1
        return nxt if nxt <= self.last_page else None

    def walk(self, answers: Dict[str, object]) -> List[int]:
        """The sequence of pages a respondent with *answers* visits."""
        pages = []
        page: Optional[int] = 1
        while page is not None:
            pages.append(page)
            page = self.next_page(page, answers)
        return pages

    def reachable_questions(self, answers: Dict[str, object]) -> List[str]:
        pages = set(self.walk(answers))
        return [q.qid for q in self.questions if q.page in pages]


ACCOUNT_BUCKETS = ("<10", "10-100", "100-500", "500-1k", ">1k")

NOT_DEPLOYED_REASONS = (
    "do-not-understand", "do-not-need", "too-complicated", "use-dane",
    "other")

UPDATE_SEQUENCES = ("txt-first", "policy-first", "never-updated",
                    "dont-know")

POLICY_HOST_PROVIDERS = ("Tutanota", "URIports", "Mailhardener",
                         "PowerDMARC", "EasyDMARC", "OnDMARC",
                         "DMARCReport", "other")


def build_questionnaire() -> Questionnaire:
    """The full Appendix-C instrument."""
    q = Questionnaire()
    add = q.questions.append

    # Page 1: consent (mandatory; a "no" ends the survey).
    add(Question("consent_participate", 1, QuestionKind.YES_NO,
                 "I consent voluntarily to be a participant", optional=False))
    add(Question("consent_publication", 1, QuestionKind.YES_NO,
                 "Information I provide may be used for publications",
                 optional=False))

    # Page 2: basics.
    add(Question("organization", 2, QuestionKind.TEXTBOX,
                 "Name of the organization"))
    add(Question("domain", 2, QuestionKind.TEXTBOX,
                 "Main domain name"))
    add(Question("account_count", 2, QuestionKind.SINGLE_CHOICE,
                 "How many email accounts exist under your infrastructure?",
                 options=ACCOUNT_BUCKETS))

    # Page 3/4: MTA-STS checks.
    add(Question("heard_mta_sts", 3, QuestionKind.YES_NO,
                 "Have you heard about MTA-STS?"))
    add(Question("deployed_mta_sts", 4, QuestionKind.YES_NO,
                 "Does your domain support MTA-STS?"))

    # Page 5: deployment for inbound email.
    add(Question("deploy_valid_components", 5, QuestionKind.GRID,
                 "Select the best option for each statement",
                 options=("record", "policy", "consistency", "starttls",
                          "pkix-some", "pkix-all")))
    add(Question("why_adopt", 5, QuestionKind.LIKERT,
                 "Why did you adopt MTA-STS?",
                 options=("prevent-downgrade", "trust-web-pki",
                          "testing-mode", "dane-harder")))
    add(Question("why_operators_roll_out", 5, QuestionKind.LIKERT,
                 "Why do operators roll out MTA-STS?",
                 options=("customers-asked", "regulation", "curiosity",
                          "google-acceptance", "tech-pulse")))
    add(Question("deployment_bottleneck", 5, QuestionKind.LIKERT,
                 "Largest bottleneck for MTA-STS deployment?",
                 options=("operational-complexity", "dane-better",
                          "no-need-encryption")))

    # Page 6: misconfigurations.
    add(Question("setting_valid", 6, QuestionKind.SINGLE_CHOICE,
                 "Is the MTA-STS setting of your domain valid?",
                 options=("yes", "no", "dont-know")))
    add(Question("hardest_aspect", 6, QuestionKind.LIKERT,
                 "Most difficult thing in setting up/managing MTA-STS?",
                 options=("dns-records", "https-policy-file",
                          "smtp-pkix-cert", "policy-update", "opt-out")))
    add(Question("invalid_config_reason", 6, QuestionKind.LIKERT,
                 "Main reason behind invalid MTA-STS configurations?",
                 options=("policy-dns-dependency", "smtp-server-error",
                          "https-policy-error", "dns-error")))
    add(Question("update_sequence", 6, QuestionKind.SINGLE_CHOICE,
                 "While updating your policy, which sequence?",
                 options=UPDATE_SEQUENCES))

    # Page 7-9: policy host management.
    add(Question("policy_host_management", 7, QuestionKind.SINGLE_CHOICE,
                 "How do you manage your MTA-STS policy host?",
                 options=("outsourced", "self-managed")))
    add(Question("which_provider", 8, QuestionKind.SINGLE_CHOICE,
                 "Which 3rd-party policy host service?",
                 options=POLICY_HOST_PROVIDERS))
    add(Question("hosted_reduces_complexity", 8, QuestionKind.LIKERT,
                 "Hosted MTA-STS reduces operational complexity",
                 options=("agree-scale",)))
    add(Question("smtp_management", 8, QuestionKind.SINGLE_CHOICE,
                 "How do you manage your incoming SMTP server?",
                 options=("outsourced", "self-managed")))
    add(Question("provider_manages_policy", 9, QuestionKind.YES_NO,
                 "Does your email hosting provider manage your policy?"))

    # Page 10: not deployed.
    add(Question("why_not_deployed", 10, QuestionKind.SINGLE_CHOICE,
                 "Why do you NOT deploy MTA-STS?",
                 options=NOT_DEPLOYED_REASONS))
    add(Question("ever_used", 10, QuestionKind.YES_NO,
                 "Have you ever used MTA-STS?"))

    # Page 11-12: DANE.
    add(Question("heard_dane", 11, QuestionKind.YES_NO,
                 "Have you heard about DANE?"))
    add(Question("dane_support", 12, QuestionKind.GRID,
                 "Does your email server support DANE for inbound email?",
                 options=("tlsa-record", "starttls", "dnssec-support",
                          "tlsa-consistent")))
    add(Question("better_protocol", 12, QuestionKind.LIKERT,
                 "Which protocol is better for mandating encryption?",
                 options=("easier-deploy", "fewer-requirements",
                          "easier-maintain", "higher-security",
                          "higher-benefit", "lower-cost")))

    # Page 13-15: outbound validation.
    add(Question("validates_outbound", 13, QuestionKind.SINGLE_CHOICE,
                 "Does your server validate MTA-STS for outbound?",
                 options=("yes", "no", "dont-know")))
    add(Question("validation_tool", 14, QuestionKind.SINGLE_CHOICE,
                 "Which tool validates MTA-STS outbound?",
                 options=("postfix-mta-sts-resolver", "mox",
                          "proprietary", "other")))
    add(Question("validation_bottleneck", 15, QuestionKind.LIKERT,
                 "Major bottleneck behind lack of validation support?",
                 options=("no-sender-incentive", "cache-maintenance",
                          "low-deployment", "low-awareness")))

    q.branches = [
        BranchRule("consent_participate", ("no",), None),
        BranchRule("consent_publication", ("no",), None),
        BranchRule("heard_mta_sts", ("no",), None),
        BranchRule("deployed_mta_sts", ("no",), 10),
        BranchRule("policy_host_management", ("self-managed",), 11),
        BranchRule("smtp_management", ("self-managed",), 11),
        # Page 9 and Page 10 both flow into the DANE pages; Page 10 is
        # only ever *entered* through the deployed=no branch.
        BranchRule("provider_manages_policy", ("yes", "no"), 11),
        BranchRule("heard_dane", ("no",), 13),
        BranchRule("validates_outbound", ("no", "dont-know"), None),
    ]
    return q
