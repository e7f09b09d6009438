"""Offline MTA-STS assessment from zone files and policy text.

The library's scanner normally drives live (simulated) transports, but
the parsing/validation core is pure — this module packages it as an
offline linter a domain operator can run against the artefacts they
actually control: their zone file and their policy file.  It checks
everything checkable without a network:

* the ``_mta-sts`` TXT record's syntax and uniqueness (§4.3.2);
* the policy body's syntax (§4.3.3);
* the presence of the ``mta-sts`` policy-host A/CNAME record;
* consistency between the policy's ``mx`` patterns and the zone's MX
  records, with the Figure-8 mismatch classification;
* enforce-mode delivery-failure exposure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.matching import (
    policy_covers_mx, uncovered_mx_hosts, unused_patterns,
)
from repro.core.policy import Policy, PolicyMode, check_policy_text
from repro.core.record import evaluate_txt_rrset
from repro.dns.name import DnsName, canonical_host
from repro.dns.records import MxRecord, RRType, TxtRecord
from repro.dns.zone import Zone, parse_master_file
from repro.errors import MismatchClass
from repro.measurement.inconsistency import classify_mismatch


@dataclass
class OfflineFinding:
    """One issue found by the offline assessment."""

    severity: str          # "error" | "warning" | "info"
    component: str         # "record" | "policy-host" | "policy" | "mx"
    message: str

    def render(self) -> str:
        return f"[{self.severity:<7}] {self.component:<12} {self.message}"


@dataclass
class OfflineAssessment:
    """The full offline verdict for one domain."""

    domain: str
    findings: List[OfflineFinding] = field(default_factory=list)
    record_valid: bool = False
    policy: Optional[Policy] = None
    mx_hostnames: List[str] = field(default_factory=list)
    consistent: Optional[bool] = None
    mismatch_class: Optional[MismatchClass] = None

    @property
    def errors(self) -> List[OfflineFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def add(self, severity: str, component: str, message: str) -> None:
        self.findings.append(OfflineFinding(severity, component, message))


def assess_zone(zone_text: str, domain: str,
                policy_text: Optional[str] = None,
                *, origin: Optional[str] = None) -> OfflineAssessment:
    """Assess *domain*'s MTA-STS posture from its zone file.

    *policy_text*, when given, is the content the operator intends to
    serve at the well-known URI; without it only DNS-side checks run.
    """
    domain = canonical_host(domain)
    assessment = OfflineAssessment(domain=domain)
    try:
        zone = parse_master_file(zone_text, origin=origin or domain)
    except ValueError as exc:
        assessment.add("error", "record", f"zone file unparseable: {exc}")
        return assessment
    apex = DnsName.parse(domain)
    if not apex.is_subdomain_of(zone.apex):
        assessment.add("error", "record",
                       f"{domain} is not inside zone {zone.apex.text}")
        return assessment

    _check_record(zone, apex, assessment)
    _check_policy_host(zone, apex, assessment)
    _collect_mx(zone, apex, assessment)
    if policy_text is not None:
        _check_policy(policy_text, assessment)
    return assessment


def _check_record(zone: Zone, apex: DnsName,
                  assessment: OfflineAssessment) -> None:
    label = apex.child("_mta-sts")
    texts = [r.text for r in zone.lookup(label, RRType.TXT)
             if isinstance(r, TxtRecord)]
    evaluation = evaluate_txt_rrset(texts)
    if not evaluation.signals_sts:
        assessment.add("error", "record",
                       f"no MTA-STS TXT record at {label.text}")
        return
    if evaluation.valid:
        assessment.record_valid = True
        assessment.add("info", "record",
                       f"valid record: {texts[0]!r}")
    else:
        assessment.add("error", "record",
                       f"{evaluation.error.value}: {evaluation.detail}")


def _check_policy_host(zone: Zone, apex: DnsName,
                       assessment: OfflineAssessment) -> None:
    host = apex.child("mta-sts")
    has_a = bool(zone.lookup(host, RRType.A)) or \
        bool(zone.lookup(host, RRType.AAAA))
    cname = zone.cname_at(host)
    if cname is not None:
        assessment.add("info", "policy-host",
                       f"delegated via CNAME to {cname.target.text} — "
                       f"keep the hosted policy in sync with your MX "
                       f"records (§4.5)")
    elif has_a:
        assessment.add("info", "policy-host",
                       f"self-hosted at {host.text}; the web server "
                       f"must present a certificate covering that name")
    else:
        assessment.add("error", "policy-host",
                       f"no A/AAAA/CNAME record at {host.text}; policy "
                       f"retrieval will fail at the DNS stage")


def _collect_mx(zone: Zone, apex: DnsName,
                assessment: OfflineAssessment) -> None:
    records = sorted(
        (r for r in zone.lookup(apex, RRType.MX)
         if isinstance(r, MxRecord)),
        key=lambda r: (r.preference, r.exchange.text))
    assessment.mx_hostnames = [r.exchange.text for r in records]
    if not records:
        if zone.lookup(apex, RRType.A):
            assessment.add("warning", "mx",
                           "no MX records; the apex A record acts as an "
                           "implicit MX")
            assessment.mx_hostnames = [apex.text]
        else:
            assessment.add("error", "mx",
                           "no MX and no apex A record: the domain "
                           "cannot receive mail")


def _check_policy(policy_text: str, assessment: OfflineAssessment) -> None:
    check = check_policy_text(policy_text)
    for kind, detail in zip(check.errors, check.details):
        assessment.add("error", "policy", f"{kind.value}: {detail}")
    if check.policy is None:
        return
    assessment.policy = check.policy
    policy = check.policy
    assessment.add("info", "policy",
                   f"mode={policy.mode.value} max_age={policy.max_age} "
                   f"mx={list(policy.mx_patterns)}")

    if not assessment.mx_hostnames or not policy.mx_patterns:
        return
    covered = any(policy_covers_mx(policy, mx)
                  for mx in assessment.mx_hostnames)
    assessment.consistent = covered
    if covered:
        stale = unused_patterns(policy, assessment.mx_hostnames)
        if stale:
            assessment.add("warning", "policy",
                           f"patterns matching no current MX record "
                           f"(stale after a migration?): {stale}")
        uncovered = uncovered_mx_hosts(policy, assessment.mx_hostnames)
        if uncovered:
            assessment.add("warning", "policy",
                           f"MX hosts not covered by any pattern: "
                           f"{uncovered} — senders will skip them")
        return

    verdict = classify_mismatch(policy.mx_patterns,
                                assessment.mx_hostnames)
    assessment.mismatch_class = verdict.mismatch_class
    severity = ("error" if policy.mode is PolicyMode.ENFORCE
                else "warning")
    assessment.add(severity, "policy",
                   f"no MX record matches any mx pattern "
                   f"({verdict.mismatch_class.value}: {verdict.evidence})")
    if policy.mode is PolicyMode.ENFORCE:
        assessment.add("error", "policy",
                       "mode is enforce: MTA-STS-compliant senders "
                       "will refuse to deliver (the paper's §4.4 "
                       "delivery-failure class)")
