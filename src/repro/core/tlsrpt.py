"""SMTP TLS Reporting records and reports (RFC 8460; paper Appendix B).

A domain's TLSRPT policy lives in a TXT record at
``_smtp._tls.<domain>``:

    _smtp._tls.example.com IN TXT "v=TLSRPTv1; rua=mailto:tls@example.com"

The paper tracks TLSRPT adoption alongside MTA-STS (Figure 12); the
parser here validates the two fields the standard defines (``v`` and
``rua``, a comma-separated list of ``mailto:`` or ``https:`` URIs).

This module also carries the RFC 8460 §4 report data model —
:class:`FailureDetail`, :class:`PolicySummary`, :class:`TlsRptReport` —
used by the sending side (`repro.core.reporting`) and the delivery
campaign's TLSRPT pipeline.  Reports render to JSON two ways:
:meth:`TlsRptReport.to_json` (indented, human-facing) and
:meth:`TlsRptReport.to_canonical_json` (compact, sorted keys) — the
latter is the byte-identity surface two runs of one delivery campaign
must agree on.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.clock import Instant
from repro.dns.name import DnsName, canonical_host
from repro.dns.records import RRType, TxtRecord
from repro.dns.resolver import Resolver
from repro.errors import DnsError

_MAILTO_RE = re.compile(r"^mailto:[^@\s,!]+@[a-z0-9.-]+$", re.IGNORECASE)
_HTTPS_RE = re.compile(r"^https://\S+$", re.IGNORECASE)


@dataclass(frozen=True)
class TlsRptRecord:
    """A parsed TLSRPT record."""

    version: str
    rua: Tuple[str, ...]

    def render(self) -> str:
        return f"v={self.version}; rua={','.join(self.rua)}"


def parse_tlsrpt_record(text: str) -> Optional[TlsRptRecord]:
    """Parse one TXT string; returns None when invalid.

    Validity rules: must begin with ``v=TLSRPTv1``, must contain a
    ``rua`` field whose every URI is a well-formed ``mailto:`` or
    ``https:`` endpoint.
    """
    stripped = text.strip()
    if not stripped.startswith("v=TLSRPTv1"):
        return None
    rua: List[str] = []
    fields = [f.strip() for f in stripped.split(";") if f.strip()]
    if not fields or fields[0] != "v=TLSRPTv1":
        return None
    seen_rua = False
    for chunk in fields[1:]:
        key, _, value = chunk.partition("=")
        if key.strip().lower() != "rua":
            continue
        seen_rua = True
        for uri in value.split(","):
            uri = uri.strip()
            if not (_MAILTO_RE.match(uri) or _HTTPS_RE.match(uri)):
                return None
            rua.append(uri)
    if not seen_rua or not rua:
        return None
    return TlsRptRecord("TLSRPTv1", tuple(rua))


def lookup_tlsrpt(resolver: Resolver,
                  domain: str | DnsName) -> Optional[TlsRptRecord]:
    """Fetch and parse the TLSRPT record of *domain* (None if absent)."""
    domain_text = canonical_host(domain)
    try:
        # İ-style inputs casefold to non-LDH labels no zone can hold —
        # such a domain cannot publish a record, so the answer is
        # "absent", not a crash.
        name = DnsName.parse(f"_smtp._tls.{domain_text}")
    except ValueError:
        return None
    try:
        answer = resolver.resolve(name, RRType.TXT)
    except DnsError:
        return None
    candidates = [r.text for r in answer.records if isinstance(r, TxtRecord)]
    sts_like = [t for t in candidates if t.strip().startswith("v=TLSRPTv1")]
    if len(sts_like) != 1:
        return None
    return parse_tlsrpt_record(sts_like[0])


# ---------------------------------------------------------------------------
# The RFC 8460 §4 report data model
# ---------------------------------------------------------------------------

class ResultType(enum.Enum):
    """RFC 8460 §4.3 result types (the subset MTA-STS senders emit)."""

    STARTTLS_NOT_SUPPORTED = "starttls-not-supported"
    CERTIFICATE_HOST_MISMATCH = "certificate-host-mismatch"
    CERTIFICATE_EXPIRED = "certificate-expired"
    CERTIFICATE_NOT_TRUSTED = "certificate-not-trusted"
    VALIDATION_FAILURE = "validation-failure"
    STS_POLICY_FETCH_ERROR = "sts-policy-fetch-error"
    STS_POLICY_INVALID = "sts-policy-invalid"
    STS_WEBPKI_INVALID = "sts-webpki-invalid"


@dataclass
class FailureDetail:
    """One failure class observed against one receiving MX."""

    result_type: ResultType
    receiving_mx_hostname: str = ""
    failed_session_count: int = 0
    additional_info: str = ""

    def to_json_dict(self) -> dict:
        out = {"result-type": self.result_type.value,
               "failed-session-count": self.failed_session_count}
        if self.receiving_mx_hostname:
            out["receiving-mx-hostname"] = self.receiving_mx_hostname
        if self.additional_info:
            out["additional-information"] = self.additional_info
        return out


@dataclass
class PolicySummary:
    """Per-policy result block (RFC 8460 §4.4)."""

    policy_type: str                  # "sts" | "tlsa" | "no-policy-found"
    policy_domain: str
    policy_strings: Tuple[str, ...] = ()
    total_successful_sessions: int = 0
    total_failed_sessions: int = 0
    failure_details: List[FailureDetail] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "policy": {
                "policy-type": self.policy_type,
                "policy-domain": self.policy_domain,
                "policy-string": list(self.policy_strings),
            },
            "summary": {
                "total-successful-session-count":
                    self.total_successful_sessions,
                "total-failure-session-count": self.total_failed_sessions,
            },
            "failure-details": [d.to_json_dict()
                                for d in self.failure_details],
        }


@dataclass
class TlsRptReport:
    """A complete RFC 8460 report for one (sender, recipient, day)."""

    organization_name: str
    contact_info: str
    report_id: str
    window_start: Instant
    window_end: Instant
    policies: List[PolicySummary] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "organization-name": self.organization_name,
            "date-range": {
                "start-datetime": str(self.window_start),
                "end-datetime": str(self.window_end),
            },
            "contact-info": self.contact_info,
            "report-id": self.report_id,
            "policies": [p.to_json_dict() for p in self.policies],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_canonical_json(self) -> str:
        """Compact sorted-key rendering — the byte-identity surface of
        the delivery campaign's report artifacts."""
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"))

    @property
    def policy_domain(self) -> str:
        """The (first) recipient policy domain this report covers."""
        return self.policies[0].policy_domain if self.policies else ""

    @classmethod
    def from_json(cls, text: str) -> "TlsRptReport":
        data = json.loads(text)
        policies = []
        for block in data.get("policies", []):
            policy = block["policy"]
            summary = block["summary"]
            details = [
                FailureDetail(
                    result_type=ResultType(d["result-type"]),
                    receiving_mx_hostname=d.get("receiving-mx-hostname", ""),
                    failed_session_count=d["failed-session-count"],
                    additional_info=d.get("additional-information", ""))
                for d in block.get("failure-details", [])]
            policies.append(PolicySummary(
                policy_type=policy["policy-type"],
                policy_domain=policy["policy-domain"],
                policy_strings=tuple(policy.get("policy-string", ())),
                total_successful_sessions=summary[
                    "total-successful-session-count"],
                total_failed_sessions=summary[
                    "total-failure-session-count"],
                failure_details=details))
        return cls(
            organization_name=data["organization-name"],
            contact_info=data["contact-info"],
            report_id=data["report-id"],
            window_start=Instant.parse(
                data["date-range"]["start-datetime"].rstrip("Z")),
            window_end=Instant.parse(
                data["date-range"]["end-datetime"].rstrip("Z")),
            policies=policies)
