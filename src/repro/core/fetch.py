"""MTA-STS discovery and policy retrieval (RFC 8461 §3.3).

:class:`PolicyFetcher` composes the DNS record check with the staged
HTTPS fetch and the lenient policy parse, producing a single
:class:`PolicyFetchResult` that records where, if anywhere, the chain
broke.  The result's ``failed_stage`` uses the same
:class:`~repro.errors.PolicyFetchStage` axis as Figure 5, and its
``record_error`` covers Figure 4's "DNS Records" category.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro import trace
from repro.core.policy import Policy, PolicyCheck, check_policy_text
from repro.core.record import StsRecord, TxtRrsetEvaluation, evaluate_txt_rrset
from repro.dns.name import DnsName, canonical_host
from repro.dns.records import RRType, TxtRecord
from repro.dns.resolver import Resolver
from repro.errors import (
    DnsError, NoData, NxDomain, PolicyFetchStage, StsRecordError, TlsFailure,
)
from repro.web.client import FetchOutcome, HttpsClient
from repro.web.server import WELL_KNOWN_STS_PATH


@dataclass
class PolicyFetchResult:
    """Everything learned while discovering and fetching one policy."""

    domain: str
    # DNS record stage
    txt_strings: List[str] = field(default_factory=list)
    record_eval: Optional[TxtRrsetEvaluation] = None
    dns_lookup_error: str = ""
    #: The ``_mta-sts`` TXT lookup failed on a fault-injected transient
    #: error (retry budget exhausted) — the record's absence is noise,
    #: not evidence about the domain's deployment.
    dns_transient: bool = False
    # HTTPS stage
    fetch: Optional[FetchOutcome] = None
    policy_host_cname: Optional[str] = None
    # Policy body stage
    policy_check: Optional[PolicyCheck] = None

    @property
    def sts_enabled(self) -> bool:
        """The domain publishes something at ``_mta-sts`` that looks STS."""
        return self.record_eval is not None and self.record_eval.signals_sts

    @property
    def record(self) -> Optional[StsRecord]:
        if self.record_eval is None:
            return None
        return self.record_eval.record

    @property
    def record_error(self) -> Optional[StsRecordError]:
        if self.record_eval is None or self.record_eval.valid:
            return None
        return self.record_eval.error

    @property
    def policy(self) -> Optional[Policy]:
        if self.policy_check is None:
            return None
        return self.policy_check.policy

    @property
    def failed_stage(self) -> Optional[PolicyFetchStage]:
        """Where retrieval failed, on Figure 5's axis (None = success)."""
        if self.fetch is None:
            return PolicyFetchStage.DNS if self.sts_enabled else None
        if self.fetch.failed_stage is not None:
            return self.fetch.failed_stage
        if self.policy_check is not None and not self.policy_check.valid:
            return PolicyFetchStage.SYNTAX
        return None

    @property
    def transient(self) -> bool:
        """Any stage died on a retry-exhausted injected fault."""
        return (self.dns_transient
                or (self.fetch is not None and self.fetch.transient))

    @property
    def tls_failure(self) -> Optional[TlsFailure]:
        return self.fetch.tls_failure if self.fetch is not None else None

    @property
    def fully_valid(self) -> bool:
        return (self.record is not None
                and self.policy is not None
                and self.failed_stage is None)


class PolicyFetcher:
    """Discovers and fetches MTA-STS policies for domains."""

    def __init__(self, resolver: Resolver, https_client: HttpsClient):
        self._resolver = resolver
        self._https = https_client
        #: Full discovery pipelines run (record lookup + HTTPS fetch);
        #: surfaced by the scan instrumentation (``ScanStats``).
        self.fetch_count = 0

    def lookup_record(self, domain: str | DnsName) -> PolicyFetchResult:
        """Stage 1 only: the ``_mta-sts`` TXT lookup and evaluation."""
        domain_text = canonical_host(domain)
        result = PolicyFetchResult(domain=domain_text)
        label = self._resolver.name(f"_mta-sts.{domain_text}")
        try:
            answer = self._resolver.resolve(label, RRType.TXT)
        except (NxDomain, NoData) as exc:
            result.record_eval = evaluate_txt_rrset([])
            result.dns_lookup_error = str(exc)
            if trace.TRACING:
                trace.event("sts-record", outcome=str(exc))
            return result
        except DnsError as exc:
            result.record_eval = evaluate_txt_rrset([])
            result.dns_lookup_error = str(exc)
            result.dns_transient = getattr(exc, "transient", False)
            if trace.TRACING:
                trace.event("sts-record", outcome=str(exc),
                            transient=result.dns_transient)
            return result
        result.txt_strings = [
            r.text for r in answer.records if isinstance(r, TxtRecord)]
        result.record_eval = evaluate_txt_rrset(result.txt_strings)
        evaluation = result.record_eval
        if trace.TRACING:
            trace.event(
                "sts-record",
                outcome="valid" if evaluation.valid
                else (evaluation.error.value if evaluation.error
                      else "invalid"),
                signals_sts=evaluation.signals_sts)
        return result

    def fetch_policy(self, domain: str | DnsName) -> PolicyFetchResult:
        """The full discovery pipeline: TXT record, HTTPS fetch, parse.

        Discovery stops when no ``_mta-sts`` TXT record signals
        MTA-STS.  A record that signals it but is malformed still leads
        to the HTTPS fetch, as in the paper's scanner, so every
        component's health is measured independently.
        """
        self.fetch_count += 1
        result = self.lookup_record(domain)
        if not result.sts_enabled:
            return result

        policy_host = f"mta-sts.{result.domain}"
        cname = self._resolver.try_resolve(policy_host, RRType.CNAME)
        if cname is not None and cname.records:
            result.policy_host_cname = cname.records[0].target.text  # type: ignore[attr-defined]
        else:
            # The client follows CNAME chains during address resolution
            # anyway; record the delegation target if the A lookup
            # traversed one.
            answer = self._resolver.try_resolve(policy_host, RRType.A)
            if answer is not None and answer.cname_chain:
                result.policy_host_cname = answer.cname_chain[0].target.text
        if result.policy_host_cname and trace.TRACING:
            trace.event("policy-host-cname",
                        target=result.policy_host_cname)

        result.fetch = self._https.fetch(policy_host, WELL_KNOWN_STS_PATH)
        if result.fetch.ok and result.fetch.body is not None:
            result.policy_check = check_policy_text(result.fetch.body)
        return result
