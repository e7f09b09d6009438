"""MTA-STS (RFC 8461): records, policies, validation, caching, sending.

This package is the paper's primary subject.  It is deliberately free
of simulation details: parsers and matchers are pure functions, and
the pipeline classes take transports (resolver, HTTPS client, SMTP
probe) as constructor arguments, so the same code runs against the
in-memory internet in :mod:`repro.netsim` or any real transport a
user supplies.
"""

from repro.core.record import StsRecord, parse_sts_record, evaluate_txt_rrset
from repro.core.policy import (
    Policy, PolicyMode, parse_policy, render_policy, check_policy_text,
)
from repro.core.matching import mx_pattern_matches, policy_covers_mx
from repro.core.fetch import PolicyFetcher, PolicyFetchResult
from repro.core.cache import PolicyCache, CachedPolicy
from repro.core.sender import MtaStsSender, SenderPolicyConfig
from repro.core.dane import TlsaVerdict, verify_dane, DaneValidator
from repro.core.tlsrpt import TlsRptRecord, parse_tlsrpt_record
from repro.core.lifecycle import (
    DeploymentPlan, RemovalPlan, plan_deployment, plan_removal,
    check_removal_sequence,
)
from repro.core.reporting import ReportCollector, ResultType
from repro.core.refresh import RefreshDaemon

__all__ = [
    "StsRecord", "parse_sts_record", "evaluate_txt_rrset",
    "Policy", "PolicyMode", "parse_policy", "render_policy",
    "check_policy_text",
    "mx_pattern_matches", "policy_covers_mx",
    "PolicyFetcher", "PolicyFetchResult",
    "PolicyCache", "CachedPolicy",
    "MtaStsSender", "SenderPolicyConfig",
    "TlsaVerdict", "verify_dane", "DaneValidator",
    "TlsRptRecord", "parse_tlsrpt_record",
    "DeploymentPlan", "RemovalPlan", "plan_deployment", "plan_removal",
    "check_removal_sequence",
    "ReportCollector", "ResultType", "RefreshDaemon",
]
