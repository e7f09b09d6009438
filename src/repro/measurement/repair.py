"""Remediation planning — the actionable half of the notifications.

The paper's disclosure campaign (§4.7) told operators *that* their
MTA-STS deployment was broken; this module derives *what to do about
it* from a scanned snapshot, producing prioritised
:class:`RepairAction` items per domain.  In the simulation the actions
are also executable: :func:`apply_repairs` performs the corresponding
infrastructure fixes on a deployed domain, closing the loop —
inject fault → scan → plan → apply → rescan clean.  That loop is the
strongest evidence the error taxonomy is faithful: every diagnosis
maps to a concrete, sufficient fix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.policy import Policy, render_policy
from repro.dns.name import levenshtein
from repro.dns.records import ARecord, RRType
from repro.ecosystem.deployment import DeployedDomain
from repro.ecosystem.world import World
from repro.measurement.snapshots import DomainSnapshot
from repro.netsim.network import TcpBehavior
from repro.web.server import HTTPS_PORT


@dataclass(frozen=True)
class RepairAction:
    """One concrete fix, ordered by priority (lower = more urgent)."""

    priority: int
    component: str        # record | policy-host | policy | mx
    action: str           # machine-readable verb
    description: str      # operator-facing instruction

    def render(self) -> str:
        return (f"{self.priority}. [{self.component}] {self.description}")


def plan_repairs(snap: DomainSnapshot) -> List[RepairAction]:
    """Derive the fix list for one scanned domain."""
    actions: List[RepairAction] = []
    if not snap.sts_like:
        return actions

    if not snap.record_valid:
        actions.append(RepairAction(
            1, "record", "fix-record",
            f"replace the _mta-sts TXT record with a valid one "
            f"(current: {snap.txt_strings!r}); the id must be 1-32 "
            f"alphanumeric characters and exactly one record may begin "
            f"with v=STSv1"))

    stage = snap.policy_fetch_stage
    if stage == "dns":
        actions.append(RepairAction(
            1, "policy-host", "publish-policy-host-dns",
            f"publish an A/AAAA or CNAME record for "
            f"mta-sts.{snap.domain}; the policy host does not resolve"))
    elif stage == "tcp":
        actions.append(RepairAction(
            1, "policy-host", "open-https-port",
            "start (or unfirewall) the web server on TCP 443 of the "
            "policy host"))
    elif stage == "tls":
        actions.append(RepairAction(
            1, "policy-host", "fix-policy-host-certificate",
            f"obtain a publicly trusted certificate covering "
            f"mta-sts.{snap.domain} "
            f"(current failure: {snap.policy_tls_failure})"))
    elif stage == "http":
        actions.append(RepairAction(
            1, "policy-host", "serve-policy-file",
            f"serve the policy at "
            f"https://mta-sts.{snap.domain}/.well-known/mta-sts.txt "
            f"with HTTP 200 (currently {snap.policy_http_status})"))
    elif stage == "policy-syntax":
        actions.append(RepairAction(
            1, "policy", "fix-policy-syntax",
            f"repair the policy body "
            f"(errors: {snap.policy_syntax_errors})"))

    invalid_mx = [o for o in snap.mx_tls_capable if not o.cert_valid]
    for observation in invalid_mx:
        actions.append(RepairAction(
            2, "mx", "fix-mx-certificate",
            f"install a PKIX-valid certificate covering "
            f"{observation.hostname} "
            f"(current: {observation.failure_class})"))

    if not snap.consistent:
        suggestion = _suggest_patterns(snap)
        actions.append(RepairAction(
            2, "policy", "sync-mx-patterns",
            f"update the policy's mx patterns {snap.mx_patterns} to "
            f"match the actual MX records; suggested: {suggestion}"))

    return sorted(actions, key=lambda a: (a.priority, a.component))


#: RFC 8460 result types → the repair verb that addresses them.  Keys
#: are the enum *values* so the mapping stays importable without the
#: reporting module.
_VERDICT_ACTIONS = {
    "sts-policy-invalid": (
        1, "policy", "fix-policy-syntax",
        "repair the policy body; senders report sts-policy-invalid"),
    "sts-policy-fetch-error": (
        1, "policy-host", "serve-policy-file",
        "serve the policy file over HTTPS; senders report "
        "sts-policy-fetch-error"),
    "sts-webpki-invalid": (
        1, "policy-host", "fix-policy-host-certificate",
        "obtain a publicly trusted certificate for the policy host; "
        "senders report sts-webpki-invalid"),
    "certificate-host-mismatch": (
        2, "mx", "fix-mx-certificate",
        "install a certificate covering the MX hostname; senders "
        "report certificate-host-mismatch"),
    "certificate-expired": (
        2, "mx", "fix-mx-certificate",
        "renew the MX certificate; senders report certificate-expired"),
    "certificate-not-trusted": (
        2, "mx", "fix-mx-certificate",
        "install a publicly trusted MX certificate; senders report "
        "certificate-not-trusted"),
    "validation-failure": (
        2, "mx", "fix-mx-certificate",
        "re-provision the MX TLS configuration; senders report "
        "validation-failure"),
    "starttls-not-supported": (
        2, "mx", "fix-mx-certificate",
        "enable STARTTLS (and install a valid certificate) on the MX; "
        "senders report starttls-not-supported"),
}


def plan_repairs_from_verdict(verdicts) -> List[RepairAction]:
    """Derive repair actions from a TLSRPT verdict feed.

    *verdicts* is an iterable of
    :class:`repro.obs.tlsrpt_monitor.TlsRptVerdict` (anything with
    ``policy_domain`` / ``result_type`` / ``failed_sessions``).  This
    is the report-triggered half of the repair loop: operators act on
    what senders *told* them failed, no rescan required.  Actions are
    deduplicated per (domain, verb) and sorted like
    :func:`plan_repairs` output.
    """
    seen = set()
    actions: List[RepairAction] = []
    for verdict in verdicts:
        template = _VERDICT_ACTIONS.get(verdict.result_type.value)
        if template is None:
            continue
        priority, component, verb, description = template
        key = (verdict.policy_domain, verb)
        if key in seen:
            continue
        seen.add(key)
        actions.append(RepairAction(
            priority, component, verb,
            f"{verdict.policy_domain}: {description} "
            f"({verdict.failed_sessions} failed session(s))"))
    return sorted(actions, key=lambda a: (a.priority, a.component,
                                          a.description))


def _suggest_patterns(snap: DomainSnapshot) -> List[str]:
    """Suggested replacement patterns: the actual MX records, with a
    typo-aware hint when a pattern is one small edit away."""
    suggestions = list(dict.fromkeys(snap.mx_hostnames))
    for pattern in snap.mx_patterns:
        bare = pattern[2:] if pattern.startswith("*.") else pattern
        for mx in snap.mx_hostnames:
            if 0 < levenshtein(bare, mx, cap=3) <= 3:
                return suggestions    # the fix is the corrected spelling
    return suggestions


# ---------------------------------------------------------------------------
# Applying repairs inside the simulation
# ---------------------------------------------------------------------------

def apply_repairs(world: World, deployed: DeployedDomain,
                  actions: List[RepairAction],
                  snap: Optional[DomainSnapshot] = None) -> List[str]:
    """Execute *actions* against the deployed domain's infrastructure.

    Returns the list of action verbs applied.  Unknown verbs are
    skipped (callers may carry provider-side actions the domain owner
    cannot perform).
    """
    applied: List[str] = []
    for action in actions:
        handler = _APPLIERS.get(action.action)
        if handler is None:
            continue
        handler(world, deployed)
        applied.append(action.action)
    return applied


def _fix_record(world: World, deployed: DeployedDomain) -> None:
    deployed.set_record(f"v=STSv1; id=repair{world.now().epoch_seconds};")


def _publish_policy_host_dns(world: World,
                             deployed: DeployedDomain) -> None:
    host = deployed.names(f"mta-sts.{deployed.domain}")
    deployed.zone.remove(host, RRType.A)
    deployed.zone.remove(host, RRType.CNAME)
    server = _policy_server(deployed)
    deployed.zone.add(ARecord(host, 3600, server.ip))


def _open_https_port(world: World, deployed: DeployedDomain) -> None:
    server = _policy_server(deployed)
    world.network.set_behavior(server.ip, HTTPS_PORT, TcpBehavior.ACCEPT)


def _fix_policy_host_certificate(world: World,
                                 deployed: DeployedDomain) -> None:
    server = _policy_server(deployed)
    host = f"mta-sts.{deployed.domain}"
    server.tls.install(host, world.issue_cert([host]))


def _serve_policy_file(world: World, deployed: DeployedDomain) -> None:
    _rewrite_policy(world, deployed)


def _fix_policy_syntax(world: World, deployed: DeployedDomain) -> None:
    _rewrite_policy(world, deployed)


def _sync_mx_patterns(world: World, deployed: DeployedDomain) -> None:
    _rewrite_policy(world, deployed)


def _rewrite_policy(world: World, deployed: DeployedDomain) -> None:
    """Publish a fresh policy whose patterns equal the actual MX set."""
    base = deployed.spec.effective_policy()
    patterns = tuple(deployed.mx_record_hostnames())
    policy = Policy(version="STSv1", mode=base.mode,
                    max_age=base.max_age, mx_patterns=patterns)
    deployed.set_policy_text(render_policy(policy))


def _fix_mx_certificate(world: World, deployed: DeployedDomain) -> None:
    for host in deployed.mx_hosts:
        certificate = host.tls.select_certificate(host.hostname)
        from repro.pki.validation import validate_chain
        verdict = validate_chain(certificate, host.hostname,
                                 world.trust_store, world.now())
        if not verdict.valid:
            host.tls.install(host.hostname,
                             world.issue_cert([host.hostname]),
                             default=True)


def _policy_server(deployed: DeployedDomain):
    if deployed.policy_server is not None:
        return deployed.policy_server
    provider = deployed.spec.policy_provider
    if provider is None or provider.web_server is None:
        raise ValueError(f"{deployed.domain}: no policy server to repair")
    return provider.web_server


_APPLIERS = {
    "fix-record": _fix_record,
    "publish-policy-host-dns": _publish_policy_host_dns,
    "open-https-port": _open_https_port,
    "fix-policy-host-certificate": _fix_policy_host_certificate,
    "serve-policy-file": _serve_policy_file,
    "fix-policy-syntax": _fix_policy_syntax,
    "sync-mx-patterns": _sync_mx_patterns,
    "fix-mx-certificate": _fix_mx_certificate,
}
