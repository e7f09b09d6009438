"""The misconfiguration injector.

Every error class the paper observes in the wild (Figures 4-8) exists
here as a :class:`Fault` that :func:`apply_fault` can inject into a
deployed domain.  Faults mutate real simulated infrastructure — they
break the DNS record text, swap certificates, close ports, corrupt
policy bodies, or desynchronise mx patterns — so the scanner
*discovers* them the same way the paper's scanner did, rather than
being told about them.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.policy import Policy, render_policy
from repro.dns.records import ARecord, RRType, TxtRecord
from repro.ecosystem.deployment import DeployedDomain
from repro.ecosystem.world import World
from repro.netsim.network import TcpBehavior
from repro.pki.certificate import CertTemplate, make_self_signed
from repro.web.server import HTTPS_PORT


class Fault(enum.Enum):
    # -- DNS record faults (Figure 4 "DNS Records", §4.3.2) ---------------
    RECORD_MISSING_ID = "record-missing-id"
    RECORD_INVALID_ID = "record-invalid-id"
    RECORD_BAD_VERSION = "record-bad-version"
    RECORD_INVALID_EXTENSION = "record-invalid-extension"
    RECORD_DUPLICATE = "record-duplicate"

    # -- policy retrieval faults (Figure 5) ------------------------------
    POLICY_DNS_UNRESOLVABLE = "policy-dns-unresolvable"
    POLICY_TCP_CLOSED = "policy-tcp-closed"
    POLICY_TCP_TIMEOUT = "policy-tcp-timeout"
    POLICY_TLS_CN_MISMATCH = "policy-tls-cn-mismatch"
    POLICY_TLS_SELF_SIGNED = "policy-tls-self-signed"
    POLICY_TLS_EXPIRED = "policy-tls-expired"
    POLICY_TLS_NO_CERT = "policy-tls-no-cert"          # SSL alert class
    POLICY_HTTP_404 = "policy-http-404"
    POLICY_HTTP_500 = "policy-http-500"
    POLICY_SYNTAX_BAD_MX = "policy-syntax-bad-mx"
    POLICY_SYNTAX_EMPTY = "policy-syntax-empty"
    POLICY_SYNTAX_MISSING_MODE = "policy-syntax-missing-mode"

    # -- MX certificate faults (Figures 6/7) --------------------------------
    MX_CERT_CN_MISMATCH = "mx-cert-cn-mismatch"
    MX_CERT_SELF_SIGNED = "mx-cert-self-signed"
    MX_CERT_EXPIRED = "mx-cert-expired"

    # -- inconsistency faults (Figure 8) -------------------------------------
    MISMATCH_TLD = "mismatch-tld"
    MISMATCH_DOMAIN = "mismatch-domain"
    MISMATCH_3LD = "mismatch-3ld"
    MISMATCH_TYPO = "mismatch-typo"
    OUTDATED_POLICY = "outdated-policy"      # MX migrated, policy did not


#: Faults that make policy retrieval fail entirely, so no policy syntax
#: or inconsistency can be layered on top of them.
RETRIEVAL_BLOCKING = frozenset({
    Fault.POLICY_DNS_UNRESOLVABLE, Fault.POLICY_TCP_CLOSED,
    Fault.POLICY_TCP_TIMEOUT, Fault.POLICY_TLS_CN_MISMATCH,
    Fault.POLICY_TLS_SELF_SIGNED, Fault.POLICY_TLS_EXPIRED,
    Fault.POLICY_TLS_NO_CERT, Fault.POLICY_HTTP_404, Fault.POLICY_HTTP_500,
})


def apply_fault(world: World, deployed: DeployedDomain, fault: Fault,
                *, mx_index: Optional[int] = 0) -> None:
    """Inject *fault* into *deployed*.

    ``mx_index`` selects which MX host an MX-certificate fault targets
    (``None`` hits every MX, producing Figure 7's "all invalid" class).
    """
    _HANDLERS[fault](world, deployed, mx_index)


# ---------------------------------------------------------------------------
# DNS record faults
# ---------------------------------------------------------------------------

def _record_missing_id(world, deployed, _):
    deployed.set_record("v=STSv1;")


def _record_invalid_id(world, deployed, _):
    # The paper: 61% of broken records carry an id the RFC forbids,
    # typically including '-'.
    deployed.set_record("v=STSv1; id=2024-01-01;")


def _record_bad_version(world, deployed, _):
    deployed.set_record(f"v=STS1; id={deployed.spec.record_id};")


def _record_invalid_extension(world, deployed, _):
    # The in-the-wild example quoted in §4.3.2.
    deployed.set_record("v=STSv1; id=1; mx: a.com; mode: testing;")


def _record_duplicate(world, deployed, _):
    name = deployed.names(f"_mta-sts.{deployed.domain}")
    deployed.zone.add(TxtRecord(name, 300, "v=STSv1; id=duplicate2;"))


# ---------------------------------------------------------------------------
# Policy retrieval faults
# ---------------------------------------------------------------------------

def _policy_dns_unresolvable(world, deployed, _):
    name = deployed.names(f"mta-sts.{deployed.domain}")
    deployed.zone.remove(name, RRType.A)
    deployed.zone.remove(name, RRType.CNAME)


def _policy_tcp(behavior: TcpBehavior):
    def inject(world, deployed, _):
        server = _policy_web_server(deployed)
        world.network.set_behavior(server.ip, HTTPS_PORT, behavior)
    return inject


def _policy_tls_cn_mismatch(world, deployed, _):
    # The certificate served for mta-sts.<domain> only covers the bare
    # domain — the dominant self-managed failure (94.5% of TLS errors).
    server = _policy_web_server(deployed)
    wrong = world.issue_cert([deployed.domain, f"www.{deployed.domain}"])
    host = f"mta-sts.{deployed.domain}"
    server.tls.uninstall(host)
    server.tls.install(host, wrong)


def _policy_tls_self_signed(world, deployed, _):
    server = _policy_web_server(deployed)
    host = f"mta-sts.{deployed.domain}"
    cert = make_self_signed(CertTemplate([host]), world.now())
    server.tls.install(host, cert)


def _policy_tls_expired(world, deployed, _):
    server = _policy_web_server(deployed)
    host = f"mta-sts.{deployed.domain}"
    cert = world.issue_cert([host], lifetime_days=90, backdate_days=120)
    server.tls.install(host, cert)


def _policy_tls_no_cert(world, deployed, _):
    server = _policy_web_server(deployed)
    server.tls.alert_for(f"mta-sts.{deployed.domain}")


def _policy_http_404(world, deployed, _):
    server = _policy_web_server(deployed)
    server.unhost_policy(deployed.domain)


def _policy_http_500(world, deployed, _):
    server = _policy_web_server(deployed)
    server.host_policy(deployed.domain, "internal error", status=500)


def _policy_syntax_bad_mx(world, deployed, _):
    # §4.3.3: 64% of syntax errors are invalid mx patterns — email
    # addresses, trailing dots, empty patterns.
    deployed.set_policy_text(
        "version: STSv1\r\nmode: testing\r\n"
        "mx: postmaster@" + deployed.domain + "\r\nmax_age: 604800\r\n")


def _policy_syntax_empty(world, deployed, _):
    deployed.set_policy_text("")


def _policy_syntax_missing_mode(world, deployed, _):
    mx_lines = "".join(f"mx: {m}\r\n" for m in deployed.spec.intended_mx())
    deployed.set_policy_text(
        "version: STSv1\r\n" + mx_lines + "max_age: 604800\r\n")


# ---------------------------------------------------------------------------
# MX certificate faults
# ---------------------------------------------------------------------------

def _mx_targets(deployed: DeployedDomain, mx_index: Optional[int]):
    hosts = deployed.mx_hosts
    if not hosts:
        return []
    if mx_index is None:
        return hosts
    return [hosts[mx_index % len(hosts)]]


def _mx_cert_cn_mismatch(world, deployed, mx_index):
    for host in _mx_targets(deployed, mx_index):
        wrong = world.issue_cert([f"legacy.{deployed.domain}"])
        host.tls.install(host.hostname, wrong, default=True)


def _mx_cert_self_signed(world, deployed, mx_index):
    for host in _mx_targets(deployed, mx_index):
        cert = make_self_signed(CertTemplate([host.hostname]), world.now())
        host.tls.install(host.hostname, cert, default=True)


def _mx_cert_expired(world, deployed, mx_index):
    for host in _mx_targets(deployed, mx_index):
        cert = world.issue_cert([host.hostname], lifetime_days=90,
                                backdate_days=150)
        host.tls.install(host.hostname, cert, default=True)


# ---------------------------------------------------------------------------
# Inconsistency faults — rewrite the policy's mx patterns
# ---------------------------------------------------------------------------

def _set_patterns(deployed: DeployedDomain, patterns: tuple) -> None:
    base = deployed.spec.effective_policy()
    policy = Policy(version=base.version, mode=base.mode,
                    max_age=base.max_age, mx_patterns=patterns)
    deployed.set_policy_text(render_policy(policy))


def _mismatch_tld(world, deployed, _):
    real = deployed.spec.intended_mx()
    swapped = tuple(_swap_tld(m) for m in real)
    _set_patterns(deployed, swapped)


def _swap_tld(hostname: str) -> str:
    head, _, tld = hostname.rpartition(".")
    replacement = {"com": "net", "net": "org", "org": "com",
                   "se": "nu"}.get(tld, "com")
    return f"{head}.{replacement}"


def _mismatch_domain(world, deployed, _):
    # Entirely unrelated patterns — the population Figure 9 digs into.
    _set_patterns(deployed, (f"mx.old-provider-{len(deployed.domain)}.net",))


def _mismatch_3ld(world, deployed, _):
    # 81.8% of 3LD+ mismatches put the mta-sts label into the pattern —
    # the RFC misunderstanding the paper highlights.
    real = deployed.spec.intended_mx()
    _set_patterns(deployed, tuple(f"mta-sts.{m}" for m in real))


def _mismatch_typo(world, deployed, _):
    real = deployed.spec.intended_mx()
    _set_patterns(deployed, tuple(_typo(m) for m in real))


def _typo(hostname: str) -> str:
    # Drop one character from the first label: edit distance 1 (<= 3).
    head, _, rest = hostname.partition(".")
    if len(head) > 2:
        head = head[:-1]
    else:
        head = head + "x"
    return f"{head}.{rest}" if rest else head


def _outdated_policy(world, deployed, _):
    """Migrate the MX records while the policy keeps the old patterns.

    The migration target lives under a *different* registrable domain,
    so the stale patterns classify as a complete-domain mismatch — the
    population Figure 9 then explains through historical MX records.
    Provider-hosted domains migrate to another hosting provider's
    shared farm (they stay "both outsourced", feeding Figure 10's
    split-management population); self-hosted ones move to a dedicated
    new host.
    """
    old_patterns = tuple(deployed.spec.intended_mx())
    if deployed.spec.email_provider is not None:
        target = _pick_migration_target(world, deployed.spec.email_provider)
        deployed.set_mx_records(list(target.mx_hostnames))
    else:
        new_sld = f"{deployed.domain.split('.')[0]}-mail.net"
        new_host = _standalone_mx(world, new_sld, deployed)
        deployed.set_mx_records([new_host])
    _set_patterns(deployed, old_patterns)


def _pick_migration_target(world, current_provider):
    """The provider a domain migrates *to*.

    Realistic migrations land on another large provider — that keeps
    the domain "both outsourced" for Figure 10 and the target popular
    enough for the entity heuristics.  The world's provider registry
    (attached by the timeline) is consulted when available; standalone
    worlds get a dedicated shared target farm.
    """
    from repro.ecosystem.providers import EmailProvider

    registry = getattr(world, "email_providers", None)
    if registry:
        target_name = ("Microsoft" if current_provider.name == "Google"
                       else "Google")
        target = registry.get(target_name)
        if target is not None:
            target.deploy(world)
            return target

    provider = getattr(world, "_migration_provider", None)
    if provider is None:
        provider = EmailProvider(
            "NewMailHosting", "newmail-hosting.net",
            mx_hostnames=["mx1.newmail-hosting.net",
                          "mx2.newmail-hosting.net"])
        provider.deploy(world)
        world._migration_provider = provider
    return provider


def _standalone_mx(world, new_sld: str, deployed) -> str:
    from repro.dns.records import SoaRecord
    from repro.dns.zone import Zone
    from repro.smtp.server import MxHost
    from repro.tls.handshake import TlsEndpoint

    new_host = f"mx.{new_sld}"
    ip = world.fresh_ip("mx")
    tls = TlsEndpoint()
    cert = world.issue_cert([new_host])
    tls.install(new_host, cert, default=True)
    deployed.mx_hosts.append(MxHost(new_host, ip, world.network, tls=tls))

    apex = deployed.names(new_sld)
    server = world.server_for(new_sld)
    if server is None:
        zone = Zone(apex=apex)
        zone.add(SoaRecord(apex))
        server = world.host_zone(zone)
    zone = server.zone_for(apex)
    assert zone is not None
    host = deployed.names(new_host)
    if not zone.lookup(host, RRType.A):
        zone.add(ARecord(host, 3600, ip))
    return new_host


def _policy_web_server(deployed: DeployedDomain):
    if deployed.policy_server is not None:
        return deployed.policy_server
    provider = deployed.spec.policy_provider
    if provider is None or provider.web_server is None:
        raise ValueError(f"{deployed.domain} has no policy server to break")
    return provider.web_server


_HANDLERS = {
    Fault.RECORD_MISSING_ID: _record_missing_id,
    Fault.RECORD_INVALID_ID: _record_invalid_id,
    Fault.RECORD_BAD_VERSION: _record_bad_version,
    Fault.RECORD_INVALID_EXTENSION: _record_invalid_extension,
    Fault.RECORD_DUPLICATE: _record_duplicate,
    Fault.POLICY_DNS_UNRESOLVABLE: _policy_dns_unresolvable,
    Fault.POLICY_TCP_CLOSED: _policy_tcp(TcpBehavior.REFUSE),
    Fault.POLICY_TCP_TIMEOUT: _policy_tcp(TcpBehavior.TIMEOUT),
    Fault.POLICY_TLS_CN_MISMATCH: _policy_tls_cn_mismatch,
    Fault.POLICY_TLS_SELF_SIGNED: _policy_tls_self_signed,
    Fault.POLICY_TLS_EXPIRED: _policy_tls_expired,
    Fault.POLICY_TLS_NO_CERT: _policy_tls_no_cert,
    Fault.POLICY_HTTP_404: _policy_http_404,
    Fault.POLICY_HTTP_500: _policy_http_500,
    Fault.POLICY_SYNTAX_BAD_MX: _policy_syntax_bad_mx,
    Fault.POLICY_SYNTAX_EMPTY: _policy_syntax_empty,
    Fault.POLICY_SYNTAX_MISSING_MODE: _policy_syntax_missing_mode,
    Fault.MX_CERT_CN_MISMATCH: _mx_cert_cn_mismatch,
    Fault.MX_CERT_SELF_SIGNED: _mx_cert_self_signed,
    Fault.MX_CERT_EXPIRED: _mx_cert_expired,
    Fault.MISMATCH_TLD: _mismatch_tld,
    Fault.MISMATCH_DOMAIN: _mismatch_domain,
    Fault.MISMATCH_3LD: _mismatch_3ld,
    Fault.MISMATCH_TYPO: _mismatch_typo,
    Fault.OUTDATED_POLICY: _outdated_policy,
}
