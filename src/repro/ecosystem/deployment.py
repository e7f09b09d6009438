"""Deploying one domain's full MTA-STS stack into a :class:`World`.

A :class:`DomainSpec` is the declarative description of how a domain
owner set things up — who runs their DNS, MX, and policy hosting, what
the policy says, and which faults (if any) their configuration
carries.  :func:`deploy_domain` turns the spec into live simulated
infrastructure: a zone on an authoritative server, MX hosts with
STARTTLS certificates, and a policy file served over HTTPS either from
the owner's own web server or via CNAME delegation to a provider.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.policy import Policy, PolicyMode, render_policy
from repro.core.tlsrpt import TlsRptRecord
from repro.dns.name import DnsName
from repro.dns.records import (
    ARecord, CnameRecord, MxRecord, NsRecord, RRType, SoaRecord, TxtRecord,
)
from repro.dns.zone import Zone
from repro.ecosystem.providers import EmailProvider, PolicyHostProvider
from repro.ecosystem.world import World
from repro.netsim.ip import IpAddress
from repro.smtp.server import SMTP_PORT, MxHost
from repro.tls.handshake import TlsEndpoint
from repro.web.server import HTTPS_PORT, WebServer


@dataclass(slots=True)
class DomainSpec:
    """How one domain's email and MTA-STS stack is arranged."""

    domain: str
    # DNS management: None = self-managed NS under the domain itself.
    dns_provider_sld: Optional[str] = None
    # Email: a provider, or None for a self-managed MX.
    email_provider: Optional[EmailProvider] = None
    self_mx_count: int = 1
    # Policy hosting: a provider, or None for self-managed (when the
    # domain deploys MTA-STS at all).
    policy_provider: Optional[PolicyHostProvider] = None
    # MTA-STS intent
    deploy_sts: bool = True
    record_id: str = "20240101"
    policy: Optional[Policy] = None
    # TLSRPT
    tlsrpt: Optional[TlsRptRecord] = None

    def effective_policy(self) -> Policy:
        if self.policy is not None:
            return self.policy
        return Policy(version="STSv1", mode=PolicyMode.TESTING,
                      max_age=604800, mx_patterns=tuple(self.intended_mx()))

    def intended_mx(self) -> List[str]:
        if self.email_provider is not None:
            if self.email_provider.assigns_unique_mx_per_customer:
                return [f"{self.domain.replace('.', '-')}.mail."
                        f"{self.email_provider.sld}"]
            return list(self.email_provider.mx_hostnames)
        return [f"mx{i + 1}.{self.domain}" if self.self_mx_count > 1
                else f"mail.{self.domain}"
                for i in range(self.self_mx_count)]


@dataclass(slots=True)
class DeployedDomain:
    """Handles to everything :func:`deploy_domain` built."""

    spec: DomainSpec
    zone: Zone
    #: The world's name intern (:meth:`Resolver.name`), which the
    #: mutation helpers look names up in.
    names: Callable[[str], DnsName] = field(repr=False, compare=False)
    mx_hosts: List[MxHost] = field(default_factory=list)
    policy_server: Optional[WebServer] = None   # self-managed only
    policy_text: str = ""

    @property
    def domain(self) -> str:
        return self.spec.domain

    # -- mutation helpers used by the misconfig injector and timeline ---

    def set_record(self, text: str) -> None:
        name = self.names(f"_mta-sts.{self.domain}")
        self.zone.remove(name, RRType.TXT)
        self.zone.add(TxtRecord(name, 300, text))

    def remove_record(self) -> None:
        self.zone.remove(self.names(f"_mta-sts.{self.domain}"), RRType.TXT)

    def set_policy_text(self, text: str) -> None:
        self.policy_text = text
        if self.policy_server is not None:
            self.policy_server.host_policy(self.domain, text)
        elif self.spec.policy_provider is not None:
            provider = self.spec.policy_provider
            assert provider.web_server is not None
            provider.hosted_policies[self.domain] = text
            provider.web_server.host_policy(self.domain, text)

    def set_mx_records(self, hostnames: List[str]) -> None:
        apex = self.zone.apex
        self.zone.remove(apex, RRType.MX)
        for i, hostname in enumerate(hostnames):
            self.zone.add(MxRecord(apex, 3600, 10 + i,
                                   self.names(hostname)))

    def mx_record_hostnames(self) -> List[str]:
        records = sorted(self.zone.lookup(self.zone.apex, RRType.MX),
                         key=lambda r: (r.preference, r.exchange.text))
        return [r.exchange.text for r in records]


def _sts_record_text(record_id: str) -> str:
    return f"v=STSv1; id={record_id};"


def deploy_domain(world: World, spec: DomainSpec) -> DeployedDomain:
    """Build the full stack for *spec* and return the handles."""
    names = world.resolver.name
    apex = names(spec.domain)
    zone = Zone(apex=apex)
    zone.add(SoaRecord(apex))

    # NS records: self-managed shares the domain's SLD; provider-managed
    # points at the provider (classification Heuristic 2 keys on this).
    ns_base = spec.dns_provider_sld or spec.domain
    for i in (1, 2):
        zone.add(NsRecord(apex, 86400, names(f"ns{i}.{ns_base}")))

    deployed = DeployedDomain(spec=spec, zone=zone, names=names)

    # --- MX hosts -----------------------------------------------------
    mx_hostnames = spec.intended_mx()
    if spec.email_provider is not None:
        spec.email_provider.deploy(world)
        if spec.email_provider.assigns_unique_mx_per_customer:
            _deploy_unique_provider_mx(world, spec, mx_hostnames[0])
    else:
        for hostname in mx_hostnames:
            ip = world.fresh_ip("mx")
            tls = TlsEndpoint()
            cert = world.issue_cert([hostname])
            tls.install(hostname, cert, default=True)
            deployed.mx_hosts.append(
                MxHost(hostname, ip, world.network, tls=tls))
            zone.add(ARecord(names(hostname), 3600, ip))
    for i, hostname in enumerate(mx_hostnames):
        zone.add(MxRecord(apex, 3600, 10 + i, names(hostname)))

    # --- apex A record (websites exist; also the implicit-MX fallback) --
    zone.add(ARecord(apex, 3600, world.fresh_ip("web")))

    # The zone goes live now: provider onboarding below performs ACME
    # domain validation, which must be able to resolve the customer's
    # mta-sts records through the real resolver.
    world.host_zone(zone)

    # --- MTA-STS -----------------------------------------------------------
    if spec.deploy_sts:
        policy = spec.effective_policy()
        policy_text = render_policy(policy)
        deployed.policy_text = policy_text
        zone.add(TxtRecord(names(f"_mta-sts.{spec.domain}"), 300,
                           _sts_record_text(spec.record_id)))
        policy_host = names(f"mta-sts.{spec.domain}")
        if spec.policy_provider is not None:
            provider = spec.policy_provider
            provider.deploy(world)
            if provider.delegate_via_cname:
                provider.publish_canonical_dns(world, spec.domain)
                zone.add(CnameRecord(
                    policy_host, 3600,
                    names(provider.canonical_host_for(spec.domain))))
            else:
                assert provider.web_server is not None
                zone.add(ARecord(policy_host, 3600,
                                 provider.web_server.ip))
            provider.onboard(world, spec.domain, policy)
        else:
            ip = world.fresh_ip("web")
            server = WebServer(f"www.{spec.domain}", ip, world.network)
            cert = world.issue_cert([f"mta-sts.{spec.domain}"])
            server.tls.install(f"mta-sts.{spec.domain}", cert, default=True)
            server.host_policy(spec.domain, policy_text)
            deployed.policy_server = server
            zone.add(ARecord(policy_host, 3600, ip))

    # --- TLSRPT --------------------------------------------------------------
    if spec.tlsrpt is not None:
        zone.add(TxtRecord(names(f"_smtp._tls.{spec.domain}"), 300,
                           spec.tlsrpt.render()))

    return deployed


def undeploy_domain(world: World, deployed: DeployedDomain) -> None:
    """Tear down everything :func:`deploy_domain` (and any fault applied
    on top of it) built for one domain, so the incremental materializer
    can redeploy the domain from its current spec.

    Shared provider infrastructure survives — only the *per-customer*
    state is withdrawn: the domain's zone and its authoritative server,
    self-managed MX listeners, the self-managed policy web server, the
    provider-side hosted policy, per-customer TLS entries (certificates
    and SNI alerts), and per-customer canonical DNS.  A canonical host
    shared by every customer (Tutanota's ``_mta-sts.tutanota.de``) is
    never withdrawn.
    """
    spec = deployed.spec
    domain = deployed.domain

    # Self-managed MX hosts, including any standalone migration host an
    # OUTDATED_POLICY fault appended.  Hosts living under a foreign SLD
    # keep their zone (it may be redeployed into), but their A record
    # must go so a redeploy can re-point it at the replacement listener.
    for host in deployed.mx_hosts:
        world.network.unregister(host.ip, SMTP_PORT)
        if not host.hostname.endswith("." + domain):
            _remove_foreign_a_record(world, host.hostname, host.ip)

    # The lucidgrow pattern: a per-customer MX under the provider's SLD,
    # registered outside deployed.mx_hosts.
    provider = spec.email_provider
    if provider is not None and provider.assigns_unique_mx_per_customer:
        hostname = spec.intended_mx()[0]
        server = world.server_for(provider.sld)
        zone = (server.zone_for(world.resolver.name(provider.sld))
                if server else None)
        if zone is not None:
            name = world.resolver.name(hostname)
            for record in zone.lookup(name, RRType.A):
                world.network.unregister(record.address, SMTP_PORT)
            zone.remove(name, RRType.A)

    # Policy hosting.
    if deployed.policy_server is not None:
        world.network.unregister(deployed.policy_server.ip, HTTPS_PORT)
    policy_provider = spec.policy_provider
    if policy_provider is not None and policy_provider.web_server is not None:
        web = policy_provider.web_server
        policy_host = f"mta-sts.{domain}"
        web.unhost_policy(domain)
        web.tls.uninstall(policy_host)
        web.tls.alert_snis.discard(policy_host)
        policy_provider.hosted_policies.pop(domain, None)
        if (policy_provider.delegate_via_cname
                and "{" in policy_provider.cname_pattern):
            # Per-customer canonical host only; a placeholder-free
            # pattern is one shared host serving every customer.
            policy_provider._withdraw_canonical_dns(world, domain)

    # Finally the zone itself and its authoritative server.
    world.unhost_zone(domain)


def _remove_foreign_a_record(world: World, hostname: str,
                             ip: IpAddress) -> None:
    """Drop *hostname*'s A record from whichever hosted zone serves it."""
    name = world.resolver.name(hostname)
    apex = name
    while "." in apex.text:
        apex = apex.parent()
        server = world.server_for(apex.text)
        if server is None:
            continue
        zone = server.zone_for(apex)
        if zone is None:
            continue
        remaining = [r for r in zone.lookup(name, RRType.A)
                     if r.address != ip]
        zone.remove(name, RRType.A)
        for record in remaining:
            zone.add(record)
        return


def _deploy_unique_provider_mx(world: World, spec: DomainSpec,
                               hostname: str) -> None:
    """The lucidgrow pattern: a unique MX hostname per customer, all on
    the provider's infrastructure with provider-issued certs."""
    provider = spec.email_provider
    assert provider is not None
    ip = world.fresh_ip("mx")
    tls = TlsEndpoint()
    cert = world.issue_cert([hostname])
    tls.install(hostname, cert, default=True)
    MxHost(hostname, ip, world.network, tls=tls)

    apex = world.resolver.name(provider.sld)
    server = world.server_for(provider.sld)
    if server is None:
        zone = Zone(apex=apex)
        server = world.host_zone(zone)
    zone = server.zone_for(apex)
    assert zone is not None
    zone.add(ARecord(world.resolver.name(hostname), 3600, ip))
