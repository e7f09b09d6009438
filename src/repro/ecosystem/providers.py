"""Provider models.

Two provider kinds matter to the paper:

* **email hosting providers** run MX farms that many customer domains
  point their MX records at (Google, Outlook, Tutanota, mxrouting.net);
* **policy hosting providers** serve MTA-STS policy files on behalf of
  customers via CNAME delegation (Table 2's eight: Tutanota,
  DMARCReport, PowerDMARC, EasyDMARC, Mailhardener, URIports,
  Sendmarc, OnDMARC).

Each policy host carries the opt-out behaviour the paper catalogued by
contacting provider support: NXDOMAIN responses, continued certificate
issuance (with or without policy updates), empty policy files, or
rejecting mail while leaving the policy stale (Tutanota).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.policy import Policy, render_policy
from repro.dns.name import DnsName
from repro.dns.records import ARecord, RRType
from repro.dns.zone import Zone
from repro.ecosystem.world import World
from repro.netsim.ip import IpAddress
from repro.smtp.server import MxHost
from repro.tls.handshake import TlsEndpoint
from repro.web.server import WebServer


class OptOutBehavior(enum.Enum):
    """What a policy host does for a customer who stopped paying."""

    NXDOMAIN = "nxdomain"                  # Mailhardener, URIports, PowerDMARC
    REISSUE_CERT_STALE_POLICY = "reissue-stale"    # EasyDMARC, Sendmarc, OnDMARC
    REISSUE_CERT_EMPTY_POLICY = "reissue-empty"    # DMARCReport
    REJECT_MAIL_STALE_POLICY = "reject-mail"       # Tutanota


@dataclass
class EmailProvider:
    """A third-party email hosting provider with a shared MX farm."""

    name: str
    sld: str                                  # e.g. "google.com"
    mx_hostnames: List[str] = field(default_factory=list)
    mx_hosts: List[MxHost] = field(default_factory=list)
    cert_failure_rate: float = 0.0            # some providers slip (mxrouting)
    assigns_unique_mx_per_customer: bool = False   # the lucidgrow pattern

    def deploy(self, world: World, *, mx_count: int = 2) -> None:
        """Stand up the provider's MX farm with valid certificates."""
        if self.mx_hosts:
            return
        if not self.mx_hostnames:
            self.mx_hostnames = [f"mx{i + 1}.{self.sld}"
                                 for i in range(mx_count)]
        for hostname in self.mx_hostnames:
            ip = world.fresh_ip("mx")
            tls = TlsEndpoint()
            cert = world.issue_cert([hostname], lifetime_days=365)
            tls.install(hostname, cert, default=True)
            host = MxHost(hostname, ip, world.network, tls=tls)
            self.mx_hosts.append(host)
            self._publish_mx_dns(world, hostname, ip)

    def _publish_mx_dns(self, world: World, hostname: str,
                        ip: IpAddress) -> None:
        apex = world.resolver.name(self.sld)
        server = world.server_for(self.sld)
        if server is None:
            zone = Zone(apex=apex)
            server = world.host_zone(zone)
        zone = server.zone_for(apex)
        assert zone is not None
        zone.add(ARecord(world.resolver.name(hostname), 3600, ip))


@dataclass
class PolicyHostProvider:
    """A third-party MTA-STS policy hosting provider."""

    name: str
    sld: str                                   # e.g. "dmarcinput.com"
    cname_pattern: str                         # Table 2's CNAME shapes
    opt_out: OptOutBehavior
    email_hosting_support: bool = False        # Tutanota bundles both
    #: Table-2 providers take delegation via CNAME; small shared hosts
    #: (the unclassifiable boutiques) are pointed at directly with an
    #: A record on the mta-sts label.
    delegate_via_cname: bool = True
    web_server: Optional[WebServer] = None
    #: customer domain -> policy text currently served
    hosted_policies: Dict[str, str] = field(default_factory=dict)
    #: customers who opted out but still CNAME at us
    opted_out: Dict[str, str] = field(default_factory=dict)
    #: customers whose ACME domain validation failed at onboarding
    #: (their CNAME never pointed at us)
    acme_failures: List[str] = field(default_factory=list)
    updates_policy_on_mx_change: bool = False

    def canonical_sld(self) -> str:
        """The registrable domain of the canonical policy host — the key
        the CNAME-based delegation census (Table 2) groups by.  Differs
        from :attr:`sld` when a provider hosts policies under another
        domain (Tutanota: web identity tutanota.com, policy host
        tutanota.de)."""
        from repro.dns.name import effective_sld

        name = DnsName.try_parse(self.canonical_host_for("a.com"))
        if name is None:
            return self.sld
        sld = effective_sld(name)
        return sld.text if sld is not None else self.sld

    def canonical_host_for(self, customer_domain: str) -> str:
        """The CNAME target this provider assigns to a customer.

        Patterns follow Table 2, e.g. ``a-com.mta-sts.dmarcinput.com``
        for ``a.com`` at DMARCReport, or the shared
        ``_mta-sts.tutanota.de`` for every Tutanota customer.
        """
        flat_dash = customer_domain.replace(".", "-")
        flat_underscore = customer_domain.replace(".", "_")
        return (self.cname_pattern
                .replace("{domain}", customer_domain)
                .replace("{dash}", flat_dash)
                .replace("{underscore}", flat_underscore))

    def deploy(self, world: World) -> None:
        if self.web_server is not None:
            return
        ip = world.fresh_ip("web")
        self.web_server = WebServer(f"policyhost.{self.sld}", ip,
                                    world.network)
        # The provider's own wildcard certificate covers its canonical
        # hosts; per-customer mta-sts.<domain> certs are added as
        # customers onboard (ACME DV via the CNAME).
        own_cert = world.issue_cert([self.sld, f"*.{self.sld}"],
                                    lifetime_days=365)
        self.web_server.tls.install(f"*.{self.sld}", own_cert, default=True)

    # -- customer lifecycle ------------------------------------------------

    def onboard(self, world: World, customer_domain: str,
                policy: Policy) -> None:
        """Host *customer_domain*'s policy and obtain its DV cert.

        Certificate issuance goes through the ACME domain-validation
        flow: it succeeds only when ``mta-sts.<customer>`` genuinely
        resolves to this provider (the CNAME the customer must
        publish, §2.5).  A customer who signs up without pointing the
        CNAME at us gets no certificate — their policy host answers
        with a fatal TLS alert, the §4.3.3 "SSL alert" class.
        """
        from repro.pki.acme import AcmeChallengeError

        assert self.web_server is not None, "provider not deployed"
        policy_host = f"mta-sts.{customer_domain}"
        try:
            cert = world.acme.issue_dv([policy_host],
                                       {self.web_server.ip.text})
        except AcmeChallengeError:
            self.acme_failures.append(customer_domain)
        else:
            self.web_server.tls.install(policy_host, cert)
        text = render_policy(policy)
        self.hosted_policies[customer_domain] = text
        self.web_server.host_policy(customer_domain, text)

    def customer_opts_out(self, world: World, customer_domain: str) -> None:
        """Apply this provider's documented opt-out behaviour."""
        assert self.web_server is not None
        policy_host = f"mta-sts.{customer_domain}"
        previous = self.hosted_policies.pop(customer_domain, "")
        self.opted_out[customer_domain] = previous

        if self.opt_out is OptOutBehavior.NXDOMAIN:
            # The canonical name the customer's CNAME points at stops
            # resolving; the provider also stops serving and renewing.
            self.web_server.unhost_policy(customer_domain)
            self.web_server.tls.uninstall(policy_host)
            self._withdraw_canonical_dns(world, customer_domain)
        elif self.opt_out is OptOutBehavior.REISSUE_CERT_EMPTY_POLICY:
            # DMARCReport: valid cert, empty policy body -> parse failure,
            # treated by senders like mode=none.
            self.web_server.host_policy(customer_domain, "")
        elif self.opt_out is OptOutBehavior.REISSUE_CERT_STALE_POLICY:
            # Cert keeps renewing; the policy body freezes as-is.
            self.web_server.host_policy(customer_domain, previous)
        elif self.opt_out is OptOutBehavior.REJECT_MAIL_STALE_POLICY:
            # Tutanota: policy untouched; the MX rejects the customer's
            # mail.  Certificate renewal status is unknown (the paper got
            # no answer), observed as certificates eventually expiring.
            self.web_server.host_policy(customer_domain, previous)

    def _canonical_zone(self, world: World, canonical: str,
                        *, create: bool) -> Optional[tuple]:
        """The (zone, name) pair holding one canonical host's records.

        The canonical host may live under a different registrable
        domain than :attr:`sld` (Tutanota delegates policy hosting to
        ``_mta-sts.tutanota.de`` while its web identity is
        ``tutanota.com``), so the zone is derived from the host itself.
        """
        from repro.dns.name import effective_sld

        try:
            name = world.resolver.name(canonical)
        except ValueError:
            return None
        apex = effective_sld(name)
        if apex is None:
            return None
        server = world.server_for(apex.text)
        if server is None:
            if not create:
                return None
            server = world.host_zone(Zone(apex=apex))
        zone = server.zone_for(apex)
        if zone is None:
            if not create:
                return None
            zone = Zone(apex=apex)
            server.add_zone(zone)
        return zone, name

    def _withdraw_canonical_dns(self, world: World,
                                customer_domain: str) -> None:
        canonical = self.canonical_host_for(customer_domain)
        located = self._canonical_zone(world, canonical, create=False)
        if located is not None:
            zone, name = located
            zone.remove(name, RRType.A)

    def publish_canonical_dns(self, world: World,
                              customer_domain: str) -> None:
        """Ensure the canonical per-customer host resolves to us."""
        assert self.web_server is not None
        canonical = self.canonical_host_for(customer_domain)
        located = self._canonical_zone(world, canonical, create=True)
        if located is None:
            return
        zone, name = located
        if not zone.lookup(name, RRType.A):
            zone.add(ARecord(name, 3600, self.web_server.ip))


def table2_providers() -> List[PolicyHostProvider]:
    """The paper's Table 2, in descending customer-count order.

    The ``{dash}``/``{underscore}``/``{domain}`` placeholders encode
    each provider's observed CNAME pattern for customer ``a.com``.
    """
    return [
        PolicyHostProvider(
            name="Tutanota", sld="tutanota.com",
            cname_pattern="_mta-sts.tutanota.de",
            opt_out=OptOutBehavior.REJECT_MAIL_STALE_POLICY,
            email_hosting_support=True),
        PolicyHostProvider(
            name="DMARCReport", sld="dmarcinput.com",
            cname_pattern="{dash}.mta-sts.dmarcinput.com",
            opt_out=OptOutBehavior.REISSUE_CERT_EMPTY_POLICY),
        PolicyHostProvider(
            name="PowerDMARC", sld="mta-sts.tech",
            cname_pattern="{dash}._mta.mta-sts.tech",
            opt_out=OptOutBehavior.NXDOMAIN),
        PolicyHostProvider(
            name="EasyDMARC", sld="easydmarc.pro",
            cname_pattern="{underscore}__mta_sts.easydmarc.pro",
            opt_out=OptOutBehavior.REISSUE_CERT_STALE_POLICY),
        PolicyHostProvider(
            name="Mailhardener", sld="mailhardener.com",
            cname_pattern="{domain}._mta-sts.mailhardener.com",
            opt_out=OptOutBehavior.NXDOMAIN),
        PolicyHostProvider(
            name="URIports", sld="uriports.com",
            cname_pattern="{dash}._mta-sts.uriports.com",
            opt_out=OptOutBehavior.NXDOMAIN),
        PolicyHostProvider(
            name="Sendmarc", sld="sdmarc.net",
            cname_pattern="{domain}._mta-sts.sdmarc.net",
            opt_out=OptOutBehavior.REISSUE_CERT_STALE_POLICY),
        PolicyHostProvider(
            name="OnDMARC", sld="ondmarc.com",
            cname_pattern="_mta-sts.{domain}._mta-sts.smart.ondmarc.com",
            opt_out=OptOutBehavior.REISSUE_CERT_STALE_POLICY),
    ]


def generic_providers() -> List[PolicyHostProvider]:
    """The long tail of smaller CNAME-delegating policy hosts."""
    return [
        PolicyHostProvider(
            name=f"GenericSTS{i}", sld=f"stshost{i}.net",
            cname_pattern="{dash}.mta-sts.stshost" + str(i) + ".net",
            opt_out=OptOutBehavior.NXDOMAIN)
        for i in (1, 2, 3)
    ]


#: Table 2's customer counts at the paper's final snapshot (2024-09-29).
TABLE2_DOMAIN_COUNTS = {
    "Tutanota": 7614,
    "DMARCReport": 7293,
    "PowerDMARC": 3753,
    "EasyDMARC": 2222,
    "Mailhardener": 1558,
    "URIports": 1100,
    "Sendmarc": 805,
    "OnDMARC": 451,
}


def default_email_providers() -> List[EmailProvider]:
    """A provider mix mirroring the operators the paper names."""
    return [
        EmailProvider("Google", "google.com",
                      mx_hostnames=["aspmx.l.google.com",
                                    "alt1.aspmx.l.google.com"]),
        EmailProvider("Microsoft", "outlook.com",
                      mx_hostnames=["mail.protection.outlook.com"]),
        EmailProvider("Tutanota", "tutanota.de",
                      mx_hostnames=["mail.tutanota.de"]),
        EmailProvider("Yahoo", "yahoodns.net",
                      mx_hostnames=["mta5.am0.yahoodns.net",
                                    "mta6.am0.yahoodns.net"]),
        EmailProvider("MxRouting", "mxrouting.net",
                      mx_hostnames=["filter1.mxrouting.net",
                                    "filter2.mxrouting.net"],
                      cert_failure_rate=0.39),
        EmailProvider("CheapMail", "cheapmail.net",
                      mx_hostnames=["in1.cheapmail.net",
                                    "in2.cheapmail.net"]),
        EmailProvider("Lucidgrow", "lucidgrow.com",
                      assigns_unique_mx_per_customer=True),
        EmailProvider("MxAscen", "mxascen.com",
                      mx_hostnames=["mx.l.mxascen.com"]),
    ]
