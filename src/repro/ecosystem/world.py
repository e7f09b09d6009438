"""The simulation harness.

A :class:`World` bundles everything a scenario needs: the simulated
network and clock, a TLD registry with authoritative servers, a root
CA with its trust store, an ACME front-end, the DNSSEC authority, and
ready-made clients (resolver, HTTPS client, SMTP probe).  Tests,
examples, and the ecosystem simulator all start from ``World()``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.clock import Clock, Instant
from repro.dns.dnssec import DnssecAuthority
from repro.dns.name import DnsName
from repro.dns.records import SoaRecord
from repro.dns.resolver import Resolver
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import Zone
from repro.netsim.ip import IpAddress, IpPool
from repro.netsim.network import Network
from repro.netsim.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.pki.acme import AcmeService
from repro.pki.ca import CertificateAuthority, TrustStore
from repro.pki.certificate import CertTemplate
from repro.smtp.client import SmtpProbe
from repro.web.client import HttpsClient

DEFAULT_START = Instant.from_date(2021, 9, 9)   # first day of the paper's scans
#: The paper's four scanned TLDs plus the suffixes provider
#: infrastructure lives under (tutanota.de, mta-sts.tech, ...).
DEFAULT_TLDS = ("com", "net", "org", "se", "de", "tech", "pro", "host", "nu")


class World:
    """A fully wired simulated internet."""

    def __init__(self, *, start: Instant = DEFAULT_START,
                 retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY):
        self.clock = Clock(start)
        self.retry_policy = retry_policy
        # The network shares the world clock so time-keyed fault
        # schedules (FLAP) see the simulated instant, not wall time.
        self.network = Network(clock=self.clock)
        self.dnssec = DnssecAuthority()

        # Address plan: infrastructure pools per role so that "nearby
        # IPs" has meaning for the classification heuristics.
        self.dns_ip_pool = IpPool(base_second_octet=10)
        self.web_ip_pool = IpPool(base_second_octet=20)
        self.mx_ip_pool = IpPool(base_second_octet=30)

        # One public CA everyone trusts (Let's Encrypt's role).
        self.ca = CertificateAuthority("Simulated Root CA", self.clock)
        self.trust_store = TrustStore([self.ca.root])

        # TLD infrastructure: one authoritative server per TLD, holding
        # the TLD zone (delegations are modelled via the resolver's
        # delegation registry instead of NS-glue chasing).
        self.resolver = Resolver(self.network, self.clock,
                                 retry_policy=retry_policy)
        self.tld_servers: Dict[str, AuthoritativeServer] = {}
        for tld in DEFAULT_TLDS:
            server = AuthoritativeServer(
                f"{tld}-registry", self.dns_ip_pool.allocate(), self.network)
            zone = Zone(apex=DnsName.parse(tld))
            zone.add(SoaRecord(DnsName.parse(tld),
                               mname=DnsName.parse(f"ns1.{tld}-registry.net")
                               if tld != "net" else DnsName.parse("ns1.registry.net")))
            server.add_zone(zone)
            self.tld_servers[tld] = server
            self.resolver.delegate(tld, [server.ip])
            self.dnssec.sign_zone(tld, publish_ds=True)

        self.acme = AcmeService(self.ca, self.resolver, self.clock)
        self.https_client = HttpsClient(
            self.network, self.resolver, self.trust_store, self.clock,
            retry_policy=retry_policy)

        self._domain_servers: Dict[str, AuthoritativeServer] = {}

        # The scanner's own FCrDNS identity (§4.1 methodology): a
        # forward A record plus the matching PTR, so MTAs that verify
        # forward-confirmed reverse DNS accept our probes.
        self.scanner_hostname = "scanner.netsecurelab.org"
        self.scanner_ip = self.mx_ip_pool.allocate()
        self.network.register_host(self.scanner_ip)
        self._publish_scanner_identity()
        self.smtp_probe = SmtpProbe(
            self.network, self.resolver, self.trust_store, self.clock,
            client_name=self.scanner_hostname, client_ip=self.scanner_ip,
            retry_policy=retry_policy)

    def _publish_scanner_identity(self) -> None:
        from repro.dns.records import ARecord
        from repro.dns.reverse import publish_ptr
        from repro.dns.zone import Zone

        forward = Zone(apex=DnsName.parse("netsecurelab.org"))
        forward.add(ARecord(DnsName.parse(self.scanner_hostname), 3600,
                            self.scanner_ip))
        self.host_zone(forward)

        self.reverse_zone = Zone(apex=DnsName.parse("in-addr.arpa"))
        publish_ptr(self.reverse_zone, self.scanner_ip,
                    self.scanner_hostname)
        self.host_zone(self.reverse_zone)

    # -- conveniences ------------------------------------------------------

    def now(self) -> Instant:
        return self.clock.now()

    def host_zone(self, zone: Zone, *,
                  server: Optional[AuthoritativeServer] = None
                  ) -> AuthoritativeServer:
        """Serve *zone* from a (new or given) authoritative server and
        register the delegation with the resolver."""
        if server is None:
            server = AuthoritativeServer(
                f"ns.{zone.apex.text}", self.dns_ip_pool.allocate(),
                self.network)
        server.add_zone(zone)
        self.resolver.delegate(zone.apex, [server.ip])
        self._domain_servers[zone.apex.text] = server
        return server

    def issue_cert(self, names: list[str], *,
                   lifetime_days: int = 90, backdate_days: int = 0):
        """Issue a certificate from the trusted CA without ACME checks."""
        return self.ca.issue(CertTemplate(names=names,
                                          lifetime_days=lifetime_days),
                             backdate_days=backdate_days)

    def unhost_zone(self, apex: str | DnsName) -> None:
        """Tear down a zone hosted via :meth:`host_zone`: withdraw the
        delegation and unplug the zone's authoritative server.  Used by
        the incremental materializer when a domain is redeployed."""
        apex_text = apex.text if isinstance(apex, DnsName) else apex
        server = self._domain_servers.pop(apex_text, None)
        self.resolver.undelegate(apex_text)
        if server is not None:
            from repro.dns.server import DNS_PORT
            self.network.unregister(server.ip, DNS_PORT)

    def renew_certificates(self, *, valid_at: Instant) -> int:
        """Renew every lapsed CA-issued certificate still in service.

        A full monthly rebuild mints fresh certificates, so nothing in
        a from-scratch world is ever *accidentally* expired; in a
        long-lived incremental world, 90-day leaf certificates lapse
        between scans unless someone plays the CA's renewal role.  This
        walks every TLS endpoint on the network and reissues (same
        names, same key) each certificate that our CA signed, that was
        still valid at *valid_at* (the previous scan instant), and that
        has since expired.  Certificates that were already invalid at
        *valid_at* — deliberately expired, self-signed, or revoked
        fault injections — are left broken, exactly as a negligent
        operator would.  Returns the number of renewals.
        """
        now = self.clock.now()
        renewed: Dict[str, object] = {}
        seen: set[int] = set()
        count = 0
        for listener in self.network.listeners():
            tls = getattr(listener.app, "tls", None)
            if tls is None or id(tls) in seen:
                continue
            seen.add(id(tls))
            for pattern, cert in list(tls.certificates.items()):
                if (cert.is_ca or cert.self_signed or cert.revoked
                        or cert.issuer_key != self.ca.key
                        or not cert.valid_at(valid_at)
                        or cert.valid_at(now)):
                    continue
                fingerprint = cert.cert_fingerprint()
                fresh = renewed.get(fingerprint)
                if fresh is None:
                    fresh = self.ca.issue(CertTemplate(
                        names=list(cert.san) or [cert.subject_cn],
                        key=cert.key, lifetime_days=365))
                    renewed[fingerprint] = fresh
                    count += 1
                tls.install(pattern, fresh,
                            default=tls.default_certificate is cert)
        return count

    def server_for(self, apex: str) -> Optional[AuthoritativeServer]:
        return self._domain_servers.get(apex)

    def fresh_ip(self, role: str = "web") -> IpAddress:
        pool = {"dns": self.dns_ip_pool, "web": self.web_ip_pool,
                "mx": self.mx_ip_pool}[role]
        return pool.allocate()
