"""The instrumented SMTP scanning client (paper §4.1).

The probe reproduces the paper's measurement steps exactly:

(a) connect from a host with forward-confirmed reverse DNS;
(b) EHLO with a name matching that reverse DNS, falling back to HELO
    when EHLO is unsupported, and note whether STARTTLS is offered;
(c) issue STARTTLS and retrieve the server certificate (without
    aborting on validation failure — the certificate is analysed
    offline);
(d) close without delivering mail.

The :class:`ProbeResult` carries both the raw certificate and its
offline PKIX verdict so the measurement layer can build Figures 6/7.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro import trace
from repro.clock import Clock
from repro.dns.name import DnsName, canonical_host
from repro.dns.records import RRType
from repro.dns.resolver import Resolver
from repro.errors import DnsError, NetworkError, TlsError, TlsFailure
from repro.netsim.ip import IpAddress
from repro.netsim.network import Network
from repro.netsim.retry import (
    DEFAULT_RETRY_POLICY, RetryPolicy, connect_with_retries,
)
from repro.pki.ca import TrustStore
from repro.pki.certificate import Certificate
from repro.pki.validation import (
    ValidationResult, classify_failure, validate_chain_cached,
)
from repro.smtp.server import (
    SMTP_PORT, MxHost, speaks_smtp as _speaks_smtp,
)
from repro.tls.handshake import handshake


@dataclass
class ProbeResult:
    """Everything one STARTTLS probe of one MX host learned."""

    mx_hostname: str
    reachable: bool = False
    ehlo_code: Optional[int] = None
    used_helo_fallback: bool = False
    starttls_offered: bool = False
    greylisted: bool = False
    certificate: Optional[Certificate] = None
    tls_failure: Optional[TlsFailure] = None
    validation: Optional[ValidationResult] = None
    detail: str = ""
    #: The probe failed on a fault-injected transient error that
    #: survived the retry budget; a host that recovered within the
    #: budget produces a result indistinguishable from a healthy one.
    transient: bool = False

    @property
    def tls_established(self) -> bool:
        return self.certificate is not None

    @property
    def cert_valid(self) -> bool:
        return self.validation is not None and self.validation.valid

    def failure_class(self) -> str:
        """The paper's per-MX error bucket (valid/cn-mismatch/...)."""
        if not self.reachable:
            return "unreachable"
        if not self.starttls_offered:
            return "no-starttls"
        if self.tls_failure is not None and self.certificate is None:
            return "tls-" + self.tls_failure.value
        if self.validation is None:
            return "not-validated"
        return classify_failure(self.validation)


class SmtpProbe:
    """Scans MX hosts over the simulated network."""

    def __init__(self, network: Network, resolver: Resolver,
                 trust_store: TrustStore, clock: Clock,
                 *, client_name: str = "scanner.netsecurelab.org",
                 client_ip: IpAddress | None = None,
                 retry_greylist: bool = True,
                 cache_enabled: bool = False,
                 retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY):
        self._network = network
        self._resolver = resolver
        self._trust_store = trust_store
        self._clock = clock
        self._retry_policy = retry_policy
        self.client_name = client_name
        #: The scanner's own address; with forward and PTR records
        #: published for (client_name, client_ip) the probe satisfies
        #: FCrDNS-checking MTAs, per the §4.1 methodology.
        self.client_ip = client_ip
        self.retry_greylist = retry_greylist
        #: Per-snapshot memoization: thousands of domains share the same
        #: provider MX hosts (aspmx.l.google.com &c), and a host's probe
        #: outcome is a function of the host, not of the domain pointing
        #: at it — so each hostname is probed once per scan snapshot.
        #: Off by default because a cached result goes stale the moment
        #: simulated infrastructure mutates; the scan drivers
        #: (:class:`~repro.measurement.executor.ScanExecutor`,
        #: ``Scanner.scan_all``) enable it for the duration of one
        #: snapshot scan and flush it between snapshots.
        self.cache_enabled = cache_enabled
        self._cache: Dict[str, ProbeResult] = {}
        self._cache_lock = threading.Lock()
        self.probes_performed = 0
        self.cache_hits = 0
        #: Optional shard-scan journal (process backend): each *settled*
        #: probe execution — the memoizable work a sibling worker may
        #: duplicate — is recorded with its network/DNS/PKIX cost so the
        #: parent can merge per-worker counters back to serial-exact
        #: totals.  Only consulted on the memoized path; single-threaded
        #: use only.
        self.journal = None

    def probe_host(self, mx_hostname: str | DnsName) -> ProbeResult:
        """Probe one MX hostname: resolve, connect, EHLO, STARTTLS.

        With :attr:`cache_enabled` set, a hostname is probed at most
        once between :meth:`flush_cache` calls; repeat calls return the
        memoized :class:`ProbeResult`.  The lock keeps the memoization
        compute-once for concurrent callers, so every caller observes
        an identical per-host probe sequence.
        """
        name_text = canonical_host(mx_hostname)
        tracer = trace.current_tracer() if trace.TRACING else None
        if not self.cache_enabled:
            self.probes_performed += 1
            if tracer is None:
                return self._probe_uncached(name_text)
            tracer.metrics.count("smtp.probes")
            with tracer.resource(f"probe:{name_text}", "smtp-probe",
                                 name_text):
                return self._probe_uncached(name_text)
        with self._cache_lock:
            cached = self._cache.get(name_text)
            if cached is not None:
                self.cache_hits += 1
                if tracer is not None:
                    tracer.metrics.count("smtp.cache_hits")
                return cached
            self.probes_performed += 1
            journal = self.journal
            token = journal.probe_started() if journal is not None else None
            if tracer is None:
                result = self._probe_uncached(name_text)
            else:
                tracer.metrics.count("smtp.probes")
                with tracer.resource(f"probe:{name_text}", "smtp-probe",
                                     name_text):
                    result = self._probe_uncached(name_text)
            if journal is not None:
                journal.probe_finished(name_text, result.transient, token)
            # A retry-exhausted transient verdict says nothing durable
            # about the host — memoizing it would serve a stale failure
            # after the endpoint recovers, so only settled outcomes
            # (success or deterministic hard failure) are cached.
            if not result.transient:
                self._cache[name_text] = result
            return result

    def flush_cache(self) -> None:
        with self._cache_lock:
            self._cache.clear()

    def cache_stats(self) -> Dict[str, int | float]:
        lookups = self.probes_performed + self.cache_hits
        return {
            "probes": self.probes_performed,
            "cache_hits": self.cache_hits,
            "hit_rate": self.cache_hits / lookups if lookups else 0.0,
            "entries": len(self._cache),
        }

    def reset_stats(self) -> None:
        self.probes_performed = 0
        self.cache_hits = 0

    def _probe_uncached(self, name_text: str) -> ProbeResult:
        result = ProbeResult(mx_hostname=name_text)

        try:
            name = DnsName.parse(name_text)
            addresses = self._resolver.resolve_address(name)
        except (ValueError, DnsError) as exc:
            result.detail = f"dns: {exc}"
            result.transient = getattr(exc, "transient", False)
            trace.event("probe-dns", outcome=str(exc),
                        transient=result.transient)
            return result
        trace.event("probe-dns", outcome=f"ok:{len(addresses)}")

        server = None
        for address in addresses:
            try:
                server = connect_with_retries(
                    self._network, address, SMTP_PORT,
                    policy=self._retry_policy,
                    key=f"smtp:{name_text}:{address.text}")
                break
            except NetworkError as exc:
                result.detail = f"tcp: {exc}"
                result.transient = getattr(exc, "transient", False)
        if not _speaks_smtp(server):
            trace.event("probe-tcp", outcome=result.detail or "no-smtp",
                        transient=result.transient)
            return result
        result.reachable = True
        result.transient = False
        trace.event("probe-tcp", outcome="connected")

        server.greet()
        ehlo = server.ehlo(self.client_name, self.client_ip)
        if ehlo.code == 451:
            result.greylisted = True
            trace.event("greylisted", retry=self.retry_greylist)
            if not self.retry_greylist:
                result.ehlo_code = ehlo.code
                result.detail = "greylisted"
                return result
            # retry after greylist
            ehlo = server.ehlo(self.client_name, self.client_ip)
        if ehlo.code == 554:
            result.ehlo_code = ehlo.code
            result.detail = "rejected (FCrDNS policy)"
            trace.event("ehlo", code=ehlo.code, outcome="rejected")
            return result
        if ehlo.code == 502:
            result.used_helo_fallback = True
            ehlo = server.helo(self.client_name)
            trace.event("helo-fallback", code=ehlo.code)
        result.ehlo_code = ehlo.code
        result.starttls_offered = ehlo.starttls_offered
        trace.event("ehlo", code=ehlo.code,
                    starttls=ehlo.starttls_offered)
        if not ehlo.starttls_offered:
            result.detail = "starttls not offered"
            return result

        # STARTTLS: retrieve the certificate without inline validation,
        # then validate offline (the scanner never aborts on a bad cert).
        try:
            session = handshake(server.starttls_endpoint(), name_text)
        except TlsError as exc:
            result.tls_failure = exc.failure
            result.detail = str(exc)
            trace.event("starttls", outcome=exc.failure.value)
            return result
        result.certificate = session.certificate
        result.validation = validate_chain_cached(
            session.certificate, name_text, self._trust_store,
            self._clock.now())
        trace.event("starttls", outcome="established",
                    verdict=result.failure_class())
        return result

    def probe_domain(self, domain: str | DnsName) -> list[ProbeResult]:
        """Probe every MX of *domain* (or its apex A record fallback)."""
        if isinstance(domain, str):
            domain = DnsName.parse(domain)
        mx_answer = self._resolver.try_resolve(domain, RRType.MX)
        hostnames: list[str] = []
        if mx_answer is not None:
            records = sorted(mx_answer.records,
                             key=lambda r: (r.preference, r.exchange.text))  # type: ignore[attr-defined]
            hostnames = [r.exchange.text for r in records]  # type: ignore[attr-defined]
        else:
            # Implicit MX: fall back to the apex A/AAAA record (§2.2.3).
            apex = self._resolver.try_resolve(domain, RRType.A)
            if apex is not None:
                hostnames = [domain.text]
        return [self.probe_host(h) for h in hostnames]
