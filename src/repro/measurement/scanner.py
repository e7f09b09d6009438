"""The scan pipeline (paper §4.1).

Given a live world (usually a materialised timeline snapshot), the
:class:`Scanner` performs, for every target domain, the same steps the
paper's monthly component scans performed:

1. DNS scan: ``_mta-sts`` TXT, MX, NS, apex A, policy-host CNAME/A,
   ``_smtp._tls`` TXT;
2. policy retrieval over HTTPS with staged error classification;
3. the instrumented SMTP probe of every MX host.

The output is a :class:`~repro.measurement.snapshots.DomainSnapshot`
per domain, appended to a :class:`SnapshotStore`.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Optional

from repro import trace
from repro.clock import Instant
from repro.core.fetch import PolicyFetcher
from repro.core.tlsrpt import lookup_tlsrpt
from repro.dns.name import canonical_host
from repro.dns.records import RRType
from repro.dns.resolver import Resolver
from repro.ecosystem.world import World
from repro.measurement.snapshots import (
    DomainSnapshot, MxObservation, SnapshotStore,
)
from repro.measurement.taxonomy import primary_bucket
from repro.obs.profile import StageProfiler
from repro.smtp.client import SmtpProbe


class Scanner:
    """Scans domains in one world into snapshot records."""

    def __init__(self, world: World,
                 tracer: Optional[trace.Tracer] = None,
                 profiler: Optional[StageProfiler] = None):
        self._world = world
        self._resolver: Resolver = world.resolver
        self._fetcher = PolicyFetcher(world.resolver, world.https_client)
        self._probe: SmtpProbe = world.smtp_probe
        #: When set, every scanned domain records a span tree on this
        #: tracer (bound as the active tracer for the duration of the
        #: scan so the resolver / HTTPS / SMTP clients report into it).
        self._tracer = tracer
        #: When set, every stage records its *wall-clock* seconds here
        #: (never mixed into the deterministic trace metrics).
        self._profiler = profiler
        #: Domains whose snapshot carried any transient marker —
        #: retry-exhausted injected faults (ScanStats accounting).
        self.transient_domains = 0

    @property
    def policy_fetches(self) -> int:
        """Policy discovery pipelines this scanner has run (ScanStats)."""
        return self._fetcher.fetch_count

    @property
    def tracer(self) -> Optional[trace.Tracer]:
        return self._tracer

    @property
    def profiler(self) -> Optional[StageProfiler]:
        return self._profiler

    def scan_domain(self, domain: str, month_index: int,
                    instant: Optional[Instant] = None) -> DomainSnapshot:
        domain = canonical_host(domain)
        snapshot = DomainSnapshot(
            domain=domain, tld=domain.rsplit(".", 1)[-1],
            month_index=month_index,
            instant=instant or self._world.now())

        if self._tracer is None:
            self._scan_stages(snapshot)
        else:
            with trace.bind(self._tracer), self._tracer.domain_span(
                    domain, month_index,
                    snapshot.instant.epoch_seconds) as span:
                self._scan_stages(snapshot)
                span.event("verdict", bucket=primary_bucket(snapshot),
                           transient=snapshot.any_transient)
        if snapshot.any_transient:
            self.transient_domains += 1
        return snapshot

    def _scan_stages(self, snapshot: DomainSnapshot) -> None:
        profiler = self._profiler
        if profiler is None:
            self._scan_dns(snapshot)
            self._scan_policy(snapshot)
            self._scan_mx(snapshot)
            return
        started = time.perf_counter()
        for stage, scan in (("dns", self._scan_dns),
                            ("policy", self._scan_policy),
                            ("mx", self._scan_mx)):
            stage_started = time.perf_counter()
            scan(snapshot)
            profiler.record_stage(
                stage, time.perf_counter() - stage_started)
        profiler.record_domain(snapshot.domain, snapshot.month_index,
                               time.perf_counter() - started)

    def scan_all(self, domains: Iterable[str], month_index: int,
                 store: Optional[SnapshotStore] = None,
                 instant: Optional[Instant] = None,
                 on_domain: Optional[Callable[[str], None]] = None,
                 ) -> SnapshotStore:
        """Scan every domain into *store* at one shared *instant*.

        The instant is resolved once and threaded through to every
        :meth:`scan_domain` call, so all snapshots of one scan month
        carry the same timestamp even if the world clock moves while
        the scan is in flight.  *on_domain* is the progress hook: it is
        called with each domain after its snapshot lands in the store.
        """
        store = store if store is not None else SnapshotStore()
        instant = instant if instant is not None else self._world.now()
        for domain in domains:
            store.add(self.scan_domain(domain, month_index, instant))
            if on_domain is not None:
                on_domain(domain)
        return store

    # -- stages -------------------------------------------------------------

    def _scan_dns(self, snapshot: DomainSnapshot) -> None:
        domain = snapshot.domain
        with trace.child_span("dns", domain):
            ns, error = self._resolver.resolve_detailed(domain, RRType.NS)
            self._note_transient(snapshot, error)
            if ns is not None:
                snapshot.ns_hostnames = sorted(
                    r.nsdname.text for r in ns.records)   # type: ignore[attr-defined]
            if trace.TRACING:
                trace.event("lookup", rrtype="NS",
                            outcome=self._lookup_outcome(ns, error))
            apex_a, error = self._resolver.resolve_detailed(
                domain, RRType.A)
            self._note_transient(snapshot, error)
            if apex_a is not None:
                snapshot.apex_addresses = sorted(
                    r.address.text for r in apex_a.records)  # type: ignore[attr-defined]
            if trace.TRACING:
                trace.event("lookup", rrtype="A",
                            outcome=self._lookup_outcome(apex_a, error))
            mx, error = self._resolver.resolve_detailed(domain, RRType.MX)
            self._note_transient(snapshot, error)
            if mx is not None:
                records = sorted(
                    mx.records,
                    key=lambda r: (r.preference, r.exchange.text))  # type: ignore[attr-defined]
                snapshot.mx_hostnames = [r.exchange.text for r in records]  # type: ignore[attr-defined]
            if trace.TRACING:
                trace.event("lookup", rrtype="MX",
                            outcome=self._lookup_outcome(mx, error))
            snapshot.tlsrpt_present = (
                lookup_tlsrpt(self._resolver, domain) is not None)
            if trace.TRACING:
                trace.event("tlsrpt", present=snapshot.tlsrpt_present)

    @staticmethod
    def _lookup_outcome(answer, error) -> str:
        if answer is not None:
            return f"ok:{len(answer.records)}"
        if error is not None:
            return type(error).__name__
        return "no-answer"

    @staticmethod
    def _note_transient(snapshot: DomainSnapshot, error) -> None:
        if error is not None and getattr(error, "transient", False):
            snapshot.dns_transient = True

    def _scan_policy(self, snapshot: DomainSnapshot) -> None:
        with trace.child_span("policy", snapshot.domain):
            result = self._fetcher.fetch_policy(snapshot.domain)
            snapshot.txt_strings = result.txt_strings
            snapshot.sts_like = result.sts_enabled
            snapshot.policy_transient = result.transient
            snapshot.record_valid = result.record is not None
            if result.record is not None:
                snapshot.record_id = result.record.id
            if result.record_error is not None:
                snapshot.record_error = result.record_error.value
            if not result.sts_enabled:
                return

            snapshot.policy_host_cname = result.policy_host_cname
            if result.fetch is not None:
                snapshot.policy_host_addresses = [
                    ip.text for ip in result.fetch.resolved_ips]
                snapshot.policy_http_status = result.fetch.status
                if result.fetch.tls_failure is not None:
                    snapshot.policy_tls_failure = (
                        result.fetch.tls_failure.value)
            stage = result.failed_stage
            snapshot.policy_fetch_stage = stage.value if stage else None
            if result.policy_check is not None:
                snapshot.policy_syntax_errors = [
                    e.value for e in result.policy_check.errors]
                snapshot.policy_warnings = [
                    w.value for w in result.policy_check.warnings]
            if result.policy is not None:
                snapshot.policy_mode = result.policy.mode.value
                snapshot.policy_max_age = result.policy.max_age
                snapshot.mx_patterns = list(result.policy.mx_patterns)
            if trace.TRACING:
                trace.event(
                    "policy-result",
                    stage=snapshot.policy_fetch_stage or "ok",
                    mode=snapshot.policy_mode or "",
                    syntax_errors=list(snapshot.policy_syntax_errors),
                    warnings=list(snapshot.policy_warnings))

    def _scan_mx(self, snapshot: DomainSnapshot) -> None:
        with trace.child_span("mx", snapshot.domain):
            for hostname in snapshot.mx_hostnames:
                observation = MxObservation(hostname=hostname)
                answer, error = self._resolver.resolve_detailed(
                    hostname, RRType.A)
                if answer is not None:
                    observation.addresses = sorted(
                        r.address.text for r in answer.records)  # type: ignore[attr-defined]
                elif (error is not None
                      and getattr(error, "transient", False)):
                    observation.transient = True
                probe = self._probe.probe_host(hostname)
                observation.reachable = probe.reachable
                observation.starttls = probe.starttls_offered
                observation.tls_established = probe.tls_established
                observation.cert_valid = probe.cert_valid
                observation.failure_class = probe.failure_class()
                observation.transient = (observation.transient
                                         or probe.transient)
                snapshot.mx_observations.append(observation)
                if trace.TRACING:
                    trace.event("mx-host", host=observation.hostname,
                                verdict=observation.failure_class,
                                transient=observation.transient,
                                ref=f"probe:{canonical_host(hostname)}")
