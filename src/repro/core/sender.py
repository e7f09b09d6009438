"""An MTA-STS-compliant sending MTA (RFC 8461 §5).

:class:`MtaStsSender` wraps the protocol-only
:class:`~repro.smtp.delivery.SendingMta` with the validation sequence
of Figure 1: discover the policy (honouring the TOFU cache), gate MX
selection on the policy's ``mx`` patterns, and gate final delivery on
PKIX certificate validation — refusing in ``enforce`` mode, proceeding
with a report in ``testing`` mode.

The optional DANE hook reproduces §6.2's sender taxonomy, including
the known Postfix-milter bug where MTA-STS is (wrongly) preferred over
DANE when both are available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.clock import Clock
from repro.core.cache import PolicyCache
from repro.core.dane import DaneValidator
from repro.core.fetch import PolicyFetcher
from repro.core.policy import Policy, PolicyMode
from repro.core.matching import policy_covers_mx
from repro.dns.resolver import Resolver
from repro.netsim.network import Network
from repro.pki.ca import TrustStore
from repro.pki.certificate import Certificate
from repro.pki.validation import validate_chain
from repro.smtp.delivery import DeliveryAttempt, Message, SendingMta


@dataclass(frozen=True, slots=True)
class SenderPolicyConfig:
    """Which transport-security validations this sender performs."""

    validate_mta_sts: bool = True
    validate_dane: bool = False
    prefer_mta_sts_over_dane: bool = False   # the §6.2 milter bug
    require_pkix_always: bool = False


@dataclass
class ValidationEvent:
    """One observable sender decision, for the §6 testbed to record."""

    domain: str
    mechanism: str          # mta-sts | dane | opportunistic | pkix
    action: str             # fetched-policy | matched | refused | delivered
    detail: str = ""


class MtaStsSender:
    """A sending MTA that implements MTA-STS (and optionally DANE)."""

    __slots__ = ("identity", "reporter", "_clock", "_trust_store",
                 "_fetcher", "_dane", "config", "cache", "record_events",
                 "events", "_mta", "_active_policy", "_active_mechanism")

    def __init__(self, identity: str, network: Network, resolver: Resolver,
                 trust_store: TrustStore, clock: Clock,
                 fetcher: PolicyFetcher,
                 *, config: Optional[SenderPolicyConfig] = None,
                 dane: Optional[DaneValidator] = None,
                 reporter=None,
                 cache: Optional[PolicyCache] = None,
                 record_events: bool = True):
        """*reporter* is an optional
        :class:`repro.core.reporting.ReportCollector`; when present the
        sender feeds it RFC 8460 session results (successes, policy
        fetch errors, certificate failures) per recipient domain.

        *cache* injects an existing :class:`PolicyCache` (a rehydrated
        one after a restart, per RFC 8461's persistent-cache advice);
        by default the sender owns a fresh cache.  *record_events*
        turns the :class:`ValidationEvent` log off for high-volume
        campaigns, where an unbounded per-delivery event list would
        dominate memory."""
        self.identity = identity
        self.reporter = reporter
        self._clock = clock
        self._trust_store = trust_store
        self._fetcher = fetcher
        self._dane = dane
        self.config = config or SenderPolicyConfig()
        self.cache = cache if cache is not None else PolicyCache(clock)
        self.record_events = record_events
        self.events: List[ValidationEvent] = []
        self._mta = SendingMta(
            identity, network, resolver, trust_store, clock,
            require_pkix=self.config.require_pkix_always,
            security_gate=self._gate,
            mx_preflight=self._preflight)
        self._active_policy: Optional[Policy] = None
        self._active_mechanism: str = "opportunistic"

    # -- policy discovery -------------------------------------------------

    def _discover_policy(self, domain: str) -> Optional[Policy]:
        """Return the applicable policy, honouring cache and record id."""
        record_result = self._fetcher.lookup_record(domain)
        record = record_result.record
        record_id = record.id if record is not None else None

        cached = self.cache.get(domain)
        if cached is not None and not self.cache.needs_refresh(domain, record_id):
            return cached.policy

        if record is None:
            # No (valid) record: nothing new to fetch.  A still-fresh
            # cached policy remains authoritative (TOFU).
            return cached.policy if cached is not None else None

        fetch = self._fetcher.fetch_policy(domain)
        if fetch.policy is not None and fetch.failed_stage is None:
            self.cache.store(domain, fetch.policy, record.id)
            if self.record_events:
                self.events.append(ValidationEvent(
                    domain, "mta-sts", "fetched-policy",
                    f"id={record.id} mode={fetch.policy.mode.value}"))
            if self.reporter is not None:
                from repro.core.policy import render_policy
                self.reporter.record_policy(
                    domain, "sts",
                    tuple(render_policy(fetch.policy).strip()
                          .split("\r\n")))
            return fetch.policy
        # Fetch failed: keep honouring a fresh cached policy; otherwise
        # the sender degrades to opportunistic TLS (the downgrade window
        # the paper warns about).
        stage = fetch.failed_stage.value if fetch.failed_stage else ""
        if self.record_events:
            self.events.append(ValidationEvent(
                domain, "mta-sts", "fetch-failed", stage))
        if self.reporter is not None:
            from repro.core.reporting import result_type_for_fetch_stage
            self.reporter.record_policy(domain, "sts", ())
            self.reporter.record_failure(
                domain, result_type_for_fetch_stage(stage), detail=stage)
        return cached.policy if cached is not None else None

    # -- gates wired into the SendingMta ------------------------------------

    def _preflight(self, domain: str, mx_hostname: str) -> tuple:
        policy = self._active_policy
        if policy is None or policy.mode is PolicyMode.NONE:
            return True, "no-policy"
        if policy_covers_mx(policy, mx_hostname):
            return True, "mx-matched"
        if policy.mode is PolicyMode.ENFORCE:
            if self.record_events:
                self.events.append(ValidationEvent(
                    domain, "mta-sts", "refused",
                    f"{mx_hostname} matches no mx pattern"))
            return False, "mx-pattern-mismatch"
        if self.record_events:
            self.events.append(ValidationEvent(
                domain, "mta-sts", "testing-mismatch",
                f"{mx_hostname} matches no mx pattern (testing mode)"))
        return True, "testing-mode-mismatch"

    def _gate(self, domain: str, mx_hostname: str,
              certificate: Optional[Certificate]) -> tuple:
        if self._active_mechanism == "dane":
            assert self._dane is not None
            verdict = self._dane.verify_mx(mx_hostname, certificate)
            if verdict.matched:
                return True, "dane-matched"
            if self.record_events:
                self.events.append(ValidationEvent(
                    domain, "dane", "refused", verdict.detail))
            return False, f"dane: {verdict.detail}"

        policy = self._active_policy
        if policy is None or policy.mode is PolicyMode.NONE:
            return True, "opportunistic"
        validation = validate_chain(certificate, mx_hostname,
                                    self._trust_store, self._clock.now())
        if validation.valid:
            return True, "pkix-valid"
        if self.reporter is not None and validation.failure is not None:
            from repro.core.reporting import result_type_for_tls_failure
            self.reporter.record_failure(
                domain, result_type_for_tls_failure(
                    validation.failure.value),
                mx_hostname=mx_hostname, detail=validation.detail)
        if policy.mode is PolicyMode.ENFORCE:
            if self.record_events:
                self.events.append(ValidationEvent(
                    domain, "mta-sts", "refused",
                    f"{mx_hostname}: {validation.detail}"))
            return False, f"pkix: {validation.detail}"
        if self.record_events:
            self.events.append(ValidationEvent(
                domain, "mta-sts", "testing-cert-failure",
                f"{mx_hostname}: {validation.detail}"))
        return True, "testing-mode-cert-failure"

    # -- public API ----------------------------------------------------------

    def send(self, message: Message, *, attempt: int = 0) -> DeliveryAttempt:
        """Deliver one message; *attempt* is the caller's retry ordinal
        (threaded down to the transport so attempt-scoped faults
        recover across queue retries)."""
        domain = message.recipient_domain
        self._active_policy = None
        self._active_mechanism = "opportunistic"

        has_dane = (self.config.validate_dane and self._dane is not None
                    and self._dane.domain_has_dane(domain))
        policy = (self._discover_policy(domain)
                  if self.config.validate_mta_sts else None)

        # RFC 8461 §2: when DANE TLSA records exist and are usable, DANE
        # takes precedence; honouring MTA-STS instead is the milter bug.
        if has_dane and policy is not None:
            if self.config.prefer_mta_sts_over_dane:
                self._active_mechanism = "mta-sts"
                self._active_policy = policy
            else:
                self._active_mechanism = "dane"
        elif has_dane:
            self._active_mechanism = "dane"
        elif policy is not None:
            self._active_mechanism = "mta-sts"
            self._active_policy = policy

        outcome = self._mta.send(message, attempt=attempt)
        if outcome.delivered:
            if self.record_events:
                self.events.append(ValidationEvent(
                    domain, self._active_mechanism, "delivered"))
            if self.reporter is not None:
                self.reporter.record_success(domain)
        return outcome

    @property
    def last_mechanism(self) -> str:
        return self._active_mechanism
