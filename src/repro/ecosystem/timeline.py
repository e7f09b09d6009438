"""The longitudinal simulator.

The paper's measurement has two cadences:

* **weekly DNS snapshots** (Sep 2021 – Sep 2024) feeding the adoption
  curves (Figures 2/12 and Table 1) — computed analytically from the
  domain plans, no infrastructure needed;
* **monthly component scans** (Nov 2023 – Sep 2024) that fetch
  policies and probe MX hosts (Figures 4-10) — for these the timeline
  *materialises* a live :class:`~repro.ecosystem.world.World` with
  every domain adopted by that date deployed and its scheduled faults
  active, and hands the world to the scanner.

A month has two builds, one per kind of scan.  The campaign's only
build is :class:`IncrementalMaterializer`, which keeps one world and
diffs it from month to month (a first, repeated or earlier month is
built from scratch).  A population scan's block builds from scratch
with :meth:`EcosystemTimeline.materialize` and its ``shard`` argument.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.clock import Instant, WEEK, monthly_instants
from repro.core.policy import Policy
from repro.ecosystem.deployment import (
    DeployedDomain, DomainSpec, deploy_domain, undeploy_domain,
)
from repro.ecosystem.misconfig import Fault, apply_fault
from repro.ecosystem.population import (
    SCAN_SHARDS, DomainPlan, PopulationConfig, TldPopulation,
    contiguous_block, generate_population, partition_names,
)
from repro.ecosystem.providers import (
    EmailProvider, OptOutBehavior, PolicyHostProvider,
    default_email_providers, generic_providers, table2_providers,
)
from repro.ecosystem.world import World

SCAN_START = Instant.from_date(2023, 11, 7)
SCAN_END = Instant.from_date(2024, 9, 29)
SERIES_START = Instant.from_date(2021, 9, 9)
SERIES_END = Instant.from_date(2024, 9, 29)

#: The monthly component-scan instants, month 0 first; the final month
#: is the end of the measurement window.
SCAN_INSTANTS: Tuple[Instant, ...] = tuple(
    monthly_instants(SCAN_START, SCAN_END))
if SCAN_INSTANTS[-1] < SCAN_END:
    SCAN_INSTANTS += (SCAN_END,)


def scan_instant(month_index: int) -> Instant:
    """The instant of scan month *month_index*: the one place a month
    index becomes a date, so every out-of-range month fails alike."""
    if not 0 <= month_index < len(SCAN_INSTANTS):
        raise ValueError(
            f"month {month_index} is outside the scan months "
            f"[0, {len(SCAN_INSTANTS) - 1}]")
    return SCAN_INSTANTS[month_index]


@dataclass
class TimelineConfig:
    population: PopulationConfig = field(default_factory=PopulationConfig)


def population_to_dict(config: PopulationConfig) -> dict:
    """The JSON-serialisable form of a population config.

    Checkpointed campaign state records this so a resumed (or offline)
    run can prove it is continuing the *same* campaign and rebuild an
    identical timeline without the caller re-supplying scale/seed.
    """
    return asdict(config)


def population_from_dict(data: Optional[dict]) -> PopulationConfig:
    """Inverse of :func:`population_to_dict`; unknown keys are ignored
    so configs persisted by newer writers still load."""
    known = {f.name for f in fields(PopulationConfig)}
    return PopulationConfig(**{key: value for key, value in
                               (data or {}).items() if key in known})


def timeline_from_population(data: Optional[dict]) -> "EcosystemTimeline":
    """An :class:`EcosystemTimeline` rebuilt from persisted state."""
    return EcosystemTimeline(TimelineConfig(population_from_dict(data)))


@dataclass
class MaterializedSnapshot:
    """One scan month's live world plus per-domain handles."""

    month_index: int
    instant: Instant
    world: World
    deployed: Dict[str, DeployedDomain]
    policy_providers: Dict[str, PolicyHostProvider]
    email_providers: Dict[str, EmailProvider]
    plans: Dict[str, DomainPlan]
    #: World-build churn behind this snapshot (``deployed_new``,
    #: ``redeployed``, ``certs_renewed``, ``full_rebuild``) — the
    #: campaign monitor's view of how much the world moved this month.
    build_stats: Dict[str, int] = field(default_factory=dict)


class EcosystemTimeline:
    """Owns the domain plans and materialises scan snapshots."""

    def __init__(self, config: Optional[TimelineConfig] = None):
        self.config = config or TimelineConfig()
        self.populations: Dict[str, TldPopulation] = generate_population(
            self.config.population)
        self.scan_instants: List[Instant] = list(SCAN_INSTANTS)

    # -- analytic weekly series (no infrastructure) ---------------------

    def week_of(self, instant: Instant) -> int:
        return max(0, (instant - SERIES_START).seconds // WEEK.seconds)

    def weekly_instants(self) -> List[Instant]:
        out = []
        current = SERIES_START
        while current <= SERIES_END:
            out.append(current)
            current = current + WEEK
        return out

    def all_plans(self) -> List[DomainPlan]:
        return [plan for population in self.populations.values()
                for plan in population.plans]

    def adoption_series(self, tld: str) -> List[Tuple[Instant, int, float]]:
        """Weekly (instant, count, percent-of-MX-domains) for one TLD.

        This is Figure 2's data: the share of the TLD's MX-publishing
        domains that carry an MTA-STS record.
        """
        population = self.populations[tld]
        scaled_total = max(
            1, round(population.mx_domain_total * self.config.population.scale))
        series = []
        for instant in self.weekly_instants():
            week = self.week_of(instant)
            count = sum(1 for plan in population.plans
                        if plan.adopted_by_week(week))
            series.append((instant, count, 100.0 * count / scaled_total))
        return series

    def tlsrpt_series(self, tld: str) -> List[Tuple[Instant, float, float]]:
        """Figure 12: weekly TLSRPT adoption.

        Returns (instant, % of MX domains with TLSRPT, % of MTA-STS
        domains with TLSRPT).
        """
        population = self.populations[tld]
        scaled_total = max(
            1, round(population.mx_domain_total * self.config.population.scale))
        series = []
        for instant in self.weekly_instants():
            week = self.week_of(instant)
            sts_plans = [p for p in population.plans
                         if p.adopted_by_week(week)]
            sts_with_rpt = sum(1 for p in sts_plans
                               if p.has_tlsrpt_at_week(week))
            only = (population.tlsrpt_only_weekly[week]
                    if week < len(population.tlsrpt_only_weekly) else
                    population.tlsrpt_only_weekly[-1])
            total_rpt = only + sts_with_rpt
            pct_of_mx = 100.0 * total_rpt / scaled_total
            pct_of_sts = (100.0 * sts_with_rpt / len(sts_plans)
                          if sts_plans else 0.0)
            series.append((instant, pct_of_mx, pct_of_sts))
        return series

    def table1_rows(self) -> List[dict]:
        """Table 1: per-TLD domain totals and final MTA-STS counts."""
        rows = []
        final_week = self.week_of(SERIES_END)
        for tld, population in self.populations.items():
            if tld not in ("com", "net", "org", "se"):
                continue
            scaled_total = max(
                1, round(population.mx_domain_total
                         * self.config.population.scale))
            count = sum(1 for plan in population.plans
                        if plan.adopted_by_week(final_week))
            rows.append({
                "tld": tld,
                "mx_domains": scaled_total,
                "sts_domains": count,
                "sts_percent": 100.0 * count / scaled_total,
            })
        return rows

    # -- materialisation -------------------------------------------------------

    def materialize(self, month_index: int,
                    shard: Optional[Tuple[int, int]] = None
                    ) -> MaterializedSnapshot:
        """Build the live world for scan month *month_index* from
        scratch (see :class:`IncrementalMaterializer` for the campaign's
        delta-applying build, which starts from this one).

        With ``shard=(index, count)`` the snapshot keeps only worker
        ``index`` of ``count``'s block of the population scan's slices
        (:data:`~repro.ecosystem.population.SCAN_SHARDS` canonical-order
        slices of the adopted domains, blocks cut by
        :func:`~repro.ecosystem.population.contiguous_block`) — the
        process scan backend's per-worker view.  Every adopted plan is
        still deployed and faulted in the full canonical sequence, so
        IP-pool allocation and certificate issuance follow a serial
        build's order; out-of-block domains are then immediately
        undeployed, releasing their zones, listeners, and policies so
        the worker's retained world scales with its block, not the
        population.  The replicated build CPU is the price of that
        order.
        """
        return self._snapshot(self._build_full(month_index, shard=shard))

    def _build_full(self, month_index: int,
                    shard: Optional[Tuple[int, int]] = None) -> "_WorldState":
        instant = scan_instant(month_index)
        week = self.week_of(instant)
        world = World(start=instant)

        state = _WorldState(
            world=world, month_index=month_index,
            policy_providers={p.name: p for p in
                              table2_providers() + generic_providers()},
            email_providers={p.name: p for p in default_email_providers()})
        # The misconfiguration injector consults this registry when a
        # domain migrates between hosting providers (OUTDATED_POLICY).
        world.email_providers = state.email_providers

        adopted = [plan for plan in self.all_plans()
                   if plan.adopted_by_week(week)]
        keep = None
        if shard is not None:
            slices = partition_names([plan.name for plan in adopted],
                                     SCAN_SHARDS)
            block = slices[contiguous_block(len(slices), *shard)]
            keep = {name for names in block for name in names}
        for plan in adopted:
            self._deploy_plan(state, plan, week, month_index)
            if keep is not None and plan.name not in keep:
                deployed = state.deployed.pop(plan.name)
                state.plans.pop(plan.name)
                state.signatures.pop(plan.name)
                undeploy_domain(world, deployed)
        # ``deployed_new`` reports the deploys *performed*, which under
        # a shard build is still the full adopted count — every worker
        # therefore reports the same build churn a serial build would,
        # keeping committed build_stats backend-independent.
        state.last_build_stats = {
            "deployed_new": len(adopted), "redeployed": 0,
            "certs_renewed": 0, "full_rebuild": 1,
        }
        return state

    def _deploy_plan(self, state: "_WorldState", plan: DomainPlan,
                     week: int, month_index: int) -> None:
        spec = self._spec_for(plan, week, month_index, state.world,
                              state.policy_providers, state.email_providers,
                              state.boutique_hosts)
        domain = deploy_domain(state.world, spec)
        for scheduled in plan.faults_at(month_index):
            apply_fault(state.world, domain, scheduled.fault,
                        mx_index=scheduled.mx_index)
        state.deployed[plan.name] = domain
        state.plans[plan.name] = plan
        state.signatures[plan.name] = _plan_signature(plan, week, month_index)

    def _snapshot(self, state: "_WorldState") -> MaterializedSnapshot:
        return MaterializedSnapshot(
            month_index=state.month_index,
            instant=scan_instant(state.month_index),
            world=state.world, deployed=state.deployed,
            policy_providers=state.policy_providers,
            email_providers=state.email_providers, plans=state.plans,
            build_stats=dict(state.last_build_stats))

    def _spec_for(self, plan: DomainPlan, week: int, month_index: int,
                  world: World,
                  policy_providers: Dict[str, PolicyHostProvider],
                  email_providers: Dict[str, EmailProvider],
                  boutique_hosts: Dict[str, PolicyHostProvider]
                  ) -> DomainSpec:
        email_provider = None
        if plan.email_provider is not None:
            email_provider = email_providers.get(plan.email_provider)
            if email_provider is None:
                email_provider = _flawed_provider(
                    plan.email_provider, world, email_providers)
                email_providers[plan.email_provider] = email_provider

        policy_provider = None
        if plan.policy_provider is not None:
            policy_provider = policy_providers[plan.policy_provider]
        elif plan.boutique_policy_host is not None:
            policy_provider = boutique_hosts.get(plan.boutique_policy_host)
            if policy_provider is None:
                policy_provider = PolicyHostProvider(
                    name=plan.boutique_policy_host,
                    sld=plan.boutique_policy_host,
                    cname_pattern="{dash}." + plan.boutique_policy_host,
                    opt_out=OptOutBehavior.NXDOMAIN,
                    delegate_via_cname=False)
                boutique_hosts[plan.boutique_policy_host] = policy_provider

        spec = DomainSpec(
            domain=plan.name,
            dns_provider_sld="dns-provider.net" if plan.dns_third_party else None,
            email_provider=email_provider,
            self_mx_count=plan.self_mx_count,
            policy_provider=policy_provider,
            record_id=f"id{plan.adoption_week:04d}",
        )
        spec.policy = Policy(
            version="STSv1", mode=plan.mode, max_age=604800,
            mx_patterns=tuple(spec.intended_mx()))
        if plan.has_tlsrpt_at_week(week):
            from repro.core.tlsrpt import TlsRptRecord
            spec.tlsrpt = TlsRptRecord(
                "TLSRPTv1", (f"mailto:tls-reports@{plan.name}",))
        return spec


@dataclass
class _WorldState:
    """The long-lived build context behind one (possibly incremental)
    materialisation: the world plus every handle needed to diff it
    against the next month's plan set."""

    world: World
    month_index: int
    policy_providers: Dict[str, PolicyHostProvider]
    email_providers: Dict[str, EmailProvider]
    boutique_hosts: Dict[str, PolicyHostProvider] = field(default_factory=dict)
    deployed: Dict[str, DeployedDomain] = field(default_factory=dict)
    plans: Dict[str, DomainPlan] = field(default_factory=dict)
    #: domain -> the deployment-relevant signature it was built with
    signatures: Dict[str, tuple] = field(default_factory=dict)
    #: churn counters of the most recent (full or delta) build
    last_build_stats: Dict[str, int] = field(default_factory=dict)


def _plan_signature(plan: DomainPlan, week: int, month_index: int) -> tuple:
    """Everything about a plan's materialisation that can change from
    one scan month to the next.

    A plan's spec is otherwise a constant function of the plan (record
    id, mode, providers, MX layout), so a domain only needs redeploying
    when its TLSRPT record flips or its set of active faults changes.
    """
    return (plan.has_tlsrpt_at_week(week),
            tuple(sorted((f.fault.value,
                          -1 if f.mx_index is None else f.mx_index)
                         for f in plan.faults_at(month_index))))


class IncrementalMaterializer:
    """Materialises consecutive scan months by diffing, not rebuilding.

    The from-scratch :meth:`EcosystemTimeline.materialize` rebuilds the
    entire simulated internet for every scan month, although only a few
    percent of domains change between consecutive months (new
    adoptions, fault onsets, TLSRPT flips, the event cohorts).  This
    materializer keeps one long-lived world and, per month, advances
    the clock, renews lapsed certificates (the role monthly rebuilding
    played implicitly), deploys newly adopted domains, and
    redeploys exactly the domains whose :func:`_plan_signature`
    changed.

    Equivalence with full rebuilds is by construction *modulo IP
    addresses* (the allocation order differs, the sharing structure —
    which drives entity classification — does not) and certificate
    validity windows (fresh versus renewed, both valid); every other
    snapshot field is identical, which the equivalence tests assert
    month by month.

    A first month, and any month at or before the current one, is
    built from scratch, exactly as :meth:`EcosystemTimeline.materialize`
    builds it (``build_stats["full_rebuild"]`` reads 1; 0 for a diffed
    month).
    """

    def __init__(self, timeline: EcosystemTimeline):
        self._timeline = timeline
        self._state: Optional[_WorldState] = None

    def materialize(self, month_index: int) -> MaterializedSnapshot:
        timeline = self._timeline
        state = self._state
        if state is None or month_index <= state.month_index:
            self._state = timeline._build_full(month_index)
            return timeline._snapshot(self._state)

        previous_instant = scan_instant(state.month_index)
        instant = scan_instant(month_index)
        week = timeline.week_of(instant)
        world = state.world
        world.clock.advance_to(instant)
        # A fresh world starts with an empty resolver cache; every TTL
        # in the simulation is shorter than a scan interval anyway.
        world.resolver.flush_cache()
        certs_renewed = world.renew_certificates(valid_at=previous_instant)

        deployed_new = redeployed = 0
        for plan in timeline.all_plans():
            if not plan.adopted_by_week(week):
                continue
            existing = state.deployed.get(plan.name)
            if existing is None:
                timeline._deploy_plan(state, plan, week, month_index)
                deployed_new += 1
                continue
            signature = _plan_signature(plan, week, month_index)
            if signature != state.signatures[plan.name]:
                undeploy_domain(world, existing)
                timeline._deploy_plan(state, plan, week, month_index)
                redeployed += 1
        state.month_index = month_index
        state.last_build_stats = {
            "deployed_new": deployed_new, "redeployed": redeployed,
            "certs_renewed": int(certs_renewed), "full_rebuild": 0,
        }
        return timeline._snapshot(state)


_FLAWED_FAULTS = {
    "mx-cert-cn-mismatch": Fault.MX_CERT_CN_MISMATCH,
    "mx-cert-self-signed": Fault.MX_CERT_SELF_SIGNED,
    "mx-cert-expired": Fault.MX_CERT_EXPIRED,
}


def _flawed_provider(name: str, world: World,
                     email_providers: Dict[str, EmailProvider]
                     ) -> EmailProvider:
    """Build a broken MX *pool* inside a large named provider.

    *name* looks like ``MxRouting!mx-cert-cn-mismatch-partial``: the
    customers of this pool get MX hostnames under the base provider's
    registrable domain (so entity classification still sees one popular
    third party), but the pool's servers present broken certificates.
    """
    base_name, _, body = name.partition("!")
    base = email_providers[base_name]
    if body.endswith("-all"):
        fault_key, all_mx = body[:-len("-all")], True
    else:
        fault_key, all_mx = body[:-len("-partial")], False
    fault = _FLAWED_FAULTS[fault_key]
    tag = fault_key.replace("mx-cert-", "").replace("-", "")
    tag += "a" if all_mx else "p"
    provider = EmailProvider(
        name, base.sld,
        mx_hostnames=[f"pool-{tag}1.{base.sld}", f"pool-{tag}2.{base.sld}"])
    provider.deploy(world)

    targets = provider.mx_hosts if all_mx else provider.mx_hosts[:1]
    for host in targets:
        if fault is Fault.MX_CERT_CN_MISMATCH:
            cert = world.issue_cert([f"legacy.{base.sld}"])
        elif fault is Fault.MX_CERT_EXPIRED:
            cert = world.issue_cert([host.hostname], lifetime_days=90,
                                    backdate_days=150)
        else:
            from repro.pki.certificate import CertTemplate, make_self_signed
            cert = make_self_signed(CertTemplate([host.hostname]),
                                    world.now())
        host.tls.install(host.hostname, cert, default=True)
    return provider
