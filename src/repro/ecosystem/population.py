"""Synthetic domain population, calibrated to the paper's measurements.

The paper scanned four TLD zone files (Table 1) and found, at the final
snapshot (2024-09-29), 68,030 domains with MTA-STS records, of which
29.6% were misconfigured.  This module generates a scaled-down
population of :class:`DomainPlan` objects whose attributes — TLD,
adoption date, managing entities, policy mode, fault schedule — are
sampled so that every per-snapshot cross-section reproduces the
paper's reported rates and event spikes.

The generator emits *plans*, not infrastructure; the timeline
(:mod:`repro.ecosystem.timeline`) materialises plans into a
:class:`~repro.ecosystem.world.World` for each scan snapshot.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from repro.core.policy import PolicyMode
from repro.dns.name import canonical_host
from repro.ecosystem.misconfig import RETRIEVAL_BLOCKING, Fault

# --------------------------------------------------------------------------
# Paper-reported anchors (final snapshot, 2024-09-29)
# --------------------------------------------------------------------------

#: Table 1: domains with MX records and with MTA-STS, per TLD.
TABLE1 = {
    "com": {"mx_domains": 73_939_004, "sts_domains": 53_800},
    "net": {"mx_domains": 6_248_969, "sts_domains": 6_183},
    "org": {"mx_domains": 5_781_423, "sts_domains": 7_355},
    "se": {"mx_domains": 822_449, "sts_domains": 692},
}

TOTAL_STS_FINAL = 68_030          # sum of Table 1 sts_domains
INITIAL_ADOPTION_FRACTION = 0.27  # 2021-10 adoption was ~1/3.7 of final

#: §4.3.1/§4.3.3: policy-server managing entities at the final snapshot.
POLICY_ENTITY_SHARE = {"third": 28_591 / TOTAL_STS_FINAL,
                       "self": 25_344 / TOTAL_STS_FINAL}
#: §4.3.4: MX-host managing entities.
MX_ENTITY_SHARE = {"third": 40_683 / TOTAL_STS_FINAL,
                   "self": 23_512 / TOTAL_STS_FINAL}

#: Final-snapshot per-entity policy-server fault rates (Figure 5),
#: exclusive of the Porkbun event cohort which is added separately.
SELF_POLICY_RATES = {
    Fault.POLICY_DNS_UNRESOLVABLE: 42 / 25_344,
    Fault.POLICY_TCP_CLOSED: 130 / 25_344,
    Fault.POLICY_TCP_TIMEOUT: 63 / 25_344,
    # Figure 5's self-managed series sits well above the third-party
    # one in *every* month, not only after the Porkbun cohort (which is
    # added separately) — the persistent CN-mismatch base carries that.
    Fault.POLICY_TLS_CN_MISMATCH: 0.18,
    Fault.POLICY_TLS_SELF_SIGNED: 300 / 25_344,
    Fault.POLICY_TLS_EXPIRED: 186 / 25_344,
    Fault.POLICY_HTTP_404: 250 / 25_344,
    Fault.POLICY_HTTP_500: 127 / 25_344,
    Fault.POLICY_SYNTAX_BAD_MX: 36 / 25_344,
    Fault.POLICY_SYNTAX_MISSING_MODE: 19 / 25_344,
}
THIRD_POLICY_RATES = {
    Fault.POLICY_TLS_NO_CERT: 463 / 28_591,     # the DMARCReport class
    Fault.POLICY_TLS_EXPIRED: 400 / 28_591,
    Fault.POLICY_TLS_SELF_SIGNED: 250 / 28_591,
    Fault.POLICY_HTTP_404: 140 / 28_591,
    Fault.POLICY_HTTP_500: 75 / 28_591,
    Fault.POLICY_SYNTAX_BAD_MX: 76 / 28_591,
    Fault.POLICY_SYNTAX_EMPTY: 5 / 28_591,      # DMARCReport empty files
}
#: Domains whose policy hosting the heuristics cannot classify (small
#: shared hosts) carry the error mass that makes policy-server faults
#: 85% of all misconfigurations: the 20,144 total misconfigured minus
#: the classified policy/MX/record/inconsistency errors leaves roughly
#: 6,200 policy errors among the ~14,000 unclassified domains (~44%).
UNCLASSIFIED_POLICY_RATES = {
    Fault.POLICY_TLS_CN_MISMATCH: 0.24,
    Fault.POLICY_TLS_SELF_SIGNED: 0.05,
    Fault.POLICY_TLS_EXPIRED: 0.04,
    Fault.POLICY_TLS_NO_CERT: 0.02,
    Fault.POLICY_HTTP_404: 0.03,
    Fault.POLICY_SYNTAX_BAD_MX: 0.01,
}

#: Figure 6: MX-certificate fault rates per managing entity.
SELF_MX_RATES = {
    Fault.MX_CERT_CN_MISMATCH: 700 / 23_512,
    Fault.MX_CERT_SELF_SIGNED: 250 / 23_512,
    Fault.MX_CERT_EXPIRED: 96 / 23_512,
}
THIRD_MX_RATES = {
    Fault.MX_CERT_CN_MISMATCH: 200 / 40_683,
    Fault.MX_CERT_SELF_SIGNED: 130 / 40_683,
    Fault.MX_CERT_EXPIRED: 67 / 40_683,
}
#: Fraction of MX-cert-faulty domains where *every* MX is broken
#: (Figure 7: 993/1,046 self, 149/397 third at the final snapshot).
ALL_INVALID_SHARE = {"self": 993 / 1_046, "third": 149 / 397}

#: Figure 8: inconsistency classes at the final snapshot (of 68,030).
INCONSISTENCY_RATES = {
    Fault.MISMATCH_DOMAIN: 379 / TOTAL_STS_FINAL,   # 1,023 minus outdated 644
    Fault.OUTDATED_POLICY: 644 / TOTAL_STS_FINAL,   # Figure 9's 63%
    Fault.MISMATCH_3LD: (730 - 246) / TOTAL_STS_FINAL,
    Fault.MISMATCH_TYPO: 63 / TOTAL_STS_FINAL,
    Fault.MISMATCH_TLD: 90 / TOTAL_STS_FINAL,
}

#: §4.3.2: record-error classes at the final snapshot (331 total).
RECORD_RATES = {
    Fault.RECORD_INVALID_ID: 203 / TOTAL_STS_FINAL,
    Fault.RECORD_MISSING_ID: 65 / TOTAL_STS_FINAL,
    Fault.RECORD_BAD_VERSION: 52 / TOTAL_STS_FINAL,
    Fault.RECORD_INVALID_EXTENSION: 2 / TOTAL_STS_FINAL,
    Fault.RECORD_DUPLICATE: 9 / TOTAL_STS_FINAL,
}

#: Policy modes: enforce share chosen so enforce-mode at-risk counts
#: (269 MX / 406 mismatch) are reachable; remainder mostly testing.
MODE_WEIGHTS = [(PolicyMode.ENFORCE, 0.34), (PolicyMode.TESTING, 0.56),
                (PolicyMode.NONE, 0.10)]

#: Table 2 provider shares among third-party-hosted policy domains.
PROVIDER_CUSTOMERS = {
    "Tutanota": 7_614, "DMARCReport": 7_293, "PowerDMARC": 3_753,
    "EasyDMARC": 2_222, "Mailhardener": 1_558, "URIports": 1_100,
    "Sendmarc": 805, "OnDMARC": 451,
    # The long tail: 28,591 third-party-hosted domains minus Table 2's
    # 24,796 use smaller CNAME-delegating providers.
    "GenericSTS1": 1_700, "GenericSTS2": 1_300, "GenericSTS3": 795,
}

#: Event cohort sizes (paper-reported, pre-scaling).
PORKBUN_COHORT = 7_237            # Aug-2024 onward, bad policy-host certs
DMARCREPORT_SELF_SIGNED_SPIKE = 1_385   # June 8 2024, one month
LUCIDGROW_COHORT = 246            # Jan 23 2024, 3LD+ mismatch, enforce
ORG_ADOPTION_SPIKE = 461          # Jan 2 2024, one .org organisation

#: Number of scan months (Nov 2023 .. Sep 2024 inclusive).
SCAN_MONTHS = 11
LUCIDGROW_MONTH = 2               # Jan 2024
DMARC_SPIKE_MONTH = 7             # Jun 2024
PORKBUN_MONTH = 9                 # Aug 2024

#: Figure 12 anchors: TLSRPT adoption among MTA-STS domains grew from
#: roughly 35% to 70% over the measurement window.
TLSRPT_OF_STS_INITIAL = 0.38
TLSRPT_OF_STS_FINAL = 0.72


@dataclass
class ScheduledFault:
    """A fault active during scan months [start, end)."""

    fault: Fault
    start_month: int = 0
    end_month: Optional[int] = None     # None = persists to the end
    mx_index: Optional[int] = 0         # None = every MX

    def active(self, month: int) -> bool:
        if month < self.start_month:
            return False
        return self.end_month is None or month < self.end_month


@dataclass
class DomainPlan:
    """Everything needed to materialise one domain at any instant."""

    name: str
    tld: str
    adoption_week: int                    # weeks after the scan start
    mode: PolicyMode = PolicyMode.TESTING
    policy_provider: Optional[str] = None   # Table-2 name, or boutique id
    email_provider: Optional[str] = None
    dns_third_party: bool = False
    boutique_policy_host: Optional[str] = None   # unclassifiable hosting
    self_mx_count: int = 1
    faults: List[ScheduledFault] = field(default_factory=list)
    tlsrpt_week: Optional[int] = None
    tlsrpt_revoke_week: Optional[int] = None
    tranco_rank: Optional[int] = None
    #: MX migration month for OUTDATED_POLICY plans (the scanner sees
    #: the old MX before this month, the new one after).
    mx_migration_month: Optional[int] = None

    def faults_at(self, month: int) -> List[ScheduledFault]:
        return [f for f in self.faults if f.active(month)]

    def adopted_by_week(self, week: int) -> bool:
        return self.adoption_week <= week

    def has_tlsrpt_at_week(self, week: int) -> bool:
        if self.tlsrpt_week is None or week < self.tlsrpt_week:
            return False
        return (self.tlsrpt_revoke_week is None
                or week < self.tlsrpt_revoke_week)


@dataclass
class TldPopulation:
    """One TLD's synthetic registry."""

    tld: str
    mx_domain_total: int            # metadata: Table 1's denominator
    plans: List[DomainPlan] = field(default_factory=list)
    #: weekly count of *non-STS* domains with TLSRPT (Figure 12 top).
    tlsrpt_only_weekly: List[int] = field(default_factory=list)


@dataclass
class PopulationConfig:
    """Knobs for the generator."""

    scale: float = 0.05              # 1.0 = paper-scale (68k STS domains)
    seed: int = 20240929
    total_weeks: int = 160          # 2021-09 .. 2024-09 weekly snapshots
    scan_months: int = SCAN_MONTHS
    include_events: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.scale < math.inf:
            raise ValueError(
                f"scale must be a finite number > 0, got {self.scale}")

    def scaled(self, count: int | float) -> int:
        return max(1, round(count * self.scale)) if count > 0 else 0


#: Week index (from 2021-09-09) of the first component scan (2023-11-07).
FIRST_SCAN_WEEK = 113


def _first_scan_month(adoption_week: int) -> int:
    """The first scan-month index at which a domain adopted at
    *adoption_week* is visible (0 for pre-window adopters)."""
    if adoption_week <= FIRST_SCAN_WEEK:
        return 0
    return min(SCAN_MONTHS - 1,
               (adoption_week - FIRST_SCAN_WEEK + 3) // 4)


def _interp(initial: float, final: float, month: int, months: int) -> float:
    if months <= 1:
        return final
    return initial + (final - initial) * month / (months - 1)


class _Sampler:
    """Deterministic sampling helpers around one RNG."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def pick_mode(self) -> PolicyMode:
        roll = self.rng.random()
        acc = 0.0
        for mode, weight in MODE_WEIGHTS:
            acc += weight
            if roll < acc:
                return mode
        return PolicyMode.TESTING

    def onset_month(self, months: int) -> int:
        """Sample a fault onset so cross-sections grow roughly linearly:
        ~60% of final faults existed at month 0, the rest appear
        uniformly over the window."""
        if self.rng.random() < 0.6:
            return 0
        return self.rng.randrange(1, max(2, months))

    def adoption_week(self, total_weeks: int) -> int:
        """Quadratic-growth adoption curve: a 3-4x rise over the window
        (Figure 2), so |adopters by week w| ~ a + (1-a) * (w/W)^2."""
        u = self.rng.random()
        a = INITIAL_ADOPTION_FRACTION
        if u < a:
            return 0
        return int(total_weeks * (((u - a) / (1 - a)) ** 0.5))


def generate_population(config: PopulationConfig) -> Dict[str, TldPopulation]:
    """Generate the full synthetic registry, keyed by TLD."""
    rng = random.Random(config.seed)
    sampler = _Sampler(rng)
    populations: Dict[str, TldPopulation] = {}
    serial = 0

    provider_quota = _scaled_provider_quota(config)
    boutique_cycle = 0

    for tld, anchors in TABLE1.items():
        population = TldPopulation(tld=tld,
                                   mx_domain_total=anchors["mx_domains"])
        sts_count = config.scaled(anchors["sts_domains"])
        for _ in range(sts_count):
            serial += 1
            plan = _make_plan(f"domain{serial:06d}.{tld}", tld, config,
                              sampler, provider_quota)
            boutique_cycle = _assign_boutique(plan, boutique_cycle, rng)
            population.plans.append(plan)
        populations[tld] = population

    if config.include_events:
        serial = _add_event_cohorts(populations, config, sampler, serial)

    _assign_tlsrpt(populations, config, rng)
    return populations


# --------------------------------------------------------------------------
# Deterministic sharding (the process scan backend's population API)
# --------------------------------------------------------------------------

def canonical_names(names: Iterable[str]) -> List[str]:
    """*names* canonicalised, deduplicated and sorted: the order every
    scan walks and every shard plan cuts."""
    return sorted({canonical_host(n) for n in names} - {""})


def partition_names(names: Iterable[str], shards: int) -> List[List[str]]:
    """Cut a name set into *shards* contiguous canonical-order slices.

    The single source of truth for how any domain set is split across
    workers: names are canonicalised, deduplicated, sorted, and cut
    into contiguous slices whose sizes differ by at most one (earlier
    slices take the remainder).  Deterministic under input order,
    case, and trailing dots, so a parent process and its shard workers
    always agree on who owns which domain.  ``shards`` is clamped to
    the name count (an empty input yields one empty slice) — callers
    needing exactly N slices pad with empties.
    """
    ordered = canonical_names(names)
    shards = max(1, min(shards, len(ordered)) if ordered else 1)
    base, remainder = divmod(len(ordered), shards)
    slices: List[List[str]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < remainder else 0)
        slices.append(ordered[start:start + size])
        start += size
    return slices


def iter_population(config: PopulationConfig) -> Iterator[DomainPlan]:
    """Every :class:`DomainPlan`, in deterministic generation order.

    Generation itself cannot stream: one sequential RNG feeds every
    plan, the event cohorts *mutate earlier plans* (the DMARCReport
    spike adds faults to already-generated delegated domains), and
    TLSRPT assignment draws per plan across the whole set.  Laziness
    therefore means deterministic *slicing* of the finished
    population, not incremental generation — this iterator is the
    streaming view, :func:`shard_plans` the shard-range view.
    """
    populations = generate_population(config)
    for population in populations.values():
        yield from population.plans


def shard_plans(config: PopulationConfig, index: int,
                count: int) -> List[DomainPlan]:
    """The plans in shard ``index`` of ``count`` canonical-order slices.

    The union of ``shard_plans(config, i, n)`` over ``i in range(n)``
    is exactly ``generate_population(config)``'s plan set, for any
    shard count — the property the process scan backend's workers rely
    on to jointly cover the population without coordination.  Slices
    past the population size are empty.
    """
    if count < 1:
        raise ValueError("shard count must be >= 1")
    if not 0 <= index < count:
        raise ValueError(f"shard index {index} outside [0, {count})")
    plans = {canonical_host(plan.name): plan
             for plan in iter_population(config)}
    slices = partition_names(plans.keys(), count)
    if index >= len(slices):
        return []
    return [plans[name] for name in slices[index]]


def _scaled_provider_quota(config: PopulationConfig) -> Dict[str, int]:
    return {name: config.scaled(count)
            for name, count in PROVIDER_CUSTOMERS.items()}


def _pick_policy_provider(quota: Dict[str, int],
                          rng: random.Random) -> Optional[str]:
    available = [name for name, left in quota.items() if left > 0]
    if not available:
        return None
    weights = [quota[name] for name in available]
    choice = rng.choices(available, weights=weights, k=1)[0]
    quota[choice] -= 1
    return choice


def _make_plan(name: str, tld: str, config: PopulationConfig,
               sampler: _Sampler, provider_quota: Dict[str, int]
               ) -> DomainPlan:
    rng = sampler.rng
    plan = DomainPlan(name=name, tld=tld,
                      adoption_week=sampler.adoption_week(config.total_weeks),
                      mode=sampler.pick_mode())

    # --- managing entities --------------------------------------------
    policy_roll = rng.random()
    if policy_roll < POLICY_ENTITY_SHARE["third"]:
        plan.policy_provider = _pick_policy_provider(provider_quota, rng)
        if plan.policy_provider is None:
            plan.boutique_policy_host = "pending"
    elif policy_roll < (POLICY_ENTITY_SHARE["third"]
                        + POLICY_ENTITY_SHARE["self"]):
        plan.policy_provider = None
    else:
        plan.boutique_policy_host = "pending"   # unclassifiable hosting

    mx_roll = rng.random()
    if plan.policy_provider == "Tutanota":
        # Tutanota bundles email hosting with policy hosting.
        plan.email_provider = "Tutanota"
    elif mx_roll < MX_ENTITY_SHARE["third"]:
        plan.email_provider = rng.choices(
            ["Google", "Microsoft", "Yahoo", "MxRouting", "MxAscen",
             "CheapMail"],
            weights=[40, 28, 10, 8, 7, 7], k=1)[0]
    else:
        plan.email_provider = None
        plan.self_mx_count = rng.choices([1, 2, 3], weights=[70, 25, 5])[0]
    plan.dns_third_party = rng.random() < 0.55

    if plan.email_provider == "MxAscen":
        # The §4.3.1 single-administrator group: 4,722 domains sharing
        # one MX, one policy-hosting IP — popular-looking yet
        # self-managed.  All of them share one policy host.
        plan.boutique_policy_host = "policyfarm.mxascen.com"
        plan.policy_provider = None

    # --- fault schedule ---------------------------------------------------
    months = config.scan_months
    _sample_faults(plan, RECORD_RATES, sampler, months)
    if plan.boutique_policy_host == "policyfarm.mxascen.com":
        # The single-admin group is competently run; only per-customer
        # faults at self-managed rates, never host-wide ones.
        _sample_faults(plan, {f: r for f, r in SELF_POLICY_RATES.items()
                              if f not in (Fault.POLICY_DNS_UNRESOLVABLE,
                                           Fault.POLICY_TCP_CLOSED,
                                           Fault.POLICY_TCP_TIMEOUT)},
                       sampler, months, at_most_one_of=RETRIEVAL_BLOCKING)
    elif plan.boutique_policy_host is not None:
        _sample_faults(plan, UNCLASSIFIED_POLICY_RATES, sampler, months,
                       at_most_one_of=RETRIEVAL_BLOCKING)
    elif plan.policy_provider is None:
        _sample_faults(plan, SELF_POLICY_RATES, sampler, months,
                       at_most_one_of=RETRIEVAL_BLOCKING)
    else:
        _sample_faults(plan, THIRD_POLICY_RATES, sampler, months,
                       at_most_one_of=RETRIEVAL_BLOCKING)

    if plan.email_provider is None:
        for fault, rate in SELF_MX_RATES.items():
            if sampler.rng.random() < rate:
                all_mx = sampler.rng.random() < ALL_INVALID_SHARE["self"]
                plan.faults.append(ScheduledFault(
                    fault, sampler.onset_month(months),
                    mx_index=None if all_mx else 0))
                break   # one certificate fault class per domain
    elif plan.email_provider not in ("Tutanota", "MxAscen"):
        # A broken certificate on a *shared* provider MX farm would hit
        # every customer at once, so third-party MX faults are modelled
        # as assignment to a broken MX *pool inside a large provider*
        # (the mxrouting.net pattern: one provider accounts for 39% of
        # broken third-party domains).  Pool members keep the
        # provider's registrable domain, so entity classification still
        # sees a popular third party.
        for fault, rate in THIRD_MX_RATES.items():
            if sampler.rng.random() < rate:
                all_mx = sampler.rng.random() < ALL_INVALID_SHARE["third"]
                suffix = "all" if all_mx else "partial"
                pool_provider = ("MxRouting"
                                 if fault is Fault.MX_CERT_CN_MISMATCH
                                 else "CheapMail")
                plan.email_provider = f"{pool_provider}!{fault.value}-{suffix}"
                break

    blocking = {f.fault for f in plan.faults} & RETRIEVAL_BLOCKING
    # Inconsistencies concentrate where policy and email management are
    # split (Figure 10): same-provider-for-both domains (Tutanota) are
    # effectively immune, split-management domains are over-represented.
    if not blocking and plan.policy_provider != "Tutanota":
        # Figure 10: 3.4% of split-management domains are inconsistent
        # versus ~2.6% elsewhere; with Tutanota immune, the split pool
        # needs roughly a 2.2x weighting over the base rates.
        split_management = (plan.policy_provider is not None
                            and plan.email_provider is not None)
        factor = 2.2 if split_management else 1.0
        for fault, rate in INCONSISTENCY_RATES.items():
            if sampler.rng.random() < rate * factor:
                if fault is Fault.OUTDATED_POLICY:
                    # Migrations accumulate over the window (Figure 9's
                    # rising matched-by-history share) and need at least
                    # one pre-migration snapshot *after* the domain's
                    # adoption — otherwise the stale patterns can never
                    # be matched against history.
                    first_scan = _first_scan_month(plan.adoption_week)
                    onset = sampler.rng.randrange(
                        first_scan + 1, max(first_scan + 2, months))
                    plan.mx_migration_month = onset
                else:
                    onset = sampler.onset_month(months)
                plan.faults.append(ScheduledFault(fault, onset))
                break   # inconsistency classes are mutually exclusive

    return plan


def _sample_faults(plan: DomainPlan, rates: Dict[Fault, float],
                   sampler: _Sampler, months: int,
                   at_most_one_of: frozenset = frozenset()) -> None:
    picked_blocking = False
    for fault, rate in rates.items():
        if sampler.rng.random() >= rate:
            continue
        if fault in at_most_one_of:
            if picked_blocking:
                continue
            picked_blocking = True
        plan.faults.append(ScheduledFault(fault, sampler.onset_month(months)))


def _assign_boutique(plan: DomainPlan, cycle: int,
                     rng: random.Random) -> int:
    """Give unclassifiable domains a boutique policy host (each boutique
    serves 10-30 domains: too big for the self heuristic, too small for
    the third-party one)."""
    if plan.boutique_policy_host == "pending":
        boutique_index = cycle // 20
        plan.boutique_policy_host = f"boutique{boutique_index:03d}.host"
        cycle += 1
    return cycle


def _add_event_cohorts(populations: Dict[str, TldPopulation],
                       config: PopulationConfig, sampler: _Sampler,
                       serial: int) -> int:
    """The paper's discrete incidents, as dedicated cohorts."""
    rng = sampler.rng
    months = config.scan_months
    final_week = config.total_weeks - 1

    # Porkbun LLC: newly registered domains (Aug 2024 onward) whose
    # self-managed policy hosts present invalid certificates.
    porkbun_week = config.total_weeks - 8
    for _ in range(config.scaled(PORKBUN_COHORT)):
        serial += 1
        plan = DomainPlan(
            name=f"pb{serial:06d}.com", tld="com",
            adoption_week=porkbun_week + rng.randrange(0, 7),
            mode=PolicyMode.TESTING, email_provider=None)
        plan.faults.append(ScheduledFault(
            Fault.POLICY_TLS_CN_MISMATCH, PORKBUN_MONTH))
        populations["com"].plans.append(plan)

    # DMARCReport self-signed certificate incident (June 8, 2024): a
    # one-month transient affecting 1,385 delegated domains.
    dmarc_plans = [p for pop in populations.values() for p in pop.plans
                   if p.policy_provider == "DMARCReport"
                   and not p.faults]
    spike = config.scaled(DMARCREPORT_SELF_SIGNED_SPIKE)
    for plan in dmarc_plans[:spike]:
        plan.faults.append(ScheduledFault(
            Fault.POLICY_TLS_SELF_SIGNED, DMARC_SPIKE_MONTH,
            DMARC_SPIKE_MONTH + 1))

    # lucidgrow.com (Jan 23, 2024): unique per-customer MX hosts with
    # DMARCReport-hosted policies that matched no MX record for a month,
    # in enforce mode.
    for _ in range(config.scaled(LUCIDGROW_COHORT)):
        serial += 1
        plan = DomainPlan(
            name=f"lg{serial:06d}.com", tld="com", adoption_week=0,
            mode=PolicyMode.ENFORCE, email_provider="Lucidgrow",
            policy_provider="DMARCReport")
        plan.faults.append(ScheduledFault(
            Fault.MISMATCH_3LD, LUCIDGROW_MONTH, LUCIDGROW_MONTH + 1))
        populations["com"].plans.append(plan)

    # The .org organisation that adopted 461 domains on Jan 2, 2024
    # (the Figure 2 spike).
    org_week = 120    # early January 2024 in week coordinates
    for _ in range(config.scaled(ORG_ADOPTION_SPIKE)):
        serial += 1
        populations["org"].plans.append(DomainPlan(
            name=f"org-fleet{serial:06d}.org", tld="org",
            adoption_week=org_week, mode=PolicyMode.TESTING,
            email_provider="Google", policy_provider=None))

    # laura-norman.com: the single same-provider-managed domain whose
    # typo persisted through every snapshot (Figure 10).
    laura = DomainPlan(
        name="laura-norman.com", tld="com", adoption_week=0,
        mode=PolicyMode.TESTING, email_provider="Tutanota",
        policy_provider="Tutanota")
    laura.faults.append(ScheduledFault(Fault.MISMATCH_TYPO, 0))
    populations["com"].plans.append(laura)
    return serial


def _assign_tlsrpt(populations: Dict[str, TldPopulation],
                   config: PopulationConfig, rng: random.Random) -> None:
    """TLSRPT adoption (Figure 12).

    Bottom graph: among MTA-STS domains, TLSRPT adoption grows from
    ~38% to ~72%.  Top graph: TLSRPT-only domains (no MTA-STS) track
    the MTA-STS curve closely in absolute numbers; we synthesise their
    weekly counts as metadata.
    """
    weeks = config.total_weeks
    for population in populations.values():
        for plan in population.plans:
            if rng.random() < TLSRPT_OF_STS_FINAL:
                # Adopted at or after the MTA-STS adoption week; early
                # adopters reproduce the initial 38% level.
                if rng.random() < TLSRPT_OF_STS_INITIAL / TLSRPT_OF_STS_FINAL:
                    plan.tlsrpt_week = plan.adoption_week
                else:
                    plan.tlsrpt_week = min(
                        weeks - 1,
                        plan.adoption_week + rng.randrange(1, weeks))
        # Figure 12 events in the top graph: .se revocations (Dec 2021)
        # and the .net additions (mid 2024) involve mostly non-STS
        # domains, tracked as aggregate weekly counts.
        initial = config.scaled(
            {"com": 11_531, "net": 1_100, "org": 1_527, "se": 160}
            [population.tld])
        final = config.scaled(
            {"com": 52_641, "net": 6_100, "org": 7_192, "se": 700}
            [population.tld])
        series = []
        for week in range(weeks):
            base = initial + (final - initial) * (week / max(1, weeks - 1)) ** 2
            if population.tld == "se" and week >= 15:
                base -= config.scaled(82)      # the Dec-21 .se revocation
            if population.tld == "net" and 145 <= week:
                base += config.scaled(1_411 - 198)   # mid-24 .net additions
            series.append(max(0, round(base)))
        population.tlsrpt_only_weekly = series
