"""Policy-delegation analysis (paper §5, Table 2).

Provider identification works exactly as in the paper: the CNAME
record on the ``mta-sts`` label names the hosting provider.  The
census counts customers per provider; the opt-out probe exercises a
provider's documented deprovisioning behaviour against a live world
and reports what a sender would experience.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.fetch import PolicyFetcher
from repro.dns.name import DnsName, effective_sld
from repro.ecosystem.providers import OptOutBehavior, PolicyHostProvider
from repro.ecosystem.world import World
from repro.errors import PolicyFetchStage
from repro.measurement.snapshots import DomainSnapshot


def identify_provider(snap: DomainSnapshot) -> Optional[str]:
    """The registrable domain of the policy-host CNAME target, if any."""
    return provider_of(snap.domain, snap.policy_host_cname)


def provider_of(domain: str, cname: Optional[str]) -> Optional[str]:
    """:func:`identify_provider` over raw fields: the CNAME target's
    registrable domain, unless it is the domain's own."""
    if not cname:
        return None
    name = DnsName.try_parse(cname)
    if name is None:
        return None
    own = effective_sld(DnsName.parse(domain))
    target = effective_sld(name)
    if target is None or (own is not None and target == own):
        return None
    return target.text


def delegation_census(snapshots: List[DomainSnapshot],
                      top: int = 8) -> List[dict]:
    """Table 2's left columns: the top policy hosting providers
    (:func:`~repro.measurement.columnar.delegation_census_view`)."""
    from repro.measurement.columnar import delegation_census_view, view_of
    return delegation_census_view(view_of(snapshots), top=top)


@dataclass
class OptOutObservation:
    """What a sender experiences for an opted-out customer domain."""

    provider: str
    behavior: OptOutBehavior
    domain: str
    policy_resolves: bool = False       # canonical name still resolves
    cert_served: bool = False
    cert_valid: bool = False
    policy_body: Optional[str] = None
    fetch_stage: Optional[str] = None   # failed stage, None = HTTP 200
    policy_parse_ok: bool = False
    effective_mode: str = ""            # what senders end up honouring


def probe_opted_out(world: World, provider: PolicyHostProvider,
                    domain: str) -> OptOutObservation:
    """Fetch an opted-out customer's policy and characterise the result."""
    fetcher = PolicyFetcher(world.resolver, world.https_client)
    result = fetcher.fetch_policy(domain)
    observation = OptOutObservation(
        provider=provider.name, behavior=provider.opt_out, domain=domain)

    fetch = result.fetch
    if fetch is not None:
        observation.policy_resolves = (
            fetch.failed_stage is not PolicyFetchStage.DNS)
        observation.cert_served = fetch.certificate is not None
        observation.cert_valid = (
            fetch.certificate is not None
            and fetch.failed_stage is not PolicyFetchStage.TLS)
        observation.policy_body = fetch.body
        observation.fetch_stage = (fetch.failed_stage.value
                                   if fetch.failed_stage else None)
    if result.policy_check is not None:
        observation.policy_parse_ok = result.policy_check.valid
    if result.policy is not None:
        observation.effective_mode = result.policy.mode.value
    elif observation.fetch_stage is None and not observation.policy_parse_ok:
        # A parse failure on a fetched body is treated like mode=none
        # (the DMARCReport empty-file effect the paper describes).
        observation.effective_mode = "none"
    elif observation.fetch_stage is not None:
        # Unfetchable policy: senders fall back to opportunistic TLS —
        # or keep honouring a cached policy, the §2.6 hazard.
        observation.effective_mode = "unreachable"
    return observation


def table2_rows(census: List[dict],
                providers: Dict[str, PolicyHostProvider]) -> List[dict]:
    """Join the census with each provider's opt-out behaviour flags."""
    by_sld = {p.canonical_sld(): p for p in providers.values()}
    rows = []
    for entry in census:
        provider = by_sld.get(entry["provider_sld"])
        if provider is None:
            continue
        rows.append({
            "provider": provider.name,
            "cname_example": entry["cname_example"],
            "domains": entry["domains"],
            "email_hosting": provider.email_hosting_support,
            "optout_nxdomain": provider.opt_out is OptOutBehavior.NXDOMAIN,
            "optout_reissues_cert": provider.opt_out in (
                OptOutBehavior.REISSUE_CERT_STALE_POLICY,
                OptOutBehavior.REISSUE_CERT_EMPTY_POLICY),
            "optout_policy_update": {
                OptOutBehavior.NXDOMAIN: "-",
                OptOutBehavior.REISSUE_CERT_STALE_POLICY: "stale",
                OptOutBehavior.REISSUE_CERT_EMPTY_POLICY: "empty-file",
                OptOutBehavior.REJECT_MAIL_STALE_POLICY: "stale",
            }[provider.opt_out],
        })
    return rows
