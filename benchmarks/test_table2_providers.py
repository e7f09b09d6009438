"""Table 2: the top-8 policy hosting providers, their CNAME patterns,
customer counts, and opt-out behaviour.

Paper: Tutanota 7,614 / DMARCReport 7,293 / PowerDMARC 3,753 /
EasyDMARC 2,222 / Mailhardener 1,558 / URIports 1,100 / Sendmarc 805 /
OnDMARC 451 domains; three providers answer NXDOMAIN after opt-out,
four keep reissuing certificates, DMARCReport serves empty policy
files, Tutanota rejects mail while leaving policies stale.
"""

from repro.ecosystem.deployment import DomainSpec, deploy_domain
from repro.ecosystem.providers import TABLE2_DOMAIN_COUNTS, table2_providers
from repro.ecosystem.world import World
from repro.measurement.delegation import probe_opted_out, table2_rows
from repro.analysis.report import render_table
from benchmarks.conftest import SCALE, paper_row

PROVIDER_SLD = {
    "Tutanota": "tutanota.de", "DMARCReport": "dmarcinput.com",
    "PowerDMARC": "mta-sts.tech", "EasyDMARC": "easydmarc.pro",
    "Mailhardener": "mailhardener.com", "URIports": "uriports.com",
    "Sendmarc": "sdmarc.net", "OnDMARC": "ondmarc.com",
}


def test_table2_census(benchmark, campaign):
    # The census keeps the long-tail generic providers in view too;
    # rows are then joined against the Table-2 eight.
    census = benchmark(campaign.table2_census, top=16)
    providers = {p.name: p for p in table2_providers()}
    rows = table2_rows(census, providers)
    print()
    print(render_table(rows, ["provider", "cname_example", "domains",
                              "email_hosting", "optout_nxdomain",
                              "optout_reissues_cert",
                              "optout_policy_update"],
                       title=f"Table 2 (scale={SCALE})"))

    by_provider = {r["provider"]: r for r in rows}
    # Counts track the paper linearly and keep the ranking.
    for name, paper_count in TABLE2_DOMAIN_COUNTS.items():
        row = by_provider.get(name)
        assert row is not None, f"{name} missing from census"
        scaled = paper_count * SCALE
        print(paper_row(f"{name} customers", round(scaled), row["domains"]))
        assert abs(row["domains"] - scaled) <= max(3, 0.35 * scaled)
    assert rows[0]["provider"] in ("Tutanota", "DMARCReport")

    # Behaviour flags match the paper's right-hand columns.
    assert by_provider["Tutanota"]["email_hosting"]
    assert sum(r["optout_nxdomain"] for r in rows
               if r["provider"] in TABLE2_DOMAIN_COUNTS) == 3
    assert by_provider["DMARCReport"]["optout_policy_update"] == "empty-file"


def test_table2_optout_probes(benchmark):
    """Exercise each provider's opt-out path against a live world."""
    def run():
        world = World()
        observations = {}
        for provider in table2_providers():
            domain = f"cust-{provider.name.lower()}.com"
            deploy_domain(world, DomainSpec(domain=domain,
                                            policy_provider=provider))
            provider.customer_opts_out(world, domain)
            world.resolver.flush_cache()
            observations[provider.name] = probe_opted_out(
                world, provider, domain)
        return observations

    observations = benchmark(run)
    print()
    for name, obs in observations.items():
        print(f"  {name:<14} resolves={obs.policy_resolves!s:<6} "
              f"cert_valid={obs.cert_valid!s:<6} "
              f"effective_mode={obs.effective_mode}")

    # NXDOMAIN providers: the policy stops resolving.
    for name in ("PowerDMARC", "Mailhardener", "URIports"):
        assert not observations[name].policy_resolves
    # Certificate reissuers keep a valid cert.
    for name in ("DMARCReport", "EasyDMARC", "Sendmarc", "OnDMARC"):
        assert observations[name].cert_valid
    # DMARCReport's empty file degrades to none-equivalent.
    assert observations["DMARCReport"].effective_mode == "none"
    # Stale-policy providers keep serving the old policy verbatim.
    assert observations["Sendmarc"].effective_mode in ("testing", "enforce")
