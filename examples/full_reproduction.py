"""The whole paper in one run (small scale).

Executes every stage of the reproduction end-to-end — the longitudinal
campaign (Figures 4-10 and Table 2), the adoption series (Figures 2
and 12, Table 1), the Tranco join (Figure 3), the sender-side testbed
(§6), the survey (§7 and Figure 11), and the disclosure campaign
(§4.7) — and prints an EXPERIMENTS.md-style paper-vs-measured summary.

Run:  python examples/full_reproduction.py [scale]
The default scale (0.01) finishes in about a minute.
"""

import sys
import time

from repro.analysis.series import run_campaign
from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig
from repro.ecosystem.tranco import TrancoRanking
from repro.ecosystem.world import World
from repro.measurement.notify import DisclosureCampaign
from repro.measurement.senderside import (
    SenderSideTestbed, synthesize_sender_population,
)
from repro.measurement.taxonomy import categorize
from repro.survey.analysis import analyze
from repro.survey.synthesize import synthesize_respondents


def row(label: str, paper, measured) -> None:
    print(f"  {label:<52} paper: {paper!s:<18} measured: {measured}")


def main(scale: float = 0.01) -> None:
    started = time.time()
    print(f"=== building and scanning the ecosystem (scale={scale}) ===")
    timeline = EcosystemTimeline(TimelineConfig(PopulationConfig(scale=scale)))
    campaign = run_campaign(timeline)

    print("\n--- Table 1 / Figure 2: deployment ---")
    for entry in timeline.table1_rows():
        row(f".{entry['tld']} MTA-STS share",
            {"com": "0.07%", "net": "0.09%", "org": "0.13%",
             "se": "0.08%"}[entry["tld"]],
            f"{entry['sts_percent']:.3f}% ({entry['sts_domains']} domains)")
    series = timeline.adoption_series("com")
    row(".com growth over the window", "3-4x",
        f"{series[-1][1] / max(1, series[0][1]):.1f}x")

    print("\n--- Figure 3: popularity ---")
    ranking = TrancoRanking(list_size=200_000)
    row("top-10k bin adoption", "1.2%", f"{ranking.top_bin_percent():.2f}%")
    row("bottom-10k bin adoption", "0.4%",
        f"{ranking.bottom_bin_percent():.2f}%")

    print("\n--- Figures 4-8: misconfigurations (final snapshot) ---")
    summary = campaign.latest_summary()
    row("misconfigured share", "29.6%",
        f"{summary.misconfigured_percent():.1f}%")
    self_final = campaign.figure5_series("self-managed")[-1]
    third_final = campaign.figure5_series("third-party")[-1]
    row("self-managed policy errors", "37.8%", f"{self_final['any']:.1f}%")
    row("third-party policy errors", "4.9%", f"{third_final['any']:.1f}%")
    mx_self = campaign.figure6_series("self-managed")[-1]
    mx_third = campaign.figure6_series("third-party")[-1]
    row("self-managed invalid MX certs", "4.4%",
        f"{mx_self['invalid_pct']:.1f}%")
    row("third-party invalid MX certs", "1.0%",
        f"{mx_third['invalid_pct']:.1f}%")
    fig8 = campaign.figure8_series()[-1]
    row("enforce-mode mismatched (count, scaled)",
        round(406 * scale), fig8["enforce"])

    print("\n--- Figure 9/10: inconsistency dynamics ---")
    fig9 = campaign.figure9_series()[-1]
    row("mismatches explained by history", "63%", f"{fig9['percent']:.0f}%")
    fig10 = campaign.figure10_series()[-1]
    row("same-provider inconsistent domains", 1, fig10["same_bad"])
    row("split-provider inconsistent domains (scaled)",
        round(640 * scale), fig10["diff_bad"])

    print("\n--- Table 2: delegation ---")
    for entry in campaign.table2_census(top=4):
        row(f"top provider {entry['provider_sld']}", "see Table 2",
            f"{entry['domains']} customers")

    print("\n--- §6: sender-side validation ---")
    testbed = SenderSideTestbed(World())
    profiles = synthesize_sender_population(max(200, int(2394 * scale * 10)))
    report = testbed.run_campaign(profiles)
    total = report["senders"]
    row("senders delivering over TLS", "94.6%",
        f"{100 * report['tls'] / total:.1f}%")
    row("senders validating MTA-STS", "19.6%",
        f"{100 * report['mta_sts_validators'] / total:.1f}%")
    row("senders validating DANE", "29.8%",
        f"{100 * report['dane_validators'] / total:.1f}%")

    print("\n--- §7: survey ---")
    findings = analyze(synthesize_respondents())
    row("aware of MTA-STS", "94.7%",
        f"{findings.heard_of_mta_sts[2]:.1f}%")
    row("cite operational complexity", "48.8%",
        f"{findings.bottleneck_complexity[2]:.1f}%")
    row("non-deployers using DANE instead", "45.4%",
        f"{findings.not_deployed_use_dane[2]:.1f}%")

    print("\n--- §4.7: disclosure campaign ---")
    final_month = max(campaign.months())
    misconfigured = [s for s in campaign.latest if categorize(s)]
    materialized = timeline.materialize(final_month)
    disclosure = DisclosureCampaign(materialized.world,
                                    extra_bounce_rate=0.22)
    notify_report = disclosure.run(misconfigured)
    row("notified misconfigured domains (scaled)",
        round(20_144 * scale), notify_report.notified)
    row("bounce rate", ">24.8%", f"{100 * notify_report.bounce_rate:.1f}%")
    row("remediation rate", "10%",
        f"{100 * notify_report.remediation_rate:.1f}%")

    print("\n--- §4.6: key takeaways ---")
    from repro.analysis.takeaways import compute_takeaways
    for takeaway in compute_takeaways(campaign):
        print(takeaway.render())

    print(f"\ndone in {time.time() - started:.1f}s")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.01)
