"""§4.7: the responsible-disclosure campaign.

Paper: 20,144 misconfigured domains notified via postmaster@; more
than 5,000 (~25%) bounced; after the campaign, 2,064 (10%) of the
misconfigured domains had their issues resolved.
"""

from repro.measurement.notify import DisclosureCampaign
from repro.measurement.taxonomy import categorize
from benchmarks.conftest import SCALE, paper_row


def test_section47(benchmark, campaign, timeline):
    misconfigured = [snap for snap in campaign.latest if categorize(snap)]

    # The campaign delivers through the same simulated SMTP fabric the
    # scanner used, so it needs the final month's world to be alive.
    materialized = timeline.materialize(max(campaign.months()))

    def run():
        disclosure = DisclosureCampaign(materialized.world,
                                        extra_bounce_rate=0.22)
        return disclosure.run(misconfigured)

    report = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print(paper_row("notified (count)", round(20_144 * SCALE),
                    report.notified))
    print(paper_row("bounce rate (%)", ">24.8",
                    round(100 * report.bounce_rate, 1)))
    print(paper_row("remediation rate (%)", 10.0,
                    round(100 * report.remediation_rate, 1)))

    scaled_notified = 20_144 * SCALE
    assert abs(report.notified - scaled_notified) <= 0.4 * scaled_notified
    # More than a quarter of notifications bounce.
    assert report.bounce_rate > 0.15
    assert report.bounce_rate < 0.5
    # Roughly 10% remediate.
    assert 0.03 <= report.remediation_rate <= 0.2
