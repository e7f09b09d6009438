"""Figure 10: inconsistency among domains outsourcing BOTH email and
policy hosting, split by whether one provider manages both.

Paper: of 26,414 such domains, 7,492 use the same provider for both
and 18,922 split across different providers; same-provider
inconsistency is essentially nonexistent (exactly 1 domain,
laura-norman.com, a persistent typo) while 640 (3.4%) of the
different-provider domains are inconsistent.
"""

from repro.analysis.report import render_table
from benchmarks.conftest import paper_row


def test_figure10(benchmark, campaign):
    rows = benchmark(campaign.figure10_series)
    print()
    print(render_table(rows, ["month_index", "same_total", "same_bad",
                              "same_pct", "diff_total", "diff_bad",
                              "diff_pct"],
                       title="Figure 10 — inconsistency by provider "
                             "arrangement"))
    final = rows[-1]
    print(paper_row("same-provider inconsistent (count)", 1,
                    final["same_bad"]))
    print(paper_row("different-provider inconsistent (%)", 3.4,
                    round(final["diff_pct"], 2)))

    assert final["same_total"] > 0 and final["diff_total"] > 0
    # Same-provider: at most the single known laura-norman typo, in
    # every month it is observable.
    for row in rows:
        assert row["same_bad"] <= 1
    # Different providers carry the inconsistency burden.
    assert final["diff_bad"] >= final["same_bad"]
    assert final["diff_pct"] <= 10
    # Population split leans toward different-provider arrangements.
    assert final["diff_total"] >= final["same_total"]
