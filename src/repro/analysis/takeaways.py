"""The paper's §4.6 key takeaways, computed from a campaign.

The paper distils its management analysis into three findings:

1. policy-server misconfigurations are the most common individual
   error (70-85% of all errors across snapshots);
2. self-managed mail servers struggle more with PKIX-valid
   certificates than provider-hosted ones (4.4% vs 1%);
3. inconsistencies persist where policy and email management are split
   across different entities (640 domains vs a single same-provider
   case).

:func:`compute_takeaways` re-derives each claim from scanned data and
reports whether it holds, so any recalibration of the synthetic
ecosystem (or a run against real data) is automatically checked
against the paper's conclusions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.series import CampaignAnalysis


@dataclass
class Takeaway:
    claim: str
    holds: bool
    evidence: str

    def render(self) -> str:
        marker = "HOLDS  " if self.holds else "BROKEN "
        return f"[{marker}] {self.claim}\n          {self.evidence}"


def compute_takeaways(campaign: CampaignAnalysis) -> List[Takeaway]:
    takeaways: List[Takeaway] = []

    # 1. Policy-server errors dominate in every snapshot (70-85%).
    shares = []
    for month in campaign.months():
        summary = campaign.summaries[month]
        total = sum(summary.category_counts.values())
        if total:
            shares.append(summary.category_counts["policy-retrieval"]
                          / total)
    dominate = bool(shares) and all(share >= 0.5 for share in shares)
    takeaways.append(Takeaway(
        claim=("policy-server misconfigurations are the most common "
               "individual error (paper: 70-85% of errors)"),
        holds=dominate,
        evidence=(f"policy-error share per month: "
                  f"{[round(100 * s, 1) for s in shares]}%")))

    # 2. Self-managed MX hosts struggle more with PKIX certificates.
    final = campaign.latest_summary()
    self_total = final.mx_entity_totals["self-managed"]
    third_total = final.mx_entity_totals["third-party"]
    self_rate = (final.mx_invalid_by_entity["self-managed"] / self_total
                 if self_total else 0.0)
    third_rate = (final.mx_invalid_by_entity["third-party"] / third_total
                  if third_total else 0.0)
    takeaways.append(Takeaway(
        claim=("self-managed email servers struggle more with "
               "PKIX-valid certificates (paper: 4.4% vs 1%)"),
        holds=self_rate > 2 * third_rate > 0 or (self_rate > 0
                                                 and third_rate == 0),
        evidence=(f"invalid-certificate rate: self-managed "
                  f"{100 * self_rate:.1f}% vs third-party "
                  f"{100 * third_rate:.1f}%")))

    # 3. Inconsistencies persist where management is split.
    rows = campaign.figure10_series()
    final_row = rows[-1]
    takeaways.append(Takeaway(
        claim=("inconsistencies concentrate where policy and email "
               "management are outsourced to different entities "
               "(paper: 640 split-provider domains vs 1 same-provider)"),
        holds=(final_row["diff_bad"] >= final_row["same_bad"]
               and final_row["same_bad"] <= 1),
        evidence=(f"inconsistent domains: split-provider "
                  f"{final_row['diff_bad']}/{final_row['diff_total']}, "
                  f"same-provider "
                  f"{final_row['same_bad']}/{final_row['same_total']}")))
    return takeaways
