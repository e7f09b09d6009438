"""Figure/table series assembly and report rendering."""

from repro.analysis.series import (
    CampaignAnalysis, load_campaign, run_campaign,
)
from repro.analysis.report import render_table, render_series
from repro.analysis.takeaways import Takeaway, compute_takeaways

__all__ = ["CampaignAnalysis", "run_campaign", "load_campaign",
           "render_table", "render_series",
           "Takeaway", "compute_takeaways"]
