"""A live campaign holds one month of snapshot objects.

``run_campaign`` scans each month into a store of its own, serialises
it once into the month's shard and columns, and releases its snapshots
before the next month is built; only the final month's stay, as
``CampaignAnalysis.latest``.  So a campaign's memory is its columns
plus one month, however many months it scans.
"""

import gc
import weakref
from collections import defaultdict

from repro.analysis.series import run_campaign
from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig
from repro.measurement.scanner import Scanner
from repro.measurement.store_io import load_state
from repro.obs.monitor import CampaignMonitor

MONTHS = [0, 1, 2, 3]


def _alive(refs):
    return [snapshot for snapshot in (ref() for ref in refs)
            if snapshot is not None]


class _ReleaseCheckingMonitor(CampaignMonitor):
    """Fails the campaign if any earlier month's snapshot outlives the
    month being observed."""

    def __init__(self, scanned):
        super().__init__()
        self._scanned = scanned

    def observe_month(self, month_index, *args, **kwargs):
        gc.collect()
        for month, refs in self._scanned.items():
            if month < month_index:
                alive = len(_alive(refs))
                assert alive == 0, (f"{alive} snapshots of month {month} "
                                    f"are alive at month {month_index}")
        return super().observe_month(month_index, *args, **kwargs)


def test_campaign_keeps_only_the_final_months_snapshots(tmp_path,
                                                        monkeypatch):
    scanned = defaultdict(list)
    scan_domain = Scanner.scan_domain

    def recorded(scanner, *args, **kwargs):
        snapshot = scan_domain(scanner, *args, **kwargs)
        scanned[snapshot.month_index].append(weakref.ref(snapshot))
        return snapshot

    monkeypatch.setattr(Scanner, "scan_domain", recorded)
    state_dir = str(tmp_path / "state")
    timeline = EcosystemTimeline(
        TimelineConfig(PopulationConfig(scale=0.004, seed=7)))
    monitor = _ReleaseCheckingMonitor(scanned)
    analysis = run_campaign(timeline, MONTHS, monitor=monitor,
                            state_dir=state_dir)
    monkeypatch.undo()

    assert sorted(scanned) == MONTHS
    assert [record.month_index for record in monitor.records] == MONTHS
    gc.collect()
    final = max(MONTHS)
    alive = _alive(scanned[final])
    assert len(alive) == len(scanned[final]) > 0
    assert ({id(snapshot) for snapshot in alive}
            == {id(snapshot) for snapshot in analysis.latest})
    assert analysis.latest == load_state(state_dir).store.month(final)
