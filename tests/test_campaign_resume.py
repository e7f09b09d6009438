"""Kill-and-resume differentials for the checkpointed campaign.

The contract under test: a campaign killed after any committed month
and resumed with ``resume=True`` produces *byte-identical* results to
an uninterrupted run — the store's ``canonical_bytes``, the monitor's
monthly metrics feed, and the health report — with and without seeded
fault plans.
"""

import pytest

from repro.analysis.series import load_campaign, run_campaign
from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig
from repro.measurement.executor import ScanExecutor
from repro.obs.monitor import CampaignMonitor
from tests.test_analysis_golden import figure_dump

MONTHS = [0, 1, 2, 3]
KILL_AFTER = 2     # months observed before the simulated crash


def _timeline(scale=0.004, seed=7):
    return EcosystemTimeline(
        TimelineConfig(PopulationConfig(scale=scale, seed=seed)))


class _Killed(Exception):
    """Stands in for SIGKILL: unwinds the campaign loop mid-run."""


class _CrashingMonitor(CampaignMonitor):
    """Observes normally, then dies after ``after`` months — *after*
    the month's checkpoint committed, like a real mid-campaign kill."""

    def __init__(self, after):
        super().__init__()
        self._after = after

    def observe_month(self, *args, **kwargs):
        super().observe_month(*args, **kwargs)
        if len(self.records) >= self._after:
            raise _Killed()


def _run(timeline, *, faults=False, state_dir=None, resume=False,
         monitor=None):
    return run_campaign(
        timeline, MONTHS, executor=ScanExecutor(),
        monitor=monitor, state_dir=state_dir, resume=resume,
        fault_seed=1000 if faults else None)


@pytest.mark.parametrize("faults", [False, True],
                         ids=["clean", "faulted"])
def test_kill_and_resume_is_byte_identical(tmp_path, faults):
    reference_monitor = CampaignMonitor()
    reference = _run(_timeline(), faults=faults, monitor=reference_monitor)

    state_dir = str(tmp_path)
    with pytest.raises(_Killed):
        _run(_timeline(), faults=faults, state_dir=state_dir,
             monitor=_CrashingMonitor(KILL_AFTER))

    resumed_monitor = CampaignMonitor()
    resumed = _run(_timeline(), faults=faults, state_dir=state_dir,
                   resume=True, monitor=resumed_monitor)

    assert (resumed.store.canonical_bytes()
            == reference.store.canonical_bytes())
    assert resumed_monitor.to_jsonl() == reference_monitor.to_jsonl()
    assert (resumed_monitor.health().render()
            == reference_monitor.health().render())
    assert resumed.summaries == reference.summaries


class _ForbiddenExecutor(ScanExecutor):
    def scan(self, *args, **kwargs):
        raise AssertionError("a fully committed campaign must not rescan")


def test_resume_with_everything_committed_rescans_nothing(tmp_path):
    state_dir = str(tmp_path)
    first = _run(_timeline(), state_dir=state_dir)
    again = run_campaign(_timeline(), MONTHS, executor=_ForbiddenExecutor(),
                         state_dir=state_dir, resume=True)
    assert again.store.canonical_bytes() == first.store.canonical_bytes()
    # Persisted per-month stats come back verbatim, checkpoint marker
    # included.
    for month in MONTHS:
        assert again.stats_by_month[month].checkpoints_written == 1
        assert (again.stats_by_month[month].domains_scanned
                == first.stats_by_month[month].domains_scanned)


def test_reusing_a_store_without_resume_is_refused(tmp_path):
    state_dir = str(tmp_path)
    _run(_timeline(), state_dir=state_dir)
    with pytest.raises(ValueError, match="resume=True"):
        _run(_timeline(), state_dir=state_dir)


def test_resuming_under_a_different_population_is_refused(tmp_path):
    state_dir = str(tmp_path)
    _run(_timeline(), state_dir=state_dir)
    with pytest.raises(ValueError, match="population"):
        _run(_timeline(seed=8), state_dir=state_dir, resume=True)


def test_load_campaign_matches_the_live_run(tmp_path):
    state_dir = str(tmp_path)
    live = _run(_timeline(), state_dir=state_dir)
    offline = load_campaign(state_dir)
    assert figure_dump(offline) == figure_dump(live)
    assert offline.summaries == live.summaries
    # The rebuilt timeline carries the persisted population config.
    assert (offline.timeline.config.population
            == _timeline().config.population)
    for month in MONTHS:
        assert (offline.stats_by_month[month].domains_scanned
                == live.stats_by_month[month].domains_scanned)
