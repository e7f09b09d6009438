"""Kill-and-resume differentials for the checkpointed campaign.

The contract under test: a campaign killed after any committed month
and resumed with ``resume=True`` produces *byte-identical* results to
an uninterrupted run — the committed store's ``canonical_bytes``, the
monitor's monthly metrics feed, and the health report — with and
without seeded fault plans.
"""

from collections import Counter

import pytest

from repro.analysis.series import load_campaign, run_campaign
from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig
from repro.measurement.executor import ScanExecutor
from repro.measurement.snapshots import DomainSnapshot
from repro.measurement.store_io import load_state
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
    reference_dir = str(tmp_path / "reference")
    reference_monitor = CampaignMonitor()
    reference = _run(_timeline(), faults=faults, state_dir=reference_dir,
                     monitor=reference_monitor)

    state_dir = str(tmp_path / "resumed")
    with pytest.raises(_Killed):
        _run(_timeline(), faults=faults, state_dir=state_dir,
             monitor=_CrashingMonitor(KILL_AFTER))

    resumed_monitor = CampaignMonitor()
    resumed = _run(_timeline(), faults=faults, state_dir=state_dir,
                   resume=True, monitor=resumed_monitor)

    assert (load_state(state_dir).store.canonical_bytes()
            == load_state(reference_dir).store.canonical_bytes())
    assert resumed.latest == reference.latest
    assert resumed_monitor.to_jsonl() == reference_monitor.to_jsonl()
    assert (resumed_monitor.health().render()
            == reference_monitor.health().render())
    assert resumed.summaries == reference.summaries


class _ForbiddenExecutor(ScanExecutor):
    def scan(self, *args, **kwargs):
        raise AssertionError("a fully committed campaign must not rescan")


def test_resume_with_everything_committed_rescans_nothing(tmp_path,
                                                          monkeypatch):
    """The resume scans nothing and leaves the committed state as it
    was.  Each month's rows become columns; snapshot objects are
    decoded for the final month alone, one ``from_dict`` per row of
    its shard, and equal the uninterrupted run's."""
    state_dir = str(tmp_path)
    first = _run(_timeline(), state_dir=state_dir)
    committed = load_state(state_dir)
    decoded = Counter()
    from_dict = DomainSnapshot.from_dict.__func__

    def counted_from_dict(cls, data):
        decoded[data["month_index"]] += 1
        return from_dict(cls, data)

    monkeypatch.setattr(DomainSnapshot, "from_dict",
                        classmethod(counted_from_dict))
    again = run_campaign(_timeline(), MONTHS, executor=_ForbiddenExecutor(),
                         state_dir=state_dir, resume=True)
    monkeypatch.undo()

    final = max(MONTHS)
    assert decoded == {final: committed.entry(final).rows}
    assert (load_state(state_dir).store.canonical_bytes()
            == committed.store.canonical_bytes())
    assert again.latest == first.latest
    assert figure_dump(again) == figure_dump(first)
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
