"""The column decoder behind every analysis output.

Every figure series, census and monitor registry is computed over the
per-field columns of :mod:`repro.measurement.columnar`, and
``test_analysis_golden.py`` pins their bytes through the offline entry
points (``load_campaign``, ``CampaignMonitor.from_state``, ``audit
--load``, the object-list adapters).  This suite holds the live
source to the same pins — ``run_campaign`` reads
``ColumnarStore.from_store`` — and checks the decoder itself: the
columns agree with the per-snapshot predicates, months load lazily,
corruption is caught, and a month the store never scanned raises one
error from either source.
"""

import re
import shutil

import pytest

from repro.analysis.series import load_campaign, run_campaign
from repro.ecosystem.timeline import timeline_from_population
from repro.errors import StoreCorruption
from repro.measurement.classify import EntityClassifier
from repro.measurement.columnar import (
    ENTITY_KEYS, ColumnarStore, delegation_census_view,
    mismatch_census_view, snapshot_summary_view, taxonomy_census_view,
)
from repro.measurement.delegation import delegation_census
from repro.measurement.inconsistency import classify_snapshot, mismatch_census
from repro.measurement.store_io import load_state, read_manifest, shard_name
from repro.measurement.taxonomy import (
    PRIMARY_BUCKETS, delivery_failure_expected, primary_bucket,
    snapshot_summary,
)
from repro.obs.monitor import CampaignMonitor
from tests.test_analysis_golden import (
    AUDIT_GOLDEN, GOLDEN, figure_dump, sha256,
)

MONTHS = [0, 1, 2]        # the months conftest's stores commit


def _state_name(request) -> str:
    return request.node.callspec.params["any_state"]


@pytest.fixture(scope="module")
def resumed(any_state):
    """The store's campaign re-run in memory: every month is committed,
    so ``run_campaign`` scans nothing, and its analysis and monitor
    read ``ColumnarStore.from_store`` — the live campaign's source."""
    population = read_manifest(any_state)["population"]
    monitor = CampaignMonitor()
    analysis = run_campaign(timeline_from_population(population), MONTHS,
                            incremental=False, monitor=monitor,
                            state_dir=any_state, resume=True)
    return analysis, monitor


class TestFigureIdentity:
    def test_all_figures_byte_identical(self, resumed, request):
        analysis, _ = resumed
        assert (sha256(figure_dump(analysis))
                == GOLDEN[_state_name(request)]["figures"])

    def test_summaries_and_stats_identical(self, resumed, any_state):
        live, _ = resumed
        offline = load_campaign(any_state)
        assert live.summaries == offline.summaries
        assert live.stats_by_month == offline.stats_by_month
        assert live.latest_summary() == offline.latest_summary()


class TestCensusIdentity:
    """The columns against the per-snapshot functions, row by row and
    month by month, on the snapshots actually decoded from disk."""

    def test_census_views_match_object_functions(self, any_state):
        state = load_state(any_state)
        cstore = ColumnarStore.from_state_dir(any_state)
        for month in cstore.months():
            snapshots = state.store.month(month)
            view = cstore.month_view(month)
            verdicts = EntityClassifier(snapshots).classify_all()
            assert [view.domain(i) for i in range(view.n)] == [
                snap.domain for snap in snapshots]
            for i, snap in enumerate(snapshots):
                assert PRIMARY_BUCKETS[view.bucket[i]] == primary_bucket(snap)
                assert view.delivery_failure[i] == \
                    delivery_failure_expected(snap)
                assert bool(view.mismatch[i]) == \
                    classify_snapshot(snap).mismatch
                verdict = verdicts[snap.domain]
                assert ENTITY_KEYS[view.mx_entity[i]] == verdict.mx.value
                assert (ENTITY_KEYS[view.policy_entity[i]]
                        == verdict.policy.value)
                assert view.same_provider[i] == verdict.same_provider
            # The object-list adapters decode the same rows.
            assert snapshot_summary_view(view) == snapshot_summary(snapshots)
            assert mismatch_census_view(view) == mismatch_census(snapshots)
            assert (delegation_census_view(view)
                    == delegation_census(snapshots))

    def test_from_store_matches_from_state_dir(self, faulted_state):
        state = load_state(faulted_state)
        from_disk = ColumnarStore.from_state_dir(faulted_state)
        from_memory = ColumnarStore.from_store(state.store)
        assert from_disk.months() == from_memory.months()
        for month in from_disk.months():
            a, b = from_disk.month_view(month), from_memory.month_view(month)
            assert snapshot_summary_view(a) == snapshot_summary_view(b)
            assert mismatch_census_view(a) == mismatch_census_view(b)
            assert delegation_census_view(a) == delegation_census_view(b)
            assert taxonomy_census_view(a) == taxonomy_census_view(b)


class TestMonitorIdentity:
    def test_feed_drift_and_health_identical(self, resumed, any_state,
                                             request):
        _, monitor = resumed
        assert (sha256(monitor.to_jsonl())
                == GOLDEN[_state_name(request)]["feed"])
        offline = CampaignMonitor.from_state(any_state)
        assert monitor.drift() == offline.drift()
        assert monitor.health().as_dict() == offline.health().as_dict()


class TestUnscannedMonth:
    """Both sources refuse a month the store never scanned, alike."""

    MESSAGE = "month 5 was never scanned (scanned months: [0, 1, 2])"

    def test_from_state_dir_raises(self, clean_state):
        with pytest.raises(KeyError, match=re.escape(self.MESSAGE)):
            ColumnarStore.from_state_dir(clean_state).month_view(5)
        with pytest.raises(KeyError, match=re.escape(self.MESSAGE)):
            load_campaign(clean_state).table2_census(5)

    def test_from_store_raises(self, clean_state):
        store = load_state(clean_state).store
        with pytest.raises(KeyError, match=re.escape(self.MESSAGE)):
            ColumnarStore.from_store(store).month_view(5)
        live = run_campaign(
            timeline_from_population(read_manifest(clean_state)[
                "population"]),
            MONTHS, incremental=False, state_dir=clean_state, resume=True)
        with pytest.raises(KeyError, match=re.escape(self.MESSAGE)):
            live.table2_census(5)


class TestLazyLoading:
    def test_months_materialise_on_first_view(self, clean_state):
        cstore = ColumnarStore.from_state_dir(clean_state)
        assert cstore.loaded_months() == []
        assert cstore.months() == MONTHS
        cstore.month_view(MONTHS[1])
        assert cstore.loaded_months() == [MONTHS[1]]
        cstore.month_view(MONTHS[1])        # cached, not rebuilt
        assert cstore.loaded_months() == [MONTHS[1]]

    def test_month_subset_restricts_entries(self, clean_state):
        cstore = ColumnarStore.from_state_dir(clean_state,
                                              months=[MONTHS[0]])
        assert cstore.months() == [MONTHS[0]]


def _corrupt_shard(state_dir, month) -> None:
    shard = state_dir / shard_name(month)
    data = bytearray(shard.read_bytes())
    data[len(data) // 2] ^= 0x20
    shard.write_bytes(bytes(data))


class TestCorruptionDetection:
    def test_flipped_shard_byte_raises(self, clean_state, tmp_path):
        corrupt = tmp_path / "state"
        shutil.copytree(clean_state, corrupt)
        _corrupt_shard(corrupt, MONTHS[0])
        cstore = ColumnarStore.from_state_dir(str(corrupt))
        with pytest.raises(StoreCorruption):
            cstore.month_view(MONTHS[0])
        cstore.month_view(MONTHS[1])        # other months still load

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(StoreCorruption):
            ColumnarStore.from_state_dir(str(tmp_path))


class TestCliIdentity:
    """``audit --load`` decodes only the month it reports: its output is
    unchanged when every other month's shard is corrupt."""

    @pytest.fixture
    def others_corrupt(self, faulted_state, tmp_path):
        copy = tmp_path / "state"
        shutil.copytree(faulted_state, copy)
        for month in (MONTHS[0], MONTHS[2]):
            _corrupt_shard(copy, month)
        return str(copy)

    def test_audit_load_stdout_identical(self, faulted_state,
                                         others_corrupt, capsys):
        from repro.cli import main
        outputs = []
        for state in (faulted_state, others_corrupt):
            assert main(["audit", "--load", state, "--month", "1",
                         "--stats"]) == 0
            outputs.append(capsys.readouterr().out.replace(state, "<state>"))
        assert outputs[0] == outputs[1]

    def test_audit_metrics_out_identical(self, others_corrupt, tmp_path,
                                         capsys):
        from repro.cli import main
        out = tmp_path / "month1.prom"
        assert main(["audit", "--load", others_corrupt, "--month", "1",
                     "--metrics-out", str(out)]) == 0
        capsys.readouterr()
        assert sha256(out.read_bytes()) == AUDIT_GOLDEN["metrics_out"]

    def test_audit_load_prints_repair_plans(self, faulted_state,
                                            others_corrupt, capsys):
        from repro.cli import main
        from repro.measurement.repair import plan_repairs
        from repro.measurement.taxonomy import categorize
        snapshots = load_state(faulted_state).store.month(MONTHS[1])
        expected = [snap.domain for snap in snapshots
                    if plan_repairs(snap) and categorize(snap)][:2]
        assert len(expected) == 2
        assert main(["audit", "--load", others_corrupt, "--month", "1",
                     "--show-repairs", "2"]) == 0
        out = capsys.readouterr().out
        assert re.findall(r"repair plan for (\S+):", out) == expected
        assert re.search(r"\[(policy-host|policy|record|mx)\]", out)
