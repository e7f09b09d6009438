"""The durable campaign store: round-trips, indexes, corruption.

Covers the persistence layer three ways:

* **round-trip** — ``SnapshotStore.from_rows(json.loads(
  store.canonical_bytes())) == store`` for hypothesis-generated stores
  (non-ASCII hostnames, transient flags, policy warnings, empty
  months), and save/load through the on-disk shards is exact;
* **integrity** — a flipped byte, a truncated shard, a missing shard,
  a damaged manifest, or a foreign schema version all raise
  :class:`StoreCorruption` naming the offending artifact;
* **indexes & merge** — ``month()``/``months()`` reflect the
  per-month index, and ``merge()`` rejects differing
  collisions while staying idempotent for equal re-merges.
"""

import json
import os
import shutil
import string
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.series import run_campaign
from repro.clock import Instant
from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig
from repro.errors import StoreCorruption
from repro.measurement.delivery_campaign import (
    DeliveryCampaignConfig, run_delivery_campaign,
)
from repro.measurement.snapshots import (
    DomainSnapshot, MxObservation, SnapshotStore,
)
from repro.measurement.store_io import (
    MANIFEST_NAME, commit_month, load_state, month_rows, read_manifest,
    shard_digest, shard_name,
)
from repro.obs.monitor import CampaignMonitor
from tests.test_analysis_golden import figure_dump
from tests.test_delivery_campaign import _tree

# -- snapshot generation ----------------------------------------------------

# Deliberately includes ß/ẞ/İ so hostnames with non-trivial case
# mappings travel through JSON and back.
_label = st.text(alphabet=string.ascii_lowercase + "ßẞİü-",
                 min_size=1, max_size=8)
_hostname = st.builds(lambda ls: ".".join(ls + ["example"]),
                      st.lists(_label, min_size=1, max_size=3))


@st.composite
def snapshots(draw, month=None):
    domain = draw(_hostname)
    month_index = (draw(st.integers(min_value=0, max_value=5))
                   if month is None else month)
    observations = draw(st.lists(st.builds(
        MxObservation,
        hostname=_hostname,
        addresses=st.lists(st.sampled_from(["192.0.2.1", "198.51.100.9"]),
                           max_size=2),
        reachable=st.booleans(), starttls=st.booleans(),
        tls_established=st.booleans(), cert_valid=st.booleans(),
        failure_class=st.sampled_from(["", "valid", "cn-mismatch"]),
        transient=st.booleans()), max_size=3))
    return DomainSnapshot(
        domain=domain, tld="example", month_index=month_index,
        instant=Instant(draw(st.integers(min_value=0, max_value=2**31))),
        txt_strings=draw(st.lists(st.text(max_size=20), max_size=2)),
        sts_like=draw(st.booleans()),
        record_valid=draw(st.booleans()),
        dns_transient=draw(st.booleans()),
        policy_transient=draw(st.booleans()),
        policy_warnings=draw(st.lists(
            st.sampled_from(["max-age-over-rfc-bound", "sts-uses-cname"]),
            max_size=2)),
        policy_mode=draw(st.sampled_from(["", "testing", "enforce"])),
        policy_max_age=draw(st.one_of(st.none(),
                                      st.integers(0, 31_557_600))),
        mx_patterns=draw(st.lists(_hostname, max_size=3)),
        mx_hostnames=[obs.hostname for obs in observations],
        mx_observations=observations)


stores = st.builds(
    lambda snaps: SnapshotStore.from_rows(s.to_dict() for s in snaps),
    st.lists(snapshots(), max_size=12))


def _save(store, state_dir):
    """Commit every month of *store* into *state_dir*."""
    for month in store.months():
        commit_month(state_dir, month_rows(store, month), month)


# -- round-trips ------------------------------------------------------------

class TestRoundTrip:
    @given(snapshots())
    @settings(max_examples=100)
    def test_snapshot_from_dict_inverts_to_dict(self, snap):
        rebuilt = DomainSnapshot.from_dict(snap.to_dict())
        assert rebuilt == snap
        assert rebuilt.instant == snap.instant
        assert rebuilt.to_dict() == snap.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        data = DomainSnapshot(domain="d.example", tld="example",
                              month_index=0, instant=Instant(0)).to_dict()
        data["surprise"] = 1
        with pytest.raises(TypeError):
            DomainSnapshot.from_dict(data)
        obs = MxObservation(hostname="mx.example").__dict__ | {"extra": 1}
        with pytest.raises(TypeError):
            MxObservation.from_dict(obs)

    @given(stores)
    @settings(max_examples=75, deadline=None)
    def test_canonical_bytes_round_trip(self, store):
        rows = json.loads(store.canonical_bytes())
        rebuilt = SnapshotStore.from_rows(rows)
        assert rebuilt == store
        assert rebuilt.canonical_bytes() == store.canonical_bytes()

    def test_empty_store_round_trips(self):
        store = SnapshotStore()
        assert SnapshotStore.from_rows(
            json.loads(store.canonical_bytes())) == store

    @given(stores)
    @settings(max_examples=25, deadline=None)
    def test_disk_round_trip_is_exact(self, tmp_path_factory, store):
        assume(len(store))      # an empty store commits no month
        state_dir = str(tmp_path_factory.mktemp("store"))
        _save(store, state_dir)
        loaded = load_state(state_dir).store
        assert loaded == store
        assert loaded.canonical_bytes() == store.canonical_bytes()

    def test_shards_concatenate_to_canonical_bytes(self, tmp_path):
        store = SnapshotStore()
        for month in (0, 1):
            for name in ("a.example", "straße.example"):
                store.add(DomainSnapshot(domain=name, tld="example",
                                         month_index=month,
                                         instant=Instant(month * 100)))
        _save(store, str(tmp_path))
        rows = []
        for month in store.months():
            with open(tmp_path / shard_name(month), encoding="utf-8") as fh:
                rows.extend(json.loads(line) for line in fh)
        assert rows == json.loads(store.canonical_bytes())


# -- commit / manifest ------------------------------------------------------

def _store_with(*months):
    store = SnapshotStore()
    for month in months:
        store.add(DomainSnapshot(domain="d.example", tld="example",
                                 month_index=month,
                                 instant=Instant(month * 1000)))
    return store


class TestCommit:
    def test_commit_month_is_incremental(self, tmp_path):
        store = _store_with(0, 1)
        commit_month(str(tmp_path), month_rows(store, 0), 0,
                     stats={"domains_scanned": 1},
                     population={"scale": 0.01})
        commit_month(str(tmp_path), month_rows(store, 1), 1)
        state = load_state(str(tmp_path))
        assert state.month_indexes() == [0, 1]
        assert state.population == {"scale": 0.01}   # inherited by month 1
        assert state.entry(0).stats == {"domains_scanned": 1}
        assert state.store == store

    def test_recommit_replaces_entry(self, tmp_path):
        rows = month_rows(_store_with(0), 0)
        commit_month(str(tmp_path), rows, 0)
        commit_month(str(tmp_path), rows, 0, stats={"x": 2})
        state = load_state(str(tmp_path))
        assert [e.month for e in state.months] == [0]
        assert state.entry(0).stats == {"x": 2}

    def test_months_subset_load(self, tmp_path):
        _save(_store_with(0, 1, 2), str(tmp_path))
        state = load_state(str(tmp_path), months=[0, 2])
        assert state.month_indexes() == [0, 2]
        assert state.store.months() == [0, 2]

    def test_read_manifest_absent_is_none(self, tmp_path):
        assert read_manifest(str(tmp_path)) is None


def _timeline():
    """The population of conftest's committed stores."""
    return EcosystemTimeline(
        TimelineConfig(PopulationConfig(scale=0.004, seed=7)))


class TestOneSerialisation:
    def test_campaign_serialises_each_snapshot_once(self, tmp_path,
                                                     monkeypatch):
        """A scanned month becomes rows once: the same rows feed its
        shard commit and its month columns."""
        calls = []
        to_dict = DomainSnapshot.to_dict

        def counted(snapshot):
            calls.append((snapshot.month_index, snapshot.domain))
            return to_dict(snapshot)

        monkeypatch.setattr(DomainSnapshot, "to_dict", counted)
        analysis = run_campaign(_timeline(), [0, 1, 2],
                                state_dir=str(tmp_path / "state"))
        committed = load_state(str(tmp_path / "state")).store
        snapshots = [(s.month_index, s.domain)
                     for s in committed.iter_snapshots()]
        assert snapshots and sorted(calls) == snapshots
        assert analysis.latest == committed.month(2)

    def test_resumed_campaign_converts_each_committed_month_once(
            self, clean_state, tmp_path, monkeypatch):
        """Resuming three committed months into a fourth reads each
        committed shard once: its rows become the month's columns and
        no snapshot object (no ``from_dict``: the final month is
        scanned, not committed), so ``to_dict`` runs only for the 195
        newly scanned snapshots."""
        months = [0, 1, 2, 3]
        reference_dir = str(tmp_path / "reference")
        reference_monitor = CampaignMonitor()
        reference = run_campaign(_timeline(), months,
                                 monitor=reference_monitor,
                                 state_dir=reference_dir)

        state_dir = str(tmp_path / "state")
        shutil.copytree(clean_state, state_dir)
        calls = Counter()
        to_dict = DomainSnapshot.to_dict
        from_dict = DomainSnapshot.from_dict.__func__

        def counted_to_dict(snapshot):
            calls["to_dict"] += 1
            return to_dict(snapshot)

        def counted_from_dict(cls, data):
            calls["from_dict"] += 1
            return from_dict(cls, data)

        monkeypatch.setattr(DomainSnapshot, "to_dict", counted_to_dict)
        monkeypatch.setattr(DomainSnapshot, "from_dict",
                            classmethod(counted_from_dict))
        monitor = CampaignMonitor()
        resumed = run_campaign(_timeline(), months, monitor=monitor,
                               state_dir=state_dir, resume=True)
        monkeypatch.undo()

        assert (calls["to_dict"], calls["from_dict"]) == (195, 0)
        assert figure_dump(resumed) == figure_dump(reference)
        assert monitor.to_jsonl() == reference_monitor.to_jsonl()
        assert (load_state(state_dir).store.canonical_bytes()
                == load_state(reference_dir).store.canonical_bytes())
        assert resumed.latest == reference.latest


# -- corruption -------------------------------------------------------------

class TestCorruption:
    def _committed(self, tmp_path):
        _save(_store_with(0, 1), str(tmp_path))
        return str(tmp_path)

    def test_flipped_byte_is_detected(self, tmp_path):
        state_dir = self._committed(tmp_path)
        shard = os.path.join(state_dir, shard_name(0))
        blob = bytearray(open(shard, "rb").read())
        blob[10] ^= 0xFF
        open(shard, "wb").write(bytes(blob))
        with pytest.raises(StoreCorruption, match=r"month-0000\.jsonl"):
            load_state(state_dir).store

    def test_truncated_shard_is_detected(self, tmp_path):
        state_dir = self._committed(tmp_path)
        shard = os.path.join(state_dir, shard_name(1))
        text = open(shard, encoding="utf-8").read()
        open(shard, "w", encoding="utf-8").write(text[:len(text) // 2])
        with pytest.raises(StoreCorruption, match=r"month-0001\.jsonl"):
            load_state(state_dir).store

    def test_missing_shard_is_detected(self, tmp_path):
        state_dir = self._committed(tmp_path)
        os.remove(os.path.join(state_dir, shard_name(0)))
        with pytest.raises(StoreCorruption,
                           match=r"month-0000\.jsonl.*missing"):
            load_state(state_dir).store

    def test_unparsable_row_with_matching_digest(self, tmp_path):
        # Digest verification passes; the row itself is the problem.
        state_dir = self._committed(tmp_path)
        shard = os.path.join(state_dir, shard_name(0))
        text = '{"domain":"d.example"}\n'
        open(shard, "w", encoding="utf-8").write(text)
        manifest = json.loads(
            open(os.path.join(state_dir, MANIFEST_NAME)).read())
        manifest["months"][0]["sha256"] = shard_digest(text)
        manifest["months"][0]["rows"] = 1
        open(os.path.join(state_dir, MANIFEST_NAME), "w").write(
            json.dumps(manifest))
        with pytest.raises(StoreCorruption, match=r"row 1"):
            load_state(state_dir).store

    def test_row_count_mismatch_is_detected(self, tmp_path):
        state_dir = self._committed(tmp_path)
        manifest_path = os.path.join(state_dir, MANIFEST_NAME)
        manifest = json.loads(open(manifest_path).read())
        shard = os.path.join(state_dir, shard_name(0))
        text = open(shard, encoding="utf-8").read() * 2
        open(shard, "w", encoding="utf-8").write(text)
        manifest["months"][0]["sha256"] = shard_digest(text)
        open(manifest_path, "w").write(json.dumps(manifest))
        with pytest.raises(StoreCorruption, match="manifest records 1"):
            load_state(state_dir).store

    def test_damaged_manifest_is_corruption_not_absence(self, tmp_path):
        state_dir = self._committed(tmp_path)
        open(os.path.join(state_dir, MANIFEST_NAME), "w").write("{nope")
        with pytest.raises(StoreCorruption, match="manifest.json"):
            load_state(state_dir).store

    def test_foreign_schema_version_is_refused(self, tmp_path):
        state_dir = self._committed(tmp_path)
        manifest_path = os.path.join(state_dir, MANIFEST_NAME)
        manifest = json.loads(open(manifest_path).read())
        manifest["schema_version"] = 99
        open(manifest_path, "w").write(json.dumps(manifest))
        with pytest.raises(StoreCorruption, match="schema version 99"):
            load_state(state_dir).store

    def test_no_manifest_at_all(self, tmp_path):
        with pytest.raises(StoreCorruption, match="not a campaign state"):
            load_state(str(tmp_path)).store


# -- damaged state dirs, both kinds -----------------------------------------

#: A delivery campaign that commits in a blink, and the CLI arguments
#: that resume it.
_DELIVERY = dict(scale=0.004, seed=11, month_index=3, senders=12,
                 messages_per_sender=3, backpressure=20, fault_seed=4242,
                 fault_rate=0.35)
_DELIVER_ARGS = ["campaign", "deliver", "--scale", "0.004", "--seed", "11",
                 "--month", "3", "--senders", "12",
                 "--messages-per-sender", "3", "--backpressure", "20",
                 "--fault-seed", "4242", "--fault-rate", "0.35"]


def _first_pending(manifest):
    return next(entry for lane in manifest["checkpoint"]["lanes"].values()
                for entry in lane["pending"])


#: damage -> edit of (manifest, its entry-list key, state dir)
_DAMAGE = {
    "entries-not-a-list": lambda m, key, state: m.update({key: 5}),
    "entry-without-shard": lambda m, key, state: m[key][0].pop("shard"),
    "rows-not-an-integer": lambda m, key, state: m[key][0].update(rows="x"),
    "shard-not-utf8": lambda m, key, state: (
        state / m[key][0]["shard"]).write_bytes(b"\xff\n"),
    # the delivery checkpoint
    "clock-not-a-number": lambda m, key, state: m["checkpoint"].update(
        clock="x"),
    "pending-without-recipient": lambda m, key, state: _first_pending(
        m).pop("recipient"),
}
_ENTRY_DAMAGE = ["entries-not-a-list", "entry-without-shard",
                 "rows-not-an-integer", "shard-not-utf8"]


class TestDamagedStateDirs:
    """One corruption contract for both kinds of state dir: damage
    raises StoreCorruption naming ``manifest.json`` or the shard, and
    every CLI reader prints ``error: …``, exits 1 and leaves the
    directory byte-identical."""

    NAMED = r"manifest\.json|month-0000\.jsonl|wave-0000\.jsonl"

    @pytest.fixture(scope="class")
    def delivery_state(self, tmp_path_factory):
        """A delivery campaign stopped after two waves, with queued
        messages in its lane checkpoint."""
        state = str(tmp_path_factory.mktemp("delivery") / "state")
        run_delivery_campaign(DeliveryCampaignConfig(**_DELIVERY),
                              state_dir=state, max_waves=2)
        return state

    def _damaged(self, source, tmp_path, damage, key):
        state = tmp_path / "state"
        shutil.copytree(source, state)
        manifest = json.loads((state / MANIFEST_NAME).read_text("utf-8"))
        _DAMAGE[damage](manifest, key, state)
        (state / MANIFEST_NAME).write_text(json.dumps(manifest), "utf-8")
        return str(state)

    def _refused(self, capsys, state, args):
        from repro.cli import main
        before = _tree(state)
        assert main(args) == 1
        assert "error: " in capsys.readouterr().err
        assert _tree(state) == before

    @pytest.mark.parametrize("damage", _ENTRY_DAMAGE)
    def test_scan_dir(self, damage, clean_state, tmp_path, capsys):
        state = self._damaged(clean_state, tmp_path, damage, "months")
        with pytest.raises(StoreCorruption, match=self.NAMED):
            load_state(state)
        with pytest.raises(StoreCorruption, match=self.NAMED):
            run_campaign(_timeline(), [0, 1, 2], state_dir=state,
                         resume=True)
        for args in (["campaign", "--scale", "0.004", "--seed", "7",
                      "--state-dir", state, "--resume"],
                     ["audit", "--load", state, "--month", "0"],
                     ["monitor", state]):
            self._refused(capsys, state, args)

    @pytest.mark.parametrize("damage", sorted(_DAMAGE))
    def test_delivery_dir(self, damage, delivery_state, tmp_path, capsys):
        state = self._damaged(delivery_state, tmp_path, damage, "waves")
        with pytest.raises(StoreCorruption, match=self.NAMED):
            run_delivery_campaign(DeliveryCampaignConfig(**_DELIVERY),
                                  state_dir=state, resume=True)
        self._refused(capsys, state,
                      _DELIVER_ARGS + ["--state-dir", state, "--resume"])

    @pytest.mark.parametrize("target", ["damaged", "delivery"])
    def test_audit_save_refuses_before_scanning(
            self, target, delivery_state, tmp_path, capsys):
        """``audit --save`` onto a damaged manifest or another
        workload's state dir is refused before the scan, like every
        reader."""
        if target == "delivery":
            state = tmp_path / "state"
            shutil.copytree(delivery_state, state)
        else:
            state = tmp_path / "damaged"
            state.mkdir()
            (state / MANIFEST_NAME).write_text(
                json.dumps({"schema_version": 1, "months": 5}), "utf-8")
        self._refused(capsys, str(state),
                      ["audit", "--scale", "0.002", "--save", str(state)])


# -- indexes & merge --------------------------------------------------------

class TestStoreIndexes:
    def test_month_is_sorted_by_domain(self):
        store = SnapshotStore()
        for name in ("z.example", "a.example", "m.example"):
            store.add(DomainSnapshot(domain=name, tld="example",
                                     month_index=0, instant=Instant(0)))
        assert [s.domain for s in store.month(0)] == [
            "a.example", "m.example", "z.example"]

    def test_domain_history_is_sorted_by_month(self):
        store = _store_with(2, 0, 1)
        assert [store.get(month, "d.example").month_index
                for month in store.months()] == [0, 1, 2]
        assert store.get(0, "absent.example") is None

    def test_re_add_same_key_does_not_double_count(self):
        store = _store_with(0)
        replacement = DomainSnapshot(domain="d.example", tld="example",
                                     month_index=0, instant=Instant(7))
        store.add(replacement)
        assert len(store) == 1
        assert store.get(0, "d.example") == replacement
        assert store.month(0) == [replacement]


class TestMerge:
    def test_merge_differing_collision_names_the_key(self):
        ours, theirs = _store_with(0), SnapshotStore()
        theirs.add(DomainSnapshot(domain="d.example", tld="example",
                                  month_index=0, instant=Instant(999)))
        with pytest.raises(ValueError,
                           match=r"month=0, domain='d.example'"):
            ours.merge(theirs)

    def test_equal_re_merge_is_idempotent(self):
        ours, theirs = _store_with(0, 1), _store_with(0, 1)
        ours.merge(theirs)
        assert ours == theirs
        assert len(ours) == 2

    def test_disjoint_merge_unions(self):
        ours, theirs = _store_with(0), _store_with(1)
        ours.merge(theirs)
        assert ours.months() == [0, 1]
        assert len(ours) == 2
