"""Pipeline stress/differential tests under deterministic fault plans.

The fault layer's contract with the scan pipeline:

* the memoizing executor matches a cache-free scan under any
  FaultPlan seed (fault decisions are pure functions of the
  operation, and transient verdicts never leak into the memo caches);
* a 12-month incremental campaign matches a from-scratch rebuild even
  when endpoints flap between months (description-keyed schedules are
  portable across worlds whose IP allocation order differs);
* domains that recover within the retry budget classify identically to
  domains that never faulted;
* ``audit --fault-seed`` surfaces nonzero retry/fault counters.
"""

import os

import pytest

from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import (
    EcosystemTimeline, IncrementalMaterializer, TimelineConfig,
)
from repro.measurement.executor import ScanExecutor
from repro.measurement.scanner import Scanner
from repro.measurement.snapshots import SnapshotStore
from repro.measurement.taxonomy import primary_bucket
from repro.netsim.network import FaultPlan

pytestmark = pytest.mark.faults


def _fault_seeds() -> list[int]:
    """The fixed default seeds, extended by the CI matrix variable."""
    seeds = [101, 202]
    env = os.environ.get("REPRO_FAULT_SEEDS", "")
    seeds += [int(s) for s in env.replace(",", " ").split() if s]
    return sorted(set(seeds))


# -- executor determinism under faults ------------------------------------

@pytest.mark.parametrize("fault_seed", _fault_seeds())
def test_executor_matches_cache_free_scanner_under_faults(fault_seed):
    timeline = EcosystemTimeline(
        TimelineConfig(PopulationConfig(scale=0.004, seed=11)))
    month = len(timeline.scan_instants) - 1
    materialized = timeline.materialize(month)
    domains = materialized.deployed.keys()
    materialized.world.network.install_fault_plan(
        FaultPlan.seeded(seed=fault_seed, rate=0.3))

    scanned, _ = ScanExecutor().scan(materialized.world, domains, month)
    # A plain cache-free Scanner must agree: the memo caches must not
    # leak transient verdicts into later domains.
    reference = SnapshotStore()
    Scanner(materialized.world).scan_all(sorted(domains), month, reference)

    assert scanned.canonical_bytes() == reference.canonical_bytes()


def test_scanning_twice_under_one_plan_is_stable():
    """Fault schedules keep no state across operations: re-scanning the
    same world under the same plan reproduces the same store."""
    timeline = EcosystemTimeline(
        TimelineConfig(PopulationConfig(scale=0.004, seed=11)))
    month = len(timeline.scan_instants) - 1
    materialized = timeline.materialize(month)
    domains = materialized.deployed.keys()
    materialized.world.network.install_fault_plan(
        FaultPlan.seeded(seed=303, rate=0.4))
    executor = ScanExecutor()
    first, _ = executor.scan(materialized.world, domains, month)
    second, _ = executor.scan(materialized.world, domains, month)
    assert first.canonical_bytes() == second.canonical_bytes()


# -- incremental campaign under flapping endpoints ------------------------

def _comparable(snapshot):
    """Snapshot content modulo concrete IP values (incremental worlds
    allocate addresses in a different order than fresh builds)."""
    data = snapshot.to_dict()
    data["apex_addresses"] = len(data["apex_addresses"])
    data["policy_host_addresses"] = len(data["policy_host_addresses"])
    for obs in data["mx_observations"]:
        obs["addresses"] = len(obs["addresses"])
    return data


def test_incremental_campaign_matches_full_rebuild_under_flapping():
    config = TimelineConfig(PopulationConfig(scale=0.004, seed=7))
    full_timeline = EcosystemTimeline(config)
    incremental = IncrementalMaterializer(EcosystemTimeline(config))
    executor = ScanExecutor()
    months = len(full_timeline.scan_instants)
    assert months >= 12
    transient_months = 0

    for month in range(months):
        full = full_timeline.materialize(month)
        inc = incremental.materialize(month)
        assert full.instant.epoch_seconds == inc.instant.epoch_seconds

        # Fresh-but-equivalent plans per world: schedules are derived
        # from (seed, description) alone, so both worlds fault the
        # same logical services — and the FLAP square wave, keyed to
        # the shared simulated clock, flips between months.
        for materialized in (full, inc):
            materialized.world.network.install_fault_plan(
                FaultPlan.seeded(seed=99, rate=0.3))
            # Materialization warms the DNS cache differently in the
            # two worlds (a full build just resolved every deployment;
            # the incremental world carries a month-old cache), and a
            # cached answer shields a query from a faulted nameserver.
            # Scans must face the fault plan from equal cache states.
            materialized.world.resolver.flush_cache()
        try:
            full_store, _ = executor.scan(
                full.world, full.deployed.keys(), month,
                instant=full.instant)
            inc_store, _ = executor.scan(
                inc.world, inc.deployed.keys(), month,
                instant=inc.instant)
        finally:
            # The plan must never fault world *materialization*: the
            # incremental path replays deployment traffic next month.
            for materialized in (full, inc):
                materialized.world.network.install_fault_plan(None)

        full_rows = [_comparable(s) for s in full_store.month(month)]
        inc_rows = [_comparable(s) for s in inc_store.month(month)]
        assert full_rows == inc_rows, f"month {month} diverged"
        if any(s.any_transient for s in full_store.month(month)):
            transient_months += 1

    # The plan actually bit: some months saw retry-exhausted faults.
    assert transient_months > 0


# -- recovery equivalence at pipeline level -------------------------------

def test_recovered_domains_classify_like_never_faulty():
    """Across a whole scan, every domain whose faults stayed within the
    retry budget must land in the same taxonomy bucket as in a clean
    scan of an identical world."""
    def materialize():
        timeline = EcosystemTimeline(
            TimelineConfig(PopulationConfig(scale=0.004, seed=23)))
        return timeline, timeline.materialize(
            len(timeline.scan_instants) - 1)

    _, clean = materialize()
    _, faulty = materialize()
    month = clean.month_index
    # count=1 schedules always recover inside the 3-attempt budget.
    from repro.netsim.network import FaultKind, FaultSpec
    plan = FaultPlan()
    for listener in faulty.world.network.listeners():
        if listener.description:
            plan.add_description(listener.description,
                                 FaultSpec(FaultKind.REFUSE, count=1))
    faulty.world.network.install_fault_plan(plan)

    executor = ScanExecutor()
    clean_store, clean_stats = executor.scan(
        clean.world, clean.deployed.keys(), month, instant=clean.instant)
    faulty_store, faulty_stats = executor.scan(
        faulty.world, faulty.deployed.keys(), month,
        instant=faulty.instant)

    assert faulty_stats.faults_injected > 0
    assert faulty_stats.connect_retries > 0
    assert faulty_stats.transient_domains == 0
    assert (clean_store.canonical_bytes()
            == faulty_store.canonical_bytes())
    for snap_clean, snap_faulty in zip(clean_store.month(month),
                                       faulty_store.month(month)):
        assert primary_bucket(snap_clean) == primary_bucket(snap_faulty)


# -- CLI integration ------------------------------------------------------

def test_audit_stats_surface_fault_counters(capsys):
    from repro.cli import main
    assert main(["audit", "--scale", "0.002", "--fault-seed", "7",
                 "--fault-rate", "0.5", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "transient (faulted)" in out

    def stat(label):
        for line in out.splitlines():
            if label in line:
                return int(line.split()[-1].replace(",", ""))
        raise AssertionError(f"{label!r} missing from stats:\n{out}")

    assert stat("faults injected") > 0
    assert stat("connect retries") > 0


def test_audit_without_faults_reports_zero_counters(capsys):
    from repro.cli import main
    assert main(["audit", "--scale", "0.002", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "transient (faulted)" not in out

    for line in out.splitlines():
        if "faults injected" in line or "connect retries" in line:
            assert int(line.split()[-1].replace(",", "")) == 0
