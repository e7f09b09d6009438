"""Tests for the scan execution subsystem: deterministic sharding,
the memoization caches, incremental world materialisation, and the
per-stage instrumentation."""

import pytest

from repro.clock import HOUR
from repro.dns.records import RRType
from repro.ecosystem.deployment import DomainSpec, deploy_domain
from repro.ecosystem.population import PopulationConfig, partition_names
from repro.ecosystem.providers import default_email_providers
from repro.ecosystem.timeline import (
    EcosystemTimeline, IncrementalMaterializer, TimelineConfig,
)
from repro.errors import NxDomain
from repro.measurement.executor import BACKENDS, ScanExecutor, ScanStats
from repro.measurement.scanner import Scanner
from repro.measurement.snapshots import SnapshotStore
from repro.pki.validation import (
    chain_cache_stats, flush_chain_cache, reset_chain_cache_stats,
    validate_chain_cached,
)


# -- partitioning ---------------------------------------------------------

class TestPartitioning:
    def test_covers_all_disjoint_and_ordered(self):
        domains = [f"d{i}.example" for i in range(17)]
        shards = partition_names(domains, 4)
        assert len(shards) == 4
        merged = [d for shard in shards for d in shard]
        assert merged == sorted(domains)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic_under_input_order_and_case(self):
        domains = ["B.example", "a.example.", "c.example"]
        expected = partition_names(sorted(domains), 2)
        assert partition_names(reversed(sorted(domains)), 2) == expected
        assert expected[0][0] == "a.example"

    def test_duplicates_collapse(self):
        shards = partition_names(["x.example", "X.EXAMPLE."], 3)
        assert sum(len(s) for s in shards) == 1

    def test_excess_shards_clamp_to_domain_count(self):
        shards = partition_names(["only.example"], 8)
        assert shards == [["only.example"]]
        assert partition_names([], 4) == [[]]


# -- ScanStats ------------------------------------------------------------

class TestScanStats:
    def test_merge_sums_counters(self):
        a = ScanStats(domains_scanned=3, dns_queries=10, smtp_probes=4,
                      scan_seconds=1.5, months=1)
        b = ScanStats(domains_scanned=2, dns_queries=5, smtp_probes=1,
                      scan_seconds=0.5, months=1)
        a.merge(b)
        assert a.domains_scanned == 5
        assert a.dns_queries == 15
        assert a.smtp_probes == 5
        assert a.scan_seconds == pytest.approx(2.0)
        assert a.months == 2

    def test_as_dict_and_render(self):
        stats = ScanStats(backend="process", jobs=4, domains_scanned=7)
        data = stats.as_dict()
        assert data["backend"] == "process"
        assert data["domains_scanned"] == 7
        table = stats.render_table()
        assert "backend=process jobs=4" in table
        assert "domains scanned" in table

    def test_invalid_backend_rejected(self):
        assert BACKENDS == ("serial", "process")
        with pytest.raises(ValueError):
            ScanExecutor(backend="processes")
        with pytest.raises(ValueError):
            ScanExecutor(backend="threaded", jobs=2)
        with pytest.raises(ValueError):
            ScanExecutor(jobs=0)


# -- executor determinism -------------------------------------------------

@pytest.mark.parametrize("seed", [11, 4242])
def test_executor_matches_cache_free_scanner(seed):
    timeline = EcosystemTimeline(
        TimelineConfig(PopulationConfig(scale=0.004, seed=seed)))
    month = len(timeline.scan_instants) - 1
    materialized = timeline.materialize(month)
    domains = materialized.deployed.keys()

    scanned, _ = ScanExecutor().scan(materialized.world, domains, month)

    # The memoizing executor must agree with a plain, cache-free
    # Scanner.
    reference = SnapshotStore()
    Scanner(materialized.world).scan_all(sorted(domains), month, reference)

    assert scanned.canonical_bytes() == reference.canonical_bytes()


# -- incremental materialisation -----------------------------------------

def _comparable(snapshot):
    """Snapshot content modulo concrete IP values.

    Incremental materialisation reuses one world across months, so
    addresses are allocated in a different order than a from-scratch
    build; every field the analyses read must still match exactly, and
    address *counts* must agree."""
    data = snapshot.to_dict()
    data["apex_addresses"] = len(data["apex_addresses"])
    data["policy_host_addresses"] = len(data["policy_host_addresses"])
    for obs in data["mx_observations"]:
        obs["addresses"] = len(obs["addresses"])
    return data


class TestIncrementalEquivalence:
    def test_every_month_matches_full_rebuild(self):
        config = TimelineConfig(PopulationConfig(scale=0.004, seed=7))
        full_timeline = EcosystemTimeline(config)
        inc_timeline = EcosystemTimeline(config)
        incremental = IncrementalMaterializer(inc_timeline)
        executor = ScanExecutor()

        for month in range(len(full_timeline.scan_instants)):
            full = full_timeline.materialize(month)
            inc = incremental.materialize(month)
            assert sorted(full.deployed) == sorted(inc.deployed)
            assert full.instant.epoch_seconds == inc.instant.epoch_seconds

            full_store, _ = executor.scan(
                full.world, full.deployed.keys(), month,
                instant=full.instant)
            inc_store, _ = executor.scan(
                inc.world, inc.deployed.keys(), month,
                instant=inc.instant)
            full_rows = [_comparable(s) for s in full_store.month(month)]
            inc_rows = [_comparable(s) for s in inc_store.month(month)]
            assert full_rows == inc_rows, f"month {month} diverged"

    def test_full_rebuild_escape_hatch(self):
        config = TimelineConfig(PopulationConfig(scale=0.004, seed=7))
        incremental = IncrementalMaterializer(EcosystemTimeline(config))
        incremental.materialize(0)
        first = incremental.materialize(1)
        rebuilt = incremental.materialize(1)    # a repeated month
        assert rebuilt.world is not first.world
        assert sorted(rebuilt.deployed) == sorted(first.deployed)
        assert first.build_stats["full_rebuild"] == 0
        assert rebuilt.build_stats["full_rebuild"] == 1

    def test_backwards_month_forces_full_build(self):
        config = TimelineConfig(PopulationConfig(scale=0.004, seed=7))
        incremental = IncrementalMaterializer(EcosystemTimeline(config))
        incremental.materialize(2)
        earlier = incremental.materialize(1)
        assert earlier.month_index == 1


# -- executor statistics --------------------------------------------------

class TestExecutorStats:
    def test_counters_populated(self, world):
        provider = default_email_providers()[0]
        for name in ("one.example", "two.example"):
            deploy_domain(world, DomainSpec(domain=name,
                                            email_provider=provider))
        store, stats = ScanExecutor().scan(
            world, ["one.example", "two.example"], 0)
        assert stats.domains_scanned == 2
        assert len(store.month(0)) == 2
        assert stats.dns_queries > 0
        assert stats.policy_fetches == 2
        assert stats.smtp_probes > 0
        assert stats.scan_seconds > 0
        # Both domains share the provider's MX farm: the second domain's
        # probes must be memo hits, not fresh SMTP dialogues.
        assert stats.smtp_probe_cache_hits >= len(provider.mx_hostnames)

    def test_probe_cache_disabled_outside_executor(self, world,
                                                   simple_domain):
        assert not world.smtp_probe.cache_enabled
        world.smtp_probe.probe_host("mail.example.com")
        world.smtp_probe.probe_host("mail.example.com")
        assert world.smtp_probe.cache_hits == 0

        ScanExecutor().scan(world, ["example.com"], 0)
        assert not world.smtp_probe.cache_enabled  # restored after scan


# -- SMTP probe memoization ----------------------------------------------

class TestProbeCache:
    def test_cache_hit_and_flush(self, world, simple_domain):
        probe = world.smtp_probe
        probe.cache_enabled = True
        first = probe.probe_host("mail.example.com")
        second = probe.probe_host("mail.example.com")
        assert second is first
        assert probe.cache_hits == 1
        probe.flush_cache()
        third = probe.probe_host("mail.example.com")
        assert third is not first
        stats = probe.cache_stats()
        assert stats["cache_hits"] == 1
        assert 0.0 < stats["hit_rate"] < 1.0


# -- PKIX chain-validation cache -----------------------------------------

class TestChainCache:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        flush_chain_cache()
        reset_chain_cache_stats()
        yield
        flush_chain_cache()
        reset_chain_cache_stats()

    def test_repeat_validation_hits(self, world):
        cert = world.issue_cert(["mail.example.com"])
        now = world.now()
        first = validate_chain_cached(cert, "mail.example.com",
                                      world.trust_store, now)
        second = validate_chain_cached(cert, "mail.example.com",
                                       world.trust_store, now)
        assert first.valid and second.valid
        assert chain_cache_stats()["cache_hits"] == 1

    def test_revocation_changes_key(self, world):
        cert = world.issue_cert(["mail.example.com"])
        now = world.now()
        assert validate_chain_cached(cert, "mail.example.com",
                                     world.trust_store, now).valid
        revoked = world.ca.revoke(cert)
        result = validate_chain_cached(revoked, "mail.example.com",
                                       world.trust_store, now)
        assert not result.valid
        assert chain_cache_stats()["cache_hits"] == 0

    def test_trust_store_mutation_invalidates(self, world):
        cert = world.issue_cert(["mail.example.com"])
        now = world.now()
        assert validate_chain_cached(cert, "mail.example.com",
                                     world.trust_store, now).valid
        world.trust_store.remove_root(world.ca.root)
        result = validate_chain_cached(cert, "mail.example.com",
                                       world.trust_store, now)
        assert not result.valid
        assert chain_cache_stats()["cache_hits"] == 0

    def test_hostname_part_of_key(self, world):
        cert = world.issue_cert(["*.example.com"])
        now = world.now()
        assert validate_chain_cached(cert, "mail.example.com",
                                     world.trust_store, now).valid
        assert not validate_chain_cached(cert, "mail.other.org",
                                         world.trust_store, now).valid
        assert chain_cache_stats()["cache_hits"] == 0


# -- resolver instrumentation --------------------------------------------

class TestResolverStats:
    def test_negative_cache_hits_counted(self, world, simple_domain):
        resolver = world.resolver
        resolver.reset_stats()
        resolver.flush_cache()
        for _ in range(2):
            with pytest.raises(NxDomain):
                resolver.resolve("nope.example.com", RRType.A)
        stats = resolver.cache_stats()
        assert stats["negative_cache_hits"] == 1
        assert stats["cache_hits"] >= stats["negative_cache_hits"]
        assert stats["queries"] >= 1

    def test_positive_hits_not_counted_as_negative(self, world,
                                                   simple_domain):
        resolver = world.resolver
        resolver.reset_stats()
        resolver.flush_cache()
        resolver.resolve("mail.example.com", RRType.A)
        resolver.resolve("mail.example.com", RRType.A)
        stats = resolver.cache_stats()
        assert stats["cache_hits"] >= 1
        assert stats["negative_cache_hits"] == 0


# -- Scanner instant threading -------------------------------------------

class TestScanAllInstant:
    def test_one_instant_per_month(self, world, simple_domain):
        deploy_domain(world, DomainSpec(domain="second.example"))
        instant = world.now()
        world.clock.advance(HOUR)
        store = SnapshotStore()
        Scanner(world).scan_all(["example.com", "second.example"], 0,
                                store, instant=instant)
        stamps = {s.instant.epoch_seconds for s in store.month(0)}
        assert stamps == {instant.epoch_seconds}

    def test_defaults_to_world_now(self, world, simple_domain):
        store = SnapshotStore()
        Scanner(world).scan_all(["example.com"], 0, store)
        (snap,) = store.month(0)
        assert snap.instant.epoch_seconds == world.now().epoch_seconds
