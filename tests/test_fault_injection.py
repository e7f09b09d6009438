"""The deterministic fault-injection layer: fault schedules, the retry
policy's exact backoff arithmetic, ``connect_with_retries`` semantics,
and the cache-hygiene rules (transient verdicts must never be served
stale after an endpoint recovers)."""

import dataclasses

import pytest

from repro.clock import SECOND, Clock, Instant
from repro.dns.records import RRType
from repro.ecosystem.deployment import DomainSpec, deploy_domain
from repro.errors import (
    ConnectionRefused, ConnectionReset, ConnectionTimeout, DnsError,
)
from repro.netsim.ip import IpAddress
from repro.netsim.network import FaultKind, FaultPlan, FaultSpec, Network
from repro.netsim.retry import (
    DEFAULT_RETRY_POLICY, RetryPolicy, connect_with_retries,
)

pytestmark = pytest.mark.faults

IP = IpAddress.parse("10.1.2.3")
PORT = 25


@pytest.fixture
def net():
    network = Network()
    network.register(IP, PORT, app="the-app", description="smtp:mx.example")
    return network


def _plan(*specs: FaultSpec) -> FaultPlan:
    return FaultPlan().add(IP, PORT, *specs)


# -- FaultSpec schedules --------------------------------------------------

class TestFaultSchedules:
    def test_refuse_first_n_attempts_then_recovers(self, net):
        net.install_fault_plan(_plan(FaultSpec(FaultKind.REFUSE, count=2)))
        for attempt in range(2):
            with pytest.raises(ConnectionRefused) as err:
                net.connect(IP, PORT, attempt=attempt)
            assert err.value.transient is True
        assert net.connect(IP, PORT, attempt=2) == "the-app"
        assert net.fault_plan.injections == 2
        assert net.fault_plan.injected_by_kind == {"refuse": 2}

    def test_timeout_fault_raises_transient_timeout(self, net):
        net.install_fault_plan(_plan(FaultSpec(FaultKind.TIMEOUT)))
        with pytest.raises(ConnectionTimeout) as err:
            net.connect(IP, PORT, attempt=0)
        assert err.value.transient is True
        assert net.connect(IP, PORT, attempt=1) == "the-app"

    def test_reset_carries_bytes_delivered(self, net):
        net.install_fault_plan(
            _plan(FaultSpec(FaultKind.RESET, after_bytes=512)))
        with pytest.raises(ConnectionReset) as err:
            net.connect(IP, PORT, attempt=0)
        assert err.value.transient is True
        assert err.value.bytes_delivered == 512

    def test_slow_start_only_fires_past_the_budget(self, net):
        net.install_fault_plan(
            _plan(FaultSpec(FaultKind.SLOW_START, latency=10.0)))
        # Slow but affordable: the connection succeeds.
        assert net.connect(IP, PORT, attempt=0, timeout=30.0) == "the-app"
        # Slower than the remaining budget: surfaces as a timeout.
        with pytest.raises(ConnectionTimeout) as err:
            net.connect(IP, PORT, attempt=0, timeout=5.0)
        assert err.value.transient is True
        # No budget given (non-retrying caller): never fires.
        assert net.connect(IP, PORT, attempt=0) == "the-app"

    def test_flap_follows_the_simulated_clock(self):
        clock = Clock(Instant(epoch_seconds=0))
        network = Network(clock=clock)
        network.register(IP, PORT, app="the-app",
                         description="smtp:mx.example")
        period = 100
        network.install_fault_plan(
            _plan(FaultSpec(FaultKind.FLAP, period=period)))
        # phase 0: down first — and the attempt index is irrelevant.
        for attempt in (0, 1, 7):
            with pytest.raises(ConnectionTimeout):
                network.connect(IP, PORT, attempt=attempt)
        clock.advance(SECOND * period)
        assert network.connect(IP, PORT) == "the-app"
        clock.advance(SECOND * period)
        with pytest.raises(ConnectionTimeout):
            network.connect(IP, PORT)

    def test_description_keyed_faults_survive_readdressing(self, net):
        plan = FaultPlan().add_description(
            "smtp:mx.example", FaultSpec(FaultKind.REFUSE, count=99))
        net.install_fault_plan(plan)
        with pytest.raises(ConnectionRefused):
            net.connect(IP, PORT, attempt=0)
        # The same logical service on a different IP faults identically.
        other_ip = IpAddress.parse("10.9.9.9")
        net.register(other_ip, PORT, app="the-app",
                     description="smtp:mx.example")
        with pytest.raises(ConnectionRefused):
            net.connect(other_ip, PORT, attempt=0)

    def test_uninstall_restores_clean_fabric(self, net):
        net.install_fault_plan(_plan(FaultSpec(FaultKind.REFUSE, count=99)))
        with pytest.raises(ConnectionRefused):
            net.connect(IP, PORT, attempt=0)
        net.install_fault_plan(None)
        assert net.connect(IP, PORT, attempt=0) == "the-app"
        assert net.faults_injected == 0   # counter lives on the plan

    def test_static_refusals_are_not_transient(self, net):
        """Hard failures from the fabric itself stay non-transient."""
        net.install_fault_plan(_plan())   # empty plan installed
        unbound = IpAddress.parse("10.1.2.4")
        net.register_host(unbound)
        with pytest.raises(ConnectionRefused) as err:
            net.connect(unbound, PORT)
        assert getattr(err.value, "transient", False) is False


# -- seeded plan determinism ----------------------------------------------

DESCRIPTIONS = [f"smtp:mx{i}.example.com" for i in range(200)]


class TestSeededPlans:
    def test_same_seed_same_schedule(self):
        a = FaultPlan.seeded(seed=77, rate=0.3)
        b = FaultPlan.seeded(seed=77, rate=0.3)
        for description in DESCRIPTIONS:
            assert (a.specs_for("10.0.0.1", 25, description)
                    == b.specs_for("10.0.0.2", 25, description))

    def test_schedule_independent_of_query_order(self):
        a = FaultPlan.seeded(seed=77, rate=0.3)
        b = FaultPlan.seeded(seed=77, rate=0.3)
        forward = [a.specs_for("", 25, d) for d in DESCRIPTIONS]
        backward = [b.specs_for("", 25, d) for d in reversed(DESCRIPTIONS)]
        assert forward == list(reversed(backward))

    def test_different_seeds_differ(self):
        a = FaultPlan.seeded(seed=1, rate=0.3)
        b = FaultPlan.seeded(seed=2, rate=0.3)
        assert any(a.specs_for("", 25, d) != b.specs_for("", 25, d)
                   for d in DESCRIPTIONS)

    def test_rate_bounds_the_faulted_fraction(self):
        plan = FaultPlan.seeded(seed=5, rate=0.25)
        faulted = sum(bool(plan.specs_for("", 25, d)) for d in DESCRIPTIONS)
        assert 0.10 * len(DESCRIPTIONS) < faulted < 0.45 * len(DESCRIPTIONS)

    def test_zero_rate_and_blank_description_never_fault(self):
        plan = FaultPlan.seeded(seed=5, rate=0.0)
        assert all(not plan.specs_for("", 25, d) for d in DESCRIPTIONS)
        assert not FaultPlan.seeded(seed=5, rate=1.0).specs_for("", 25, "")

    def test_kinds_restriction_honoured(self):
        plan = FaultPlan.seeded(seed=5, rate=1.0,
                                kinds=(FaultKind.FLAP,))
        for description in DESCRIPTIONS[:50]:
            specs = plan.specs_for("", 25, description)
            assert specs and all(s.kind is FaultKind.FLAP for s in specs)
            assert all(s.period > 0 for s in specs)


# -- RetryPolicy backoff arithmetic ---------------------------------------

class TestBackoff:
    def test_pure_exponential_without_jitter(self):
        policy = RetryPolicy(max_attempts=6, jitter=0.0, max_delay=2.0)
        assert policy.backoff_sequence("k") == [0.25, 0.5, 1.0, 2.0, 2.0]

    def test_exact_jittered_sequence_under_default_seed(self):
        policy = RetryPolicy()   # seed=0, jitter=0.5
        assert policy.backoff_sequence(
            "smtp:mail.example.com:10.30.0.1") == pytest.approx(
            [0.28462973254167123, 0.7291933008786278])

    def test_exact_jittered_sequence_under_seed_42(self):
        policy = RetryPolicy(seed=42)
        assert policy.backoff_sequence(
            "smtp:mail.example.com:10.30.0.1") == pytest.approx(
            [0.25427215789425506, 0.6850812803522123])

    def test_jitter_is_a_pure_function_of_seed_key_attempt(self):
        policy = RetryPolicy()
        assert policy.backoff("a", 1) == policy.backoff("a", 1)
        assert policy.backoff("a", 1) != policy.backoff("b", 1)
        assert policy.backoff("a", 0) != policy.backoff("a", 1)

    def test_jitter_stays_within_the_band(self):
        policy = RetryPolicy(jitter=0.5)
        for attempt, raw in enumerate((0.25, 0.5)):
            for key in ("x", "y", "z"):
                delay = policy.backoff(key, attempt)
                assert raw * 0.5 <= delay <= raw * 1.5


class _CountingPolicy(RetryPolicy):
    """A :class:`RetryPolicy` that logs every delay it computes."""

    def backoff(self, key, attempt):
        _COMPUTED.append((key, attempt))
        return super().backoff(key, attempt)


_COMPUTED = []


class TestBackoffMemo:
    """``Network.backoff_delay`` computes each delay once per world and
    returns exactly the float ``RetryPolicy.backoff`` gives."""

    def test_memoised_delays_equal_fresh_backoff(self):
        net = Network()
        keys = [f"10.0.{n // 256}.{n % 256}:{port}"
                for n in range(250) for port in (25, 443)]
        for policy in (RetryPolicy(), RetryPolicy(seed=42, max_attempts=4)):
            for _ in range(2):      # the second pass reads the memo
                for key in keys:
                    for attempt in range(policy.max_attempts - 1):
                        fresh = RetryPolicy(**vars(policy))
                        assert (net.backoff_delay(policy, key, attempt)
                                == fresh.backoff(key, attempt))

    def test_each_delay_is_computed_once_per_network(self):
        policy = _CountingPolicy()
        _COMPUTED.clear()
        first, second = Network(), Network()
        for _ in range(3):
            first.backoff_delay(policy, "op", 0)
            first.backoff_delay(policy, "op", 1)
        assert _COMPUTED == [("op", 0), ("op", 1)]
        # A second world starts with an empty memo.
        second.backoff_delay(policy, "op", 0)
        assert _COMPUTED == [("op", 0), ("op", 1), ("op", 0)]

    def test_connect_with_retries_charges_the_policy_delays(self, net):
        net.install_fault_plan(_plan(FaultSpec(FaultKind.REFUSE, count=9)))
        policy = RetryPolicy(seed=7)
        for _ in range(2):
            with pytest.raises(ConnectionRefused):
                connect_with_retries(net, IP, PORT, policy=policy, key="op")
        assert net.backoff_micros == 2 * sum(
            round(delay * 1_000_000)
            for delay in policy.backoff_sequence("op"))

    def test_retry_policy_value_semantics_are_unchanged(self, net):
        net.install_fault_plan(_plan(FaultSpec(FaultKind.REFUSE, count=9)))
        with pytest.raises(ConnectionRefused):
            connect_with_retries(net, IP, PORT)     # the default policy
        assert RetryPolicy() == DEFAULT_RETRY_POLICY
        assert hash(RetryPolicy()) == hash(DEFAULT_RETRY_POLICY)
        assert RetryPolicy(seed=1) != DEFAULT_RETRY_POLICY
        assert repr(DEFAULT_RETRY_POLICY) == (
            "RetryPolicy(max_attempts=3, base_delay=0.25, multiplier=2.0, "
            "max_delay=8.0, jitter=0.5, seed=0, timeout_budget=30.0)")
        # The memo lives on the network, never on the shared default.
        assert sorted(vars(DEFAULT_RETRY_POLICY)) == sorted(
            field.name for field in dataclasses.fields(RetryPolicy))


# -- connect_with_retries -------------------------------------------------

class TestConnectWithRetries:
    def test_recovers_within_the_attempt_budget(self, net):
        net.install_fault_plan(_plan(FaultSpec(FaultKind.REFUSE, count=2)))
        policy = RetryPolicy(max_attempts=3, jitter=0.0)
        app = connect_with_retries(net, IP, PORT, policy=policy, key="op")
        assert app == "the-app"
        assert net.retried_connects == 2
        assert net.backoff_seconds == pytest.approx(0.25 + 0.5)

    def test_exhaustion_reraises_the_transient_error(self, net):
        net.install_fault_plan(_plan(FaultSpec(FaultKind.REFUSE, count=9)))
        policy = RetryPolicy(max_attempts=3, jitter=0.0)
        with pytest.raises(ConnectionRefused) as err:
            connect_with_retries(net, IP, PORT, policy=policy, key="op")
        assert err.value.transient is True
        assert net.connect_count == 3
        # No backoff is charged after the final, losing attempt.
        assert net.backoff_seconds == pytest.approx(0.25 + 0.5)

    def test_budget_exhaustion_stops_before_attempts_run_out(self, net):
        net.install_fault_plan(_plan(FaultSpec(FaultKind.REFUSE, count=9)))
        policy = RetryPolicy(max_attempts=5, base_delay=10.0, jitter=0.0,
                             max_delay=60.0, timeout_budget=15.0)
        with pytest.raises(ConnectionRefused):
            connect_with_retries(net, IP, PORT, policy=policy, key="op")
        # attempt 0 (delay 10 charged), attempt 1 (delay 20 overruns).
        assert net.connect_count == 2

    def test_single_attempt_policy_never_backs_off(self, net):
        net.install_fault_plan(_plan(FaultSpec(FaultKind.TIMEOUT)))
        with pytest.raises(ConnectionTimeout):
            connect_with_retries(net, IP, PORT,
                                 policy=RetryPolicy(max_attempts=1))
        assert net.connect_count == 1
        assert net.backoff_seconds == 0.0

    def test_hard_failure_exhausts_without_transient_flag(self, net):
        """A deterministically-closed port retries, then fails hard."""
        closed = IpAddress.parse("10.1.2.5")
        net.register_host(closed)
        with pytest.raises(ConnectionRefused) as err:
            connect_with_retries(net, closed, PORT,
                                 policy=RetryPolicy(max_attempts=3))
        assert getattr(err.value, "transient", False) is False
        assert net.connect_count == 3


# -- cache hygiene under transient failures -------------------------------

class TestTransientCacheHygiene:
    def test_probe_cache_skips_transient_then_serves_recovery(
            self, world, simple_domain):
        probe = world.smtp_probe
        probe.cache_enabled = True
        world.network.install_fault_plan(
            FaultPlan().add_description(
                "smtp:mail.example.com",
                FaultSpec(FaultKind.REFUSE, count=99)))

        first = probe.probe_host("mail.example.com")
        assert first.transient and not first.reachable
        second = probe.probe_host("mail.example.com")
        assert second.transient
        assert second is not first          # not served from the memo
        assert probe.cache_hits == 0
        assert probe.probes_performed == 2

        world.network.install_fault_plan(None)   # endpoint recovers
        recovered = probe.probe_host("mail.example.com")
        assert recovered.reachable and not recovered.transient
        # The settled verdict memoizes as usual.
        assert probe.probe_host("mail.example.com") is recovered
        assert probe.cache_hits == 1

    def test_hard_failures_still_memoize(self, world, simple_domain):
        """Only *transient* verdicts bypass the memo: deterministic
        unreachability is a settled outcome and caches normally."""
        from repro.netsim.network import TcpBehavior
        from repro.smtp.server import SMTP_PORT
        probe = world.smtp_probe
        probe.cache_enabled = True
        address = world.resolver.resolve_address("mail.example.com")[0]
        world.network.set_behavior(address, SMTP_PORT, TcpBehavior.REFUSE)
        first = probe.probe_host("mail.example.com")
        assert not first.reachable and not first.transient
        assert probe.probe_host("mail.example.com") is first
        assert probe.cache_hits == 1

    def test_resolver_does_not_negatively_cache_transients(
            self, world, simple_domain):
        resolver = world.resolver
        resolver.flush_cache()
        world.network.install_fault_plan(
            FaultPlan().add_description(
                "dns:ns.example.com",
                FaultSpec(FaultKind.TIMEOUT, count=99)))
        answer, error = resolver.resolve_detailed("mail.example.com",
                                                  RRType.A)
        assert answer is None
        assert isinstance(error, DnsError)
        assert error.transient is True

        world.network.install_fault_plan(None)   # nameserver recovers
        answer, error = resolver.resolve_detailed("mail.example.com",
                                                  RRType.A)
        assert error is None
        assert answer is not None and answer.records

    def test_scan_during_faults_marks_transient_not_misconfigured(
            self, world, simple_domain):
        from repro.measurement.scanner import Scanner
        from repro.measurement.taxonomy import primary_bucket
        world.network.install_fault_plan(
            FaultPlan().add_description(
                "smtp:mail.example.com",
                FaultSpec(FaultKind.REFUSE, count=99)))
        snapshot = Scanner(world).scan_domain("example.com", 0)
        assert snapshot.any_transient
        assert primary_bucket(snapshot) == "transient"

        world.network.install_fault_plan(None)
        clean = Scanner(world).scan_domain("example.com", 0)
        assert not clean.any_transient
        assert primary_bucket(clean) == "ok"


# -- recovered == never-faulty --------------------------------------------

def test_recovery_within_budget_is_indistinguishable():
    """A domain whose endpoints fault once but recover inside the retry
    budget must produce byte-identical observations to a domain that
    never faulted at all — the acceptance bar for the retry layer."""
    from repro.measurement.scanner import Scanner

    def build():
        from repro.ecosystem.world import World
        world = World()
        deploy_domain(world, DomainSpec(domain="example.com"))
        return world

    clean_world, faulty_world = build(), build()
    plan = FaultPlan()
    for description in ("smtp:mail.example.com",
                        "https:www.example.com",
                        "dns:ns.example.com"):
        plan.add_description(description,
                             FaultSpec(FaultKind.REFUSE, count=1))
    faulty_world.network.install_fault_plan(plan)

    clean = Scanner(clean_world).scan_domain("example.com", 0)
    faulted = Scanner(faulty_world).scan_domain("example.com", 0)
    assert faulty_world.network.faults_injected > 0
    assert faulty_world.network.retried_connects > 0
    assert faulted.to_dict() == clean.to_dict()


# -- the transient taxonomy dimension -------------------------------------

def _snapshot(**overrides):
    from repro.measurement.snapshots import DomainSnapshot
    fields = dict(domain="d.example", tld="example", month_index=0,
                  instant=Instant(epoch_seconds=0))
    fields.update(overrides)
    return DomainSnapshot(**fields)


class TestTransientTaxonomy:
    def test_categorize_adds_transient_for_sts_snapshot(self):
        from repro.errors import MisconfigCategory
        from repro.measurement.taxonomy import categorize
        snap = _snapshot(sts_like=True, record_valid=True,
                         policy_transient=True)
        assert MisconfigCategory.TRANSIENT in categorize(snap)

    def test_categorize_marks_transient_non_sts_snapshots_too(self):
        from repro.errors import MisconfigCategory
        from repro.measurement.taxonomy import categorize
        snap = _snapshot(dns_transient=True)
        assert categorize(snap) == [MisconfigCategory.TRANSIENT]
        assert categorize(_snapshot()) == []

    def test_primary_bucket_priority_order(self):
        from repro.measurement.taxonomy import primary_bucket
        assert primary_bucket(_snapshot()) == "not-sts"
        assert primary_bucket(
            _snapshot(sts_like=True, record_valid=True)) == "ok"
        broken = _snapshot(sts_like=True, record_valid=False)
        assert primary_bucket(broken) == "dns-record"
        # transient trumps every misconfiguration category.
        broken.dns_transient = True
        assert primary_bucket(broken) == "transient"

    def test_primary_bucket_values_are_all_enumerated(self):
        from repro.errors import MisconfigCategory
        from repro.measurement.taxonomy import PRIMARY_BUCKETS
        assert set(PRIMARY_BUCKETS) == (
            {c.value for c in MisconfigCategory} | {"not-sts", "ok"})

    def test_transient_mx_observation_marks_snapshot(self):
        from repro.measurement.snapshots import MxObservation
        snap = _snapshot(sts_like=True)
        snap.mx_observations.append(MxObservation(hostname="mx.d.example"))
        assert not snap.any_transient
        snap.mx_observations.append(
            MxObservation(hostname="mx2.d.example", transient=True))
        assert snap.any_transient

    def test_summary_counts_transients_and_excludes_them(self):
        from repro.measurement.taxonomy import snapshot_summary
        healthy = _snapshot(sts_like=True, record_valid=True)
        noisy = _snapshot(domain="noisy.example", sts_like=True,
                          record_valid=False, policy_transient=True)
        dark = _snapshot(domain="dark.example", dns_transient=True)
        summary = snapshot_summary([healthy, noisy, dark], verdicts={})
        assert summary.transient == 2
        # Only the settled STS snapshot is attributed.
        assert summary.total_sts == 1
        assert summary.misconfigured == 0
        assert not summary.category_counts

    def test_summary_without_faults_reports_zero_transient(self):
        from repro.measurement.taxonomy import snapshot_summary
        summary = snapshot_summary(
            [_snapshot(sts_like=True, record_valid=True)], verdicts={})
        assert summary.transient == 0
        assert summary.total_sts == 1


# -- FaultSpec.fires edge cases -------------------------------------------

class TestFaultSpecFires:
    def test_attempt_scoped_boundary(self):
        spec = FaultSpec(FaultKind.REFUSE, count=3)
        assert [spec.fires(a, 0) for a in range(5)] == [
            True, True, True, False, False]

    def test_attempt_scoped_ignores_the_clock(self):
        spec = FaultSpec(FaultKind.TIMEOUT, count=1)
        assert spec.fires(0, 0) and spec.fires(0, 10**9)

    def test_flap_with_zero_period_never_fires(self):
        assert not FaultSpec(FaultKind.FLAP, period=0).fires(0, 0)

    def test_flap_phase_inverts_the_wave(self):
        down_first = FaultSpec(FaultKind.FLAP, period=10, phase=0)
        up_first = FaultSpec(FaultKind.FLAP, period=10, phase=1)
        for now in (0, 5, 10, 25, 30):
            assert down_first.fires(0, now) != up_first.fires(0, now)

    def test_flap_square_wave_alternates_per_period(self):
        spec = FaultSpec(FaultKind.FLAP, period=10, phase=0)
        wave = [spec.fires(0, now) for now in range(0, 40, 10)]
        assert wave == [True, False, True, False]


# -- ScanStats fault counters ---------------------------------------------

class TestScanStatsFaultCounters:
    def test_merge_sums_the_fault_counters(self):
        from repro.measurement.executor import ScanStats
        a = ScanStats(connect_retries=3, faults_injected=5,
                      retry_backoff_seconds=1.5, transient_domains=2)
        b = ScanStats(connect_retries=1, faults_injected=2,
                      retry_backoff_seconds=0.5, transient_domains=1)
        a.merge(b)
        assert a.connect_retries == 4
        assert a.faults_injected == 7
        assert a.retry_backoff_seconds == pytest.approx(2.0)
        assert a.transient_domains == 3

    def test_render_table_lists_the_fault_lines(self):
        from repro.measurement.executor import ScanStats
        table = ScanStats(connect_retries=12, faults_injected=34,
                          retry_backoff_seconds=5.5,
                          transient_domains=6).render_table()
        assert "connect retries" in table and "12" in table
        assert "faults injected" in table and "34" in table
        assert "transient domains" in table
        assert "retry backoff" in table and "(virtual)" in table

    def test_as_dict_carries_the_fault_counters(self):
        from repro.measurement.executor import ScanStats
        data = ScanStats(faults_injected=9).as_dict()
        for key in ("connect_retries", "faults_injected",
                    "retry_backoff_seconds", "transient_domains"):
            assert key in data
        assert data["faults_injected"] == 9


# -- world wiring ---------------------------------------------------------

class TestWorldWiring:
    def test_network_shares_the_world_clock(self, world):
        assert world.network.clock is world.clock

    def test_custom_retry_policy_threads_through(self):
        from repro.ecosystem.world import World
        policy = RetryPolicy(max_attempts=1)
        world = World(retry_policy=policy)
        assert world.retry_policy is policy
        deploy_domain(world, DomainSpec(domain="example.com"))
        world.network.install_fault_plan(
            FaultPlan().add_description(
                "smtp:mail.example.com",
                FaultSpec(FaultKind.REFUSE, count=1)))
        # One attempt only: a single-shot fault is fatal under this
        # policy, where the default three-attempt policy recovers.
        result = world.smtp_probe.probe_host("mail.example.com")
        assert result.transient and not result.reachable
        assert world.network.retried_connects == 0

    def test_retried_connects_counts_only_retries(self, net):
        net.connect(IP, PORT, attempt=0)
        assert net.connect_count == 1
        assert net.retried_connects == 0
        net.connect(IP, PORT, attempt=1)
        assert net.connect_count == 2
        assert net.retried_connects == 1


# -- transient propagation through the fetch pipeline ---------------------

class TestFetchTransientPropagation:
    def test_policy_fetch_tcp_fault_sets_transient(self, world,
                                                   simple_domain):
        from repro.core.fetch import PolicyFetcher
        # The policy host is virtual-hosted on the domain's web server,
        # so the listener's stable description is the server's name.
        world.network.install_fault_plan(
            FaultPlan().add_description(
                "https:www.example.com",
                FaultSpec(FaultKind.TIMEOUT, count=99)))
        result = PolicyFetcher(
            world.resolver, world.https_client).fetch_policy("example.com")
        assert result.failed_stage is not None
        assert result.transient is True

    def test_policy_dns_fault_sets_dns_transient(self, world,
                                                 simple_domain):
        from repro.core.fetch import PolicyFetcher
        world.resolver.flush_cache()
        world.network.install_fault_plan(
            FaultPlan().add_description(
                "dns:ns.example.com",
                FaultSpec(FaultKind.TIMEOUT, count=99)))
        result = PolicyFetcher(
            world.resolver, world.https_client).fetch_policy("example.com")
        assert result.dns_transient is True
        assert result.transient is True

    def test_clean_fetch_is_not_transient(self, world, simple_domain):
        from repro.core.fetch import PolicyFetcher
        result = PolicyFetcher(
            world.resolver, world.https_client).fetch_policy("example.com")
        assert result.failed_stage is None
        assert result.transient is False


# -- CLI surface ----------------------------------------------------------

class TestCliFaultOptions:
    def test_parser_defaults(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["audit"])
        assert args.fault_seed is None
        assert args.fault_rate == pytest.approx(0.2)

    def test_parser_accepts_fault_options(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["audit", "--fault-seed", "7", "--fault-rate", "0.4"])
        assert args.fault_seed == 7
        assert args.fault_rate == pytest.approx(0.4)
