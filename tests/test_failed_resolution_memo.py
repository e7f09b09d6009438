"""The resolver's failed-resolution memo is exact.

A live resolution that reached no nameserver is remembered for the
current instant and network configuration; a repeat is replayed — the
same error, the same counter movements — instead of run again.  These
tests hold the replay to a memo-free re-run (a bound tracer switches the
memo off), check that every change to what a connect can see is seen at
once, and that a new instant re-runs the resolution.  The seeded cases
run under the default fault seeds plus any in ``REPRO_FAULT_SEEDS``
(CI's fault matrix).
"""

import contextlib
import functools
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import trace
from repro.clock import SECOND
from repro.dns.records import RRType
from repro.dns.server import DNS_PORT
from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig
from repro.errors import DnsTimeout
from repro.netsim.ip import IpAddress
from repro.netsim.network import FaultKind, FaultPlan, FaultSpec, TcpBehavior

pytestmark = pytest.mark.faults


def _fault_seeds() -> list[int]:
    """The fixed default seeds, extended by the CI matrix variable."""
    seeds = [101, 202]
    env = os.environ.get("REPRO_FAULT_SEEDS", "")
    seeds += [int(s) for s in env.replace(",", " ").split() if s]
    return sorted(set(seeds))


def _with_fault_seed_examples(test):
    for seed in _fault_seeds():
        test = example(seed=seed, rate=0.3)(test)
    return test


@functools.lru_cache(maxsize=1)
def _small_world():
    """A materialised month at scale 0.002 (153 domains) and a sample
    of the lookups a scan makes: MX, the ``_mta-sts`` TXT, the policy
    host and every MX host's A record."""
    timeline = EcosystemTimeline(
        TimelineConfig(PopulationConfig(scale=0.002, seed=11)))
    materialized = timeline.materialize(len(timeline.scan_instants) - 1)
    queries = []
    for domain in sorted(materialized.deployed)[:40]:
        queries += [(domain, RRType.MX), (f"_mta-sts.{domain}", RRType.TXT),
                    (f"mta-sts.{domain}", RRType.A)]
        queries += [(host, RRType.A) for host in
                    materialized.deployed[domain].mx_record_hostnames()]
    return materialized.world, queries


def _counters(world) -> dict:
    resolver, network = world.resolver, world.network
    plan = network.fault_plan
    counters = {
        "queries": resolver.query_count,
        "cache_hits": resolver.cache_hits,
        "negative_cache_hits": resolver.negative_cache_hits,
        "connects": network.connect_count,
        "retried_connects": network.retried_connects,
        "backoff_micros": network.backoff_micros,
        "injections": plan.injections if plan else 0,
    }
    for kind, count in (plan.injected_by_kind.items() if plan else ()):
        counters[f"injected:{kind}"] = count
    return counters


def _moved(before: dict, after: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after
            if after[key] != before.get(key, 0)}


def _outcome(answer, error) -> tuple:
    if error is not None:
        return type(error).__name__, str(error), error.transient
    return "answer", answer.records, answer.cname_chain


def _resolve_each_twice(world, queries, seed, rate, *, traced):
    """Every query twice at one instant under a fresh seeded plan:
    ``(outcome, counter movement)`` per resolution, and the connects
    each resolution actually attempted."""
    world.resolver.flush_cache()
    world.network.install_fault_plan(FaultPlan.seeded(seed=seed, rate=rate))
    attempted = [0]
    connect = world.network.connect

    def counting_connect(*args, **kwargs):
        attempted[-1] += 1
        return connect(*args, **kwargs)

    world.network.connect = counting_connect
    steps = []
    try:
        with (trace.bind(trace.Tracer()) if traced
              else contextlib.nullcontext()):
            for name, rrtype in queries:
                for _ in range(2):
                    before = _counters(world)
                    outcome = _outcome(
                        *world.resolver.resolve_detailed(name, rrtype))
                    steps.append((outcome, _moved(before, _counters(world))))
                    attempted.append(0)
    finally:
        del world.network.connect
        world.network.install_fault_plan(None)
    return steps, attempted[:-1]


@settings(max_examples=15, deadline=None)
@_with_fault_seed_examples
@given(seed=st.integers(0, 2**32 - 1), rate=st.floats(0.05, 0.9))
def test_replay_equals_a_memo_free_rerun(seed, rate):
    world, queries = _small_world()
    replayed, attempted = _resolve_each_twice(world, queries, seed, rate,
                                              traced=False)
    rerun, _ = _resolve_each_twice(world, queries, seed, rate, traced=True)
    assert replayed == rerun
    for index in range(0, len(replayed), 2):
        (first, first_moved), (second, second_moved) = replayed[index:index + 2]
        if "cache_hits" in second_moved:
            continue
        # A repeat the answer cache does not serve gives the same
        # outcome and moves every counter exactly as the first did ...
        assert second == first
        assert second_moved == first_moved
        # ... and one that timed out on an unreachable nameserver is
        # replayed, not run again.
        if first[0] == "DnsTimeout" and "connects" in first_moved:
            assert attempted[index + 1] == 0


@pytest.fixture
def dead_ns(world, simple_domain):
    """example.com's nameserver refusing every attempt, and a counter
    of the connects actually attempted."""
    server = world.server_for("example.com")
    world.resolver.flush_cache()
    world.network.install_fault_plan(FaultPlan().add_description(
        "dns:ns.example.com", FaultSpec(FaultKind.REFUSE, count=99)))
    attempted = []
    connect = world.network.connect

    def counting_connect(ip, port, **kwargs):
        attempted.append((ip.text, port))
        return connect(ip, port, **kwargs)

    world.network.connect = counting_connect
    return server, attempted


def _fails_then_replays(world, attempted):
    """Resolve twice at one instant: the first run attempts connects,
    the repeat attempts none and raises the same error."""
    _, first = world.resolver.resolve_detailed("mail.example.com", RRType.A)
    assert isinstance(first, DnsTimeout)
    assert attempted
    attempted.clear()
    _, again = world.resolver.resolve_detailed("mail.example.com", RRType.A)
    assert again is not first
    assert (type(again), str(again), again.transient) == (
        type(first), str(first), first.transient)
    assert attempted == []
    return first


def _resolves(world) -> bool:
    answer, error = world.resolver.resolve_detailed("mail.example.com",
                                                    RRType.A)
    return error is None and bool(answer.records)


class TestRecoveryAtTheSameInstant:
    def test_fault_plan_removed(self, world, dead_ns):
        _fails_then_replays(world, dead_ns[1])
        world.network.install_fault_plan(None)
        assert _resolves(world)

    def test_another_plan_installed(self, world, dead_ns):
        _fails_then_replays(world, dead_ns[1])
        # A plan with as many specs as the first, none on this server.
        world.network.install_fault_plan(FaultPlan().add_description(
            "dns:ns.elsewhere.com", FaultSpec(FaultKind.REFUSE, count=99)))
        assert _resolves(world)

    def test_behaviour_restored(self, world, dead_ns):
        server, attempted = dead_ns
        world.network.install_fault_plan(None)
        world.network.set_behavior(server.ip, DNS_PORT, TcpBehavior.TIMEOUT)
        first = _fails_then_replays(world, attempted)
        assert first.transient is False
        world.network.set_behavior(server.ip, DNS_PORT, TcpBehavior.ACCEPT)
        assert _resolves(world)

    def test_listener_registered(self, world, dead_ns):
        server, attempted = dead_ns
        world.network.install_fault_plan(None)
        world.network.unregister(server.ip, DNS_PORT)
        _fails_then_replays(world, attempted)
        world.network.register(server.ip, DNS_PORT, server,
                               description="dns:ns.example.com")
        assert _resolves(world)

    def test_listener_unregistered(self, world, dead_ns):
        server, attempted = dead_ns
        world.network.install_fault_plan(None)
        world.network.set_behavior(server.ip, DNS_PORT, TcpBehavior.TIMEOUT)
        first = _fails_then_replays(world, attempted)
        world.network.unregister(server.ip, DNS_PORT)
        _, error = world.resolver.resolve_detailed("mail.example.com",
                                                   RRType.A)
        assert attempted
        assert "timed out" in str(first) and "refused" in str(error)

    def test_host_registered(self, world, dead_ns):
        attempted = dead_ns[1]
        world.network.install_fault_plan(None)
        unallocated = IpAddress.parse("10.99.0.1")
        world.resolver.delegate("example.com", [unallocated])
        first = _fails_then_replays(world, attempted)
        world.network.register_host(unallocated)
        _, error = world.resolver.resolve_detailed("mail.example.com",
                                                   RRType.A)
        assert attempted
        assert "timed out" in str(first) and "refused" in str(error)

    def test_delegated_to_a_live_server(self, world, dead_ns):
        server, attempted = dead_ns
        world.network.install_fault_plan(None)
        world.resolver.delegate("example.com", [IpAddress.parse("10.99.0.1")])
        _fails_then_replays(world, attempted)
        world.resolver.delegate("example.com", [server.ip])
        assert _resolves(world)

    def test_spec_added_to_the_installed_plan(self, world, dead_ns):
        server, attempted = dead_ns
        first = _fails_then_replays(world, attempted)
        world.network.fault_plan.add(server.ip, DNS_PORT,
                                     FaultSpec(FaultKind.TIMEOUT, count=99))
        _, error = world.resolver.resolve_detailed("mail.example.com",
                                                   RRType.A)
        assert attempted
        assert "timed out" in str(error) and "refused" in str(first)


def test_a_new_instant_reruns_the_resolution(world, dead_ns):
    attempted = dead_ns[1]
    first = _fails_then_replays(world, attempted)
    world.clock.advance(SECOND)
    _, error = world.resolver.resolve_detailed("mail.example.com", RRType.A)
    assert len(attempted) == world.retry_policy.max_attempts
    assert str(error) == str(first)


def test_a_traced_resolution_is_never_replayed(world, dead_ns):
    attempted = dead_ns[1]
    _fails_then_replays(world, attempted)
    with trace.bind(trace.Tracer()):
        world.resolver.resolve_detailed("mail.example.com", RRType.A)
    assert len(attempted) == world.retry_policy.max_attempts
