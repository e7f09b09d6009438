"""Shared fixtures: a small wired world and common deployments."""

from __future__ import annotations

import pytest

from repro.core.fetch import PolicyFetcher
from repro.core.policy import Policy, PolicyMode
from repro.core.validator import MtaStsValidator
from repro.ecosystem.deployment import DomainSpec, deploy_domain
from repro.ecosystem.world import World


@pytest.fixture
def world() -> World:
    return World()


@pytest.fixture
def fetcher(world) -> PolicyFetcher:
    return PolicyFetcher(world.resolver, world.https_client)


@pytest.fixture
def validator(world, fetcher) -> MtaStsValidator:
    return MtaStsValidator(world.resolver, fetcher, world.smtp_probe)


@pytest.fixture
def enforce_policy() -> Policy:
    return Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                  max_age=86400, mx_patterns=("mail.example.com",))


@pytest.fixture
def simple_domain(world):
    """A correctly configured self-managed domain."""
    return deploy_domain(world, DomainSpec(domain="example.com"))


# -- checkpointed campaign stores -------------------------------------------
#
# Three small 3-month stores shared by the analysis suites
# (``test_analysis_golden`` pins their outputs, ``test_columnar``
# exercises the column decoder over them): a clean serial campaign, a
# fault-seeded one, and one committed month by month from the process
# backend the way ``audit --save`` does.

CAMPAIGN_MONTHS = [0, 1, 2]


def _campaign_state(tmp_path_factory, name, *, faults=False):
    from repro.analysis.series import run_campaign
    from repro.ecosystem.population import PopulationConfig
    from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig
    from repro.measurement.executor import ScanExecutor
    from repro.netsim.network import FaultPlan

    def fault_factory(month):
        return FaultPlan.seeded(seed=1000 + month, rate=0.2)

    state_dir = str(tmp_path_factory.mktemp(name) / "state")
    timeline = EcosystemTimeline(
        TimelineConfig(PopulationConfig(scale=0.004, seed=7)))
    run_campaign(timeline, CAMPAIGN_MONTHS, state_dir=state_dir,
                 executor=ScanExecutor(backend="serial", jobs=1),
                 fault_plan_factory=fault_factory if faults else None)
    return state_dir


@pytest.fixture(scope="session")
def clean_state(tmp_path_factory):
    return _campaign_state(tmp_path_factory, "clean")


@pytest.fixture(scope="session")
def faulted_state(tmp_path_factory):
    return _campaign_state(tmp_path_factory, "faulted", faults=True)


@pytest.fixture(scope="session")
def process_state(tmp_path_factory):
    from repro.ecosystem.population import PopulationConfig
    from repro.ecosystem.timeline import population_to_dict
    from repro.measurement.executor import ScanExecutor
    from repro.measurement.store_io import commit_month

    state_dir = str(tmp_path_factory.mktemp("process") / "state")
    population = PopulationConfig(scale=0.004, seed=7)
    executor = ScanExecutor(backend="process", jobs=2)
    for month in CAMPAIGN_MONTHS:
        result = executor.scan_population(
            population, month, fault_seed=1000 + month, fault_rate=0.2)
        commit_month(state_dir, result.store, month,
                     date=result.instant.date_string(),
                     stats=result.stats.as_dict(),
                     build_stats=result.build_stats,
                     population=population_to_dict(population))
    return state_dir


@pytest.fixture(scope="session", params=["clean", "faulted", "process"])
def any_state(request):
    """Each of the three stores in turn (the test id names which)."""
    return request.getfixturevalue(f"{request.param}_state")
