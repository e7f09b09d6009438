"""Tests for the population generator and the longitudinal timeline."""

import pytest

from repro.clock import Instant
from repro.core.policy import PolicyMode
from repro.ecosystem.misconfig import RETRIEVAL_BLOCKING, Fault
from repro.ecosystem.population import (
    LUCIDGROW_MONTH, PORKBUN_MONTH, PopulationConfig, ScheduledFault,
    TABLE1, generate_population,
)
from repro.ecosystem.timeline import (
    EcosystemTimeline, IncrementalMaterializer, TimelineConfig, scan_instant,
)
from repro.ecosystem.tranco import TrancoRanking


@pytest.fixture(scope="module")
def population():
    return generate_population(PopulationConfig(scale=0.02))


@pytest.fixture(scope="module")
def timeline():
    return EcosystemTimeline(TimelineConfig(PopulationConfig(scale=0.02)))


class TestScheduledFault:
    def test_persistent_window(self):
        fault = ScheduledFault(Fault.POLICY_HTTP_404, start_month=3)
        assert not fault.active(2)
        assert fault.active(3)
        assert fault.active(10)

    def test_transient_window(self):
        fault = ScheduledFault(Fault.POLICY_TLS_SELF_SIGNED, 7, 8)
        assert not fault.active(6)
        assert fault.active(7)
        assert not fault.active(8)


class TestPopulation:
    def test_all_four_tlds_present(self, population):
        assert set(population) == {"com", "net", "org", "se"}

    def test_scaled_sizes_track_table1(self, population):
        for tld, pop in population.items():
            base = round(TABLE1[tld]["sts_domains"] * 0.02)
            # Event cohorts may add to .com and .org.
            assert len(pop.plans) >= base

    def test_com_dominates(self, population):
        assert len(population["com"].plans) > \
            4 * len(population["org"].plans)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"),
                                       float("inf")])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="scale"):
            PopulationConfig(scale=scale)

    def test_deterministic_given_seed(self):
        a = generate_population(PopulationConfig(scale=0.01, seed=1))
        b = generate_population(PopulationConfig(scale=0.01, seed=1))
        assert ([p.name for p in a["com"].plans]
                == [p.name for p in b["com"].plans])
        assert ([len(p.faults) for p in a["com"].plans]
                == [len(p.faults) for p in b["com"].plans])

    def test_seed_changes_population(self):
        a = generate_population(PopulationConfig(scale=0.01, seed=1))
        b = generate_population(PopulationConfig(scale=0.01, seed=2))
        assert ([len(p.faults) for p in a["com"].plans]
                != [len(p.faults) for p in b["com"].plans])

    def test_at_most_one_blocking_fault_per_domain(self, population):
        for pop in population.values():
            for plan in pop.plans:
                blocking = [f for f in plan.faults
                            if f.fault in RETRIEVAL_BLOCKING]
                assert len(blocking) <= 1, plan.name

    def test_tutanota_customers_bundle_email(self, population):
        for pop in population.values():
            for plan in pop.plans:
                if plan.policy_provider == "Tutanota":
                    assert plan.email_provider == "Tutanota"

    def test_porkbun_cohort_exists(self, population):
        porkbun = [p for p in population["com"].plans
                   if p.name.startswith("pb")]
        assert porkbun
        for plan in porkbun:
            faults = {f.fault for f in plan.faults}
            assert Fault.POLICY_TLS_CN_MISMATCH in faults
            assert all(f.start_month == PORKBUN_MONTH for f in plan.faults)

    def test_lucidgrow_cohort_transient_enforce(self, population):
        lucid = [p for p in population["com"].plans
                 if p.email_provider == "Lucidgrow"]
        assert lucid
        for plan in lucid:
            assert plan.mode is PolicyMode.ENFORCE
            fault = plan.faults[0]
            assert fault.fault is Fault.MISMATCH_3LD
            assert (fault.start_month, fault.end_month) == \
                (LUCIDGROW_MONTH, LUCIDGROW_MONTH + 1)

    def test_laura_norman_unique_same_provider_typo(self, population):
        laura = [p for p in population["com"].plans
                 if p.name == "laura-norman.com"]
        assert len(laura) == 1
        assert laura[0].policy_provider == "Tutanota"
        assert laura[0].faults[0].fault is Fault.MISMATCH_TYPO

    def test_outdated_policy_never_starts_at_month_zero(self, population):
        for pop in population.values():
            for plan in pop.plans:
                for fault in plan.faults:
                    if fault.fault is Fault.OUTDATED_POLICY:
                        assert fault.start_month >= 1

    def test_tlsrpt_assignment_plausible(self, population):
        plans = [p for pop in population.values() for p in pop.plans]
        with_rpt = [p for p in plans if p.tlsrpt_week is not None]
        assert 0.5 < len(with_rpt) / len(plans) < 0.9


class TestTimeline:
    def test_scan_instants_cover_paper_window(self, timeline):
        dates = [i.date_string() for i in timeline.scan_instants]
        assert dates[0] == "2023-11-07"
        assert dates[-1] == "2024-09-29"
        assert len(dates) == 12

    def test_scan_instant_names_the_valid_range(self, timeline):
        assert scan_instant(0) == timeline.scan_instants[0]
        assert scan_instant(11) == timeline.scan_instants[-1]
        materializer = IncrementalMaterializer(timeline)
        materializer.materialize(0)
        for month in (-1, 12):
            with pytest.raises(ValueError, match=r"\[0, 11\]"):
                scan_instant(month)
            with pytest.raises(ValueError, match=r"\[0, 11\]"):
                timeline.materialize(month)
        with pytest.raises(ValueError, match=r"\[0, 11\]"):
            materializer.materialize(12)

    def test_adoption_series_rises(self, timeline):
        series = timeline.adoption_series("com")
        first_count = series[0][1]
        last_count = series[-1][1]
        assert 2.5 <= last_count / max(1, first_count) <= 6.0

    def test_org_spike_in_january(self, timeline):
        series = timeline.adoption_series("org")
        by_date = {i.date_string(): count for i, count, _ in series}
        before = max(v for d, v in by_date.items() if d < "2023-12-25")
        week_of_spike = [v for d, v in by_date.items()
                         if "2023-12-29" <= d <= "2024-01-12"]
        assert max(week_of_spike) - before >= \
            round(461 * 0.02) - 2

    def test_table1_rows(self, timeline):
        rows = {r["tld"]: r for r in timeline.table1_rows()}
        assert set(rows) == {"com", "net", "org", "se"}
        # .org has the highest adoption share, .com the lowest-ish (paper).
        assert rows["org"]["sts_percent"] > rows["com"]["sts_percent"]
        for row in rows.values():
            assert 0 < row["sts_percent"] < 1.0

    def test_materialize_respects_adoption(self, timeline):
        early = timeline.materialize(0)
        late = timeline.materialize(11)
        assert len(late.deployed) > len(early.deployed)

    def test_tlsrpt_series_shape(self, timeline):
        series = timeline.tlsrpt_series("com")
        _, first_mx_pct, first_sts_pct = series[0]
        _, last_mx_pct, last_sts_pct = series[-1]
        assert last_mx_pct > first_mx_pct
        assert last_sts_pct > first_sts_pct
        assert 55 <= last_sts_pct <= 85     # the ~72% anchor


class TestTranco:
    def test_top_bin_near_paper_value(self):
        ranking = TrancoRanking(list_size=200_000, bin_size=10_000)
        assert 0.9 <= ranking.top_bin_percent() <= 1.5

    def test_bottom_bin_near_paper_value(self):
        ranking = TrancoRanking(list_size=200_000, bin_size=10_000)
        assert 0.2 <= ranking.bottom_bin_percent() <= 0.65

    def test_monotone_decay_of_probability(self):
        ranking = TrancoRanking(list_size=1000, bin_size=100)
        probs = [ranking.adoption_probability(r)
                 for r in (1, 250, 500, 750, 1000)]
        assert probs == sorted(probs, reverse=True)

    def test_binned_output_shape(self):
        ranking = TrancoRanking(list_size=50_000, bin_size=10_000)
        bins = ranking.binned_adoption()
        assert len(bins) == 5
        assert bins[0][0] == 0

    def test_deterministic(self):
        a = TrancoRanking(list_size=10_000, bin_size=1_000, seed=5)
        b = TrancoRanking(list_size=10_000, bin_size=1_000, seed=5)
        assert a.binned_adoption() == b.binned_adoption()
