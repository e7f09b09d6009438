"""Unit tests for simulated time."""

import pytest

from repro.clock import (
    DAY, HOUR, WEEK, Clock, Duration, Instant, monthly_instants,
    weekly_instants,
)


class TestInstant:
    def test_from_date(self):
        instant = Instant.from_date(2024, 9, 29)
        assert instant.date_string() == "2024-09-29"

    def test_parse_date(self):
        assert Instant.parse("2024-01-02").date_string() == "2024-01-02"

    def test_parse_datetime(self):
        instant = Instant.parse("2024-01-02T12:30:00")
        assert instant.to_datetime().hour == 12

    def test_ordering(self):
        assert Instant.parse("2021-09-09") < Instant.parse("2024-09-29")

    def test_add_duration(self):
        assert (Instant.parse("2024-01-01") + DAY).date_string() == "2024-01-02"

    def test_subtract_instants_gives_duration(self):
        span = Instant.parse("2024-01-08") - Instant.parse("2024-01-01")
        assert span == WEEK

    def test_subtract_duration(self):
        assert (Instant.parse("2024-01-02") - DAY).date_string() == "2024-01-01"


class TestDuration:
    def test_of_composite(self):
        assert Duration.of(weeks=1) == WEEK
        assert Duration.of(days=1, hours=1) == DAY + HOUR

    def test_multiplication(self):
        assert 7 * DAY == WEEK
        assert DAY * 7 == WEEK

    def test_negation(self):
        assert (-DAY).seconds == -86400


class TestClock:
    def test_advance(self):
        clock = Clock(Instant.parse("2024-01-01"))
        clock.advance(DAY)
        assert clock.now().date_string() == "2024-01-02"

    def test_advance_to(self):
        clock = Clock(Instant.parse("2024-01-01"))
        clock.advance_to(Instant.parse("2024-06-01"))
        assert clock.now().date_string() == "2024-06-01"

    def test_no_time_travel(self):
        clock = Clock(Instant.parse("2024-06-01"))
        with pytest.raises(ValueError):
            clock.advance_to(Instant.parse("2024-01-01"))
        with pytest.raises(ValueError):
            clock.advance(Duration(-1))


class TestCalendars:
    def test_weekly_instants_inclusive(self):
        instants = list(weekly_instants(Instant.parse("2024-01-01"),
                                        Instant.parse("2024-01-29")))
        assert len(instants) == 5
        assert instants[-1].date_string() == "2024-01-29"

    def test_monthly_instants_match_paper_scan_months(self):
        instants = list(monthly_instants(Instant.parse("2023-11-07"),
                                         Instant.parse("2024-09-29")))
        assert instants[0].date_string() == "2023-11-07"
        assert instants[1].date_string() == "2023-12-07"
        assert len(instants) == 11

    def test_monthly_clamps_to_short_months(self):
        instants = list(monthly_instants(Instant.parse("2024-01-31"),
                                         Instant.parse("2024-04-30")))
        assert [i.date_string() for i in instants] == [
            "2024-01-31", "2024-02-29", "2024-03-31", "2024-04-30"]
