"""Simulated time.

Every component in the simulation (certificate validity, policy cache
expiry, longitudinal snapshots) takes time from an explicit
:class:`Clock` rather than the wall clock, so that a three-year
measurement campaign replays deterministically in milliseconds.

Time is modelled as integer seconds since the Unix epoch
(:class:`Instant`) and integer-second spans (:class:`Duration`).
Calendar helpers cover the paper's measurement window (September 2021
through September 2024).
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, order=True, slots=True)
class Instant:
    """A point in simulated time, in whole seconds since the epoch."""

    epoch_seconds: int

    @classmethod
    def from_date(cls, year: int, month: int, day: int,
                  hour: int = 0, minute: int = 0, second: int = 0) -> "Instant":
        dt = _dt.datetime(year, month, day, hour, minute, second,
                          tzinfo=_dt.timezone.utc)
        return cls(int(dt.timestamp()))

    @classmethod
    def parse(cls, text: str) -> "Instant":
        """Parse ``YYYY-MM-DD`` or ``YYYY-MM-DDTHH:MM:SS``."""
        if "T" in text:
            dt = _dt.datetime.fromisoformat(text)
            if dt.tzinfo is None:
                dt = dt.replace(tzinfo=_dt.timezone.utc)
        else:
            y, m, d = (int(p) for p in text.split("-"))
            dt = _dt.datetime(y, m, d, tzinfo=_dt.timezone.utc)
        return cls(int(dt.timestamp()))

    def to_datetime(self) -> _dt.datetime:
        return _dt.datetime.fromtimestamp(self.epoch_seconds, tz=_dt.timezone.utc)

    def date_string(self) -> str:
        return self.to_datetime().strftime("%Y-%m-%d")

    def __add__(self, other: "Duration") -> "Instant":
        if not isinstance(other, Duration):
            return NotImplemented
        return Instant(self.epoch_seconds + other.seconds)

    def __sub__(self, other):
        if isinstance(other, Duration):
            return Instant(self.epoch_seconds - other.seconds)
        if isinstance(other, Instant):
            return Duration(self.epoch_seconds - other.epoch_seconds)
        return NotImplemented

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_datetime().strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True, order=True, slots=True)
class Duration:
    """A span of simulated time, in whole seconds.  May be negative."""

    seconds: int

    @classmethod
    def of(cls, *, weeks: int = 0, days: int = 0, hours: int = 0,
           minutes: int = 0, seconds: int = 0) -> "Duration":
        total = seconds + 60 * (minutes + 60 * (hours + 24 * (days + 7 * weeks)))
        return cls(total)

    def __add__(self, other: "Duration") -> "Duration":
        if not isinstance(other, Duration):
            return NotImplemented
        return Duration(self.seconds + other.seconds)

    def __mul__(self, factor: int) -> "Duration":
        return Duration(self.seconds * factor)

    __rmul__ = __mul__

    def __neg__(self) -> "Duration":
        return Duration(-self.seconds)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.seconds}s"


SECOND = Duration(1)
MINUTE = Duration(60)
HOUR = Duration(3600)
DAY = Duration(86400)
WEEK = Duration(7 * 86400)


class Clock:
    """A mutable simulated clock.

    The clock only moves forward; components hold a reference to it and
    call :meth:`now` when they need the current instant.
    """

    def __init__(self, start: Instant):
        self._now = start

    def now(self) -> Instant:
        return self._now

    def advance(self, duration: Duration) -> Instant:
        if duration.seconds < 0:
            raise ValueError("the simulated clock cannot move backwards")
        self._now = self._now + duration
        return self._now

    def advance_to(self, instant: Instant) -> Instant:
        if instant < self._now:
            raise ValueError(
                f"cannot rewind clock from {self._now} to {instant}")
        self._now = instant
        return self._now


def weekly_instants(start: Instant, end: Instant) -> Iterator[Instant]:
    """Yield weekly snapshot instants from *start* to *end* inclusive."""
    current = start
    while current <= end:
        yield current
        current = current + WEEK


def monthly_instants(start: Instant, end: Instant) -> Iterator[Instant]:
    """Yield snapshot instants on the same day-of-month as *start*.

    Months without that day clamp to the month's last day, matching how
    the paper's monthly component scans (Nov 7, 2023 onward) behave.
    """
    dt = start.to_datetime()
    anchor_day = dt.day
    current = dt
    while True:
        instant = Instant(int(current.timestamp()))
        if instant > end:
            return
        yield instant
        year, month = current.year, current.month
        month += 1
        if month == 13:
            month, year = 1, year + 1
        day = min(anchor_day, _days_in_month(year, month))
        current = current.replace(year=year, month=month, day=day)


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        nxt = _dt.date(year + 1, 1, 1)
    else:
        nxt = _dt.date(year, month + 1, 1)
    return (nxt - _dt.date(year, month, 1)).days
