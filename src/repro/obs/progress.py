"""Live scan progress: the executor heartbeat API and its renderer.

:class:`~repro.measurement.executor.ScanExecutor` accepts a progress
callback; while a scan runs it receives :class:`ProgressEvent`
heartbeats (domains done, shards completed, throughput, wall-clock
ETA) plus one final event.  The executor funnels every backend through
:class:`ProgressTracker`, which is thread-safe — the process
backend's drain thread reports worker batches while the parent waits
— and rate-limits emission to one event per *heartbeat_every*
completed domains, so an attached callback costs nothing measurable.

:class:`ProgressPrinter` is the CLI consumer: a single overwriting
status line on a TTY, one line per heartbeat otherwise.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, TextIO

__all__ = ["ProgressEvent", "ProgressTracker", "ProgressPrinter"]


@dataclass(frozen=True)
class ProgressEvent:
    """One heartbeat of a running scan."""

    month_index: int
    backend: str
    domains_total: int
    domains_done: int
    shards_total: int
    shards_done: int
    wall_elapsed_seconds: float
    #: the scan's *virtual* instant (epoch seconds) — the campaign's
    #: position in simulated time, unrelated to the wall clock
    virtual_epoch: int
    final: bool = False

    @property
    def domains_per_second(self) -> float:
        if self.wall_elapsed_seconds <= 0.0:
            return 0.0
        return self.domains_done / self.wall_elapsed_seconds

    @property
    def eta_seconds(self) -> Optional[float]:
        """Estimated wall seconds to scan completion (None until the
        first domain finishes)."""
        rate = self.domains_per_second
        if rate <= 0.0:
            return None
        return (self.domains_total - self.domains_done) / rate

    @property
    def percent(self) -> float:
        if not self.domains_total:
            return 100.0
        return 100.0 * self.domains_done / self.domains_total


class ProgressTracker:
    """Thread-safe heartbeat aggregator for one scan.

    Workers call :meth:`domain_done` / :meth:`shard_done`; the tracker
    emits to the callback at shard boundaries, every
    ``heartbeat_every`` domains, and once from :meth:`finish` with
    ``final=True``.  Events are emitted under the lock, so the callback
    observes monotonically non-decreasing counters.
    """

    def __init__(self, callback: Callable[[ProgressEvent], None], *,
                 month_index: int, backend: str, domains_total: int,
                 shards_total: int, virtual_epoch: int,
                 heartbeat_every: int = 0):
        self._callback = callback
        self._month_index = month_index
        self._backend = backend
        self._domains_total = domains_total
        self._shards_total = shards_total
        self._virtual_epoch = virtual_epoch
        if heartbeat_every <= 0:
            heartbeat_every = max(1, domains_total // 20)
        self._heartbeat_every = heartbeat_every
        self._lock = threading.Lock()
        self._domains_done = 0
        self._shards_done = 0
        self._started = time.perf_counter()

    def _emit(self, final: bool = False) -> None:
        self._callback(ProgressEvent(
            month_index=self._month_index, backend=self._backend,
            domains_total=self._domains_total,
            domains_done=self._domains_done,
            shards_total=self._shards_total,
            shards_done=self._shards_done,
            wall_elapsed_seconds=time.perf_counter() - self._started,
            virtual_epoch=self._virtual_epoch, final=final))

    def domain_done(self, domain: str) -> None:
        with self._lock:
            self._domains_done += 1
            if self._domains_done % self._heartbeat_every == 0:
                self._emit()

    def advance(self, count: int) -> None:
        """Credit *count* completed domains in one step.

        The process scan backend ships progress across the process
        boundary as batched increments (a queue message per domain
        would dominate the heartbeat's cost), so the tracker must
        accept jumps: one event is emitted whenever a batch crosses a
        heartbeat boundary, preserving the ~heartbeat_every cadence.
        """
        if count <= 0:
            return
        with self._lock:
            before = self._domains_done
            self._domains_done += count
            if (before // self._heartbeat_every
                    != self._domains_done // self._heartbeat_every):
                self._emit()

    def shard_done(self) -> None:
        with self._lock:
            self._shards_done += 1
            self._emit()

    def finish(self) -> None:
        with self._lock:
            self._emit(final=True)


class ProgressPrinter:
    """Renders heartbeats as a CLI status line.

    On a TTY the line overwrites itself (carriage return); elsewhere
    every heartbeat is its own line, which keeps piped output and test
    captures readable.
    """

    def __init__(self, stream: Optional[TextIO] = None):
        self._stream = stream if stream is not None else sys.stderr
        self._tty = bool(getattr(self._stream, "isatty", lambda: False)())

    def __call__(self, event: ProgressEvent) -> None:
        eta = event.eta_seconds
        line = (f"scan m{event.month_index:02d} [{event.backend}] "
                f"{event.domains_done}/{event.domains_total} domains "
                f"({event.percent:5.1f}%)  "
                f"shard {event.shards_done}/{event.shards_total}  "
                f"{event.domains_per_second:7.0f} dom/s")
        if eta is not None:
            line += f"  eta {eta:5.1f}s"
        if self._tty:
            end = "\n" if event.final else ""
            self._stream.write("\r" + line + end)
        else:
            self._stream.write(line + "\n")
        self._stream.flush()
