"""A retrying mail queue.

Real MTAs do not give up on a 4xx: greylisted or temporarily failing
messages sit in a queue and retry on a backoff schedule until they
either deliver or exceed the queue lifetime and bounce.  The paper's
methodology touches this twice: greylisting MXes only reveal STARTTLS
on a retry (§4.1 footnote), and MTA-STS enforce-mode refusals are
*temporary* failures from the queue's perspective — the recipient may
fix their policy before the queue gives up, which is exactly what
saved most of the lucidgrow cohort ("the issue was quickly resolved").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.clock import Clock, Duration, HOUR, Instant
from repro.smtp.delivery import DeliveryAttempt, DeliveryStatus, Message

#: Classic sendmail-style backoff: quick first retries, then hourly-ish.
DEFAULT_RETRY_SCHEDULE = (
    Duration(15 * 60), Duration(30 * 60), HOUR, 2 * HOUR, 4 * HOUR,
    8 * HOUR, 12 * HOUR, 24 * HOUR,
)
DEFAULT_QUEUE_LIFETIME = Duration(5 * 24 * 3600)    # five days


class QueueOutcome(enum.Enum):
    DELIVERED = "delivered"
    QUEUED = "queued"            # waiting for its next attempt
    BOUNCED = "bounced"          # permanent failure or lifetime exceeded


class QueueFull(RuntimeError):
    """Raised by :meth:`MailQueue.submit` when a bounded queue is at
    capacity — the caller must apply backpressure (hold the message
    back and resubmit once in-flight entries finalise)."""


@dataclass(slots=True)
class QueueEntry:
    message: Message
    enqueued_at: Instant
    next_attempt_at: Instant
    attempts: int = 0
    outcome: QueueOutcome = QueueOutcome.QUEUED
    last_status: Optional[DeliveryStatus] = None
    history: List[DeliveryStatus] = field(default_factory=list)
    #: Opaque caller bookkeeping (the delivery campaign stores the
    #: message's workload sequence number here).
    tag: Optional[object] = None

    @property
    def active(self) -> bool:
        return self.outcome is QueueOutcome.QUEUED


#: Delivery statuses the queue treats as retryable (temporary).
TEMPORARY = {
    DeliveryStatus.UNREACHABLE,
    DeliveryStatus.REFUSED_BY_POLICY,    # policy may get fixed
}
#: Permanent: bounce immediately.
PERMANENT = {
    DeliveryStatus.NO_MX,
    DeliveryStatus.REJECTED_BY_SERVER,
}


class MailQueue:
    """Outbound queue in front of any sender with a
    ``send(message, *, attempt)`` method.

    The queue is clock-driven: callers advance the simulated clock and
    invoke :meth:`run_due` to process every entry whose retry time has
    arrived.
    """

    __slots__ = ("_sender", "_clock", "_schedule", "_lifetime", "_capacity",
                 "_on_attempt", "entries")

    def __init__(self, sender, clock: Clock,
                 *, retry_schedule=DEFAULT_RETRY_SCHEDULE,
                 lifetime: Duration = DEFAULT_QUEUE_LIFETIME,
                 capacity: Optional[int] = None,
                 on_attempt: Optional[Callable[[QueueEntry,
                                                DeliveryAttempt],
                                               None]] = None):
        """*capacity* bounds the number of in-flight (active) entries;
        :meth:`submit` raises :class:`QueueFull` beyond it.  *on_attempt*
        observes every delivery attempt (the campaign records the
        sender's mechanism and per-wave counters through it)."""
        if capacity is not None and capacity < 1:
            raise ValueError("queue capacity must be a positive integer")
        self._sender = sender
        self._clock = clock
        self._schedule = tuple(retry_schedule)
        self._lifetime = lifetime
        self._capacity = capacity
        self._on_attempt = on_attempt
        self.entries: List[QueueEntry] = []

    # -- intake ----------------------------------------------------------

    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    def has_capacity(self) -> bool:
        return (self._capacity is None
                or len(self.pending()) < self._capacity)

    def submit(self, message: Message, *,
               tag: Optional[object] = None) -> QueueEntry:
        """Accept a message and attempt immediate delivery."""
        if not self.has_capacity():
            raise QueueFull(
                f"queue for {getattr(self._sender, 'identity', '?')} is "
                f"at capacity ({self._capacity} in flight)")
        now = self._clock.now()
        entry = QueueEntry(message=message, enqueued_at=now,
                           next_attempt_at=now, tag=tag)
        self.entries.append(entry)
        self._attempt(entry)
        return entry

    # -- processing --------------------------------------------------------

    def run_due(self) -> List[QueueEntry]:
        """Attempt every entry whose retry time has arrived."""
        now = self._clock.now()
        processed = []
        for entry in self.entries:
            if entry.active and entry.next_attempt_at <= now:
                self._attempt(entry)
                processed.append(entry)
        return processed

    def _attempt(self, entry: QueueEntry) -> None:
        # The retry ordinal is passed through, so attempt-scoped fault
        # injections recover on retry, like a real greylist.
        attempt: DeliveryAttempt = self._sender.send(
            entry.message, attempt=entry.attempts)
        entry.attempts += 1
        entry.last_status = attempt.status
        entry.history.append(attempt.status)
        if self._on_attempt is not None:
            self._on_attempt(entry, attempt)

        if attempt.delivered:
            entry.outcome = QueueOutcome.DELIVERED
            return
        if attempt.status in PERMANENT:
            entry.outcome = QueueOutcome.BOUNCED
            return
        # Temporary failure: schedule the next retry, or bounce when
        # the schedule or the queue lifetime is exhausted.
        now = self._clock.now()
        retry_index = entry.attempts - 1
        if retry_index >= len(self._schedule):
            entry.outcome = QueueOutcome.BOUNCED
            return
        next_at = now + self._schedule[retry_index]
        if next_at - entry.enqueued_at > self._lifetime:
            entry.outcome = QueueOutcome.BOUNCED
            return
        entry.next_attempt_at = next_at

    # -- introspection ----------------------------------------------------------

    def pending(self) -> List[QueueEntry]:
        return [e for e in self.entries if e.active]

    def pending_count(self) -> int:
        return sum(1 for e in self.entries if e.active)

    def next_wakeup(self, *,
                    granularity: Optional[Duration] = None
                    ) -> Optional[Instant]:
        """The earliest pending retry instant.

        With *granularity*, the instant is rounded **up** to the next
        multiple of that many seconds — a batched wake-up: thousands of
        queues whose retries land within the same window coalesce onto
        one shared wake-up instant instead of each demanding its own
        clock stop.  Retrying later than scheduled is always safe
        (:meth:`run_due` processes everything that has come due).
        """
        pending = self.pending()
        if not pending:
            return None
        earliest = min(e.next_attempt_at for e in pending)
        if granularity is None or granularity.seconds <= 1:
            return earliest
        step = granularity.seconds
        rounded = -(-earliest.epoch_seconds // step) * step
        return Instant(rounded)

    def drain(self, *, max_steps: int = 64) -> None:
        """Advance the clock through every scheduled retry until the
        queue is empty or *max_steps* is hit (simulation helper)."""
        for _ in range(max_steps):
            wakeup = self.next_wakeup()
            if wakeup is None:
                return
            if wakeup > self._clock.now():
                self._clock.advance_to(wakeup)
            self.run_due()
