"""Retry with deterministic exponential backoff.

Real measurement platforms separate transient network noise from true
misconfiguration by retrying failed probes (cf. "No Need for Black
Chambers" and the SPF "Lazy Gatekeepers" study); this module gives the
simulated scanner the same semantics without real sleeping.  A
:class:`RetryPolicy` fixes the attempt budget, the exponential backoff
curve, and a *virtual* per-operation timeout budget; jitter is drawn
from an RNG seeded by ``(policy seed, operation key, attempt)`` so
every backoff sequence is a pure function of its inputs — the serial
and process scan backends compute identical schedules however the
domains are sharded, and tests can pin exact sequences.

Backoff never sleeps: delays are charged against the operation's
virtual budget and accumulated as integer microseconds on
:class:`~repro.netsim.network.Network` (``backoff_micros``;
``backoff_seconds`` is the derived float view) for ``ScanStats``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List

from repro import trace
from repro.errors import NetworkError
from repro.netsim.ip import IpAddress


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget + deterministic exponential backoff with jitter.

    ``max_attempts`` counts connection attempts, so ``max_attempts=3``
    means the original try plus two retries.  The delay before retry
    ``n`` (zero-based) is ``base_delay * multiplier**n`` capped at
    ``max_delay``, then spread by ``jitter`` (a ± fraction) using an
    RNG seeded from ``(seed, key, n)`` — no shared RNG state, so the
    schedule for one operation never depends on what other operations
    (or threads) did.  ``timeout_budget`` is the operation's total
    virtual time in seconds; once cumulative backoff exceeds it the
    operation stops retrying even with attempts left.
    """

    max_attempts: int = 3
    base_delay: float = 0.25
    multiplier: float = 2.0
    max_delay: float = 8.0
    jitter: float = 0.5
    seed: int = 0
    timeout_budget: float = 30.0

    def backoff(self, key: str, attempt: int) -> float:
        """The delay (virtual seconds) before retrying *attempt*."""
        raw = min(self.base_delay * self.multiplier ** attempt,
                  self.max_delay)
        if not self.jitter:
            return raw
        rng = random.Random(f"retry:{self.seed}:{key}:{attempt}")
        return raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))

    def backoff_sequence(self, key: str) -> List[float]:
        """Every inter-attempt delay one operation could incur."""
        return [self.backoff(key, attempt)
                for attempt in range(self.max_attempts - 1)]


#: The scan pipeline's default: three attempts, sub-second base delay.
DEFAULT_RETRY_POLICY = RetryPolicy()


def connect_with_retries(network, ip: IpAddress, port: int, *,
                         policy: RetryPolicy = DEFAULT_RETRY_POLICY,
                         key: str = "") -> Any:
    """``Network.connect`` under *policy*: retry transport failures.

    Every transport failure — refused, timeout, reset — is retried
    uniformly (a real scanner cannot see whether a failure is
    transient), with the attempt index threaded through to the fault
    layer and the remaining virtual budget passed as the connect
    timeout.  The final exception is re-raised unchanged, so its
    ``transient`` flag tells the caller whether the operation died on
    an injected fault (retry-exhausted transient) or a deterministic
    hard failure.
    """
    key = key or f"{ip.text}:{port}"
    # The whole retry loop is one flat resource span: which scan shard
    # executes a compute-once operation is scheduling-dependent, but
    # the operation's attempt/fault/backoff sequence is a pure function
    # of (key, fault plan, virtual clock), so the recorded span is
    # byte-identical regardless of attribution.  This is the pipeline's
    # hottest trace site, so the untraced path pays only the
    # ``trace.TRACING`` read plus ``span is None`` checks — no extra
    # function call, thread-local lookup, or generator frame.
    tracer = trace.current_tracer() if trace.TRACING else None
    span = (tracer.begin_resource(f"net:{key}", "connect", key)
            if tracer is not None else None)
    try:
        budget = policy.timeout_budget
        last_error: NetworkError | None = None
        for attempt in range(max(1, policy.max_attempts)):
            try:
                result = network.connect(ip, port, attempt=attempt,
                                         timeout=budget)
                if span is not None:
                    span.event("attempt", n=attempt, outcome="connected")
                return result
            except NetworkError as exc:
                last_error = exc
                if span is not None:
                    span.event("attempt", n=attempt,
                               outcome=type(exc).__name__,
                               transient=getattr(exc, "transient", False))
            if attempt + 1 >= policy.max_attempts:
                break
            delay = policy.backoff(key, attempt)
            network.record_backoff(delay)
            if span is not None:
                span.event("backoff", micros=trace.micros(delay))
            budget -= delay
            if budget <= 0.0:
                if span is not None:
                    span.event("budget-exhausted", n=attempt)
                break
        assert last_error is not None
        raise last_error
    finally:
        if tracer is not None:
            tracer.end_resource(f"net:{key}")
