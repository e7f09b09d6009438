"""TCP-level reachability for the simulated internet.

The :class:`Network` is the single rendezvous object shared by every
simulated host.  Servers (authoritative DNS, HTTPS policy hosts, SMTP
MX hosts) register a :class:`Listener` on an ``(ip, port)`` endpoint;
clients call :meth:`Network.connect` and either receive the listener's
application object or a transport exception that mirrors what a real
scanner would see: connection refused (no listener / closed port) or a
timeout (firewalled or blackholed host).

This layer is what lets the measurement pipeline distinguish the
paper's "TCP errors" (closed ports, connection timeouts — Figure 5)
from everything else.

On top of the static :class:`TcpBehavior` outcomes sits the
deterministic fault-injection layer: a :class:`FaultPlan` installed
via :meth:`Network.install_fault_plan` intercepts every connection
attempt and can refuse, blackhole, reset, or slow it according to a
seeded per-endpoint schedule.  Injected failures carry
``transient=True`` so the retry layer (:mod:`repro.netsim.retry`) can
separate network noise from deterministic misconfiguration — the
distinction the paper's error taxonomy is built on.

A connect's outcome reads only the listeners, known hosts and
behaviours, the installed plan and the clock: :attr:`Network.version`
changes whenever any of the first four does, and a
:class:`ConnectCharge` records what one failed retry loop added to the
counters, so a caller that knows such a loop would fail again the same
way can count it again (:meth:`Network.replay`) instead of re-running
it.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro import trace
from repro.errors import ConnectionRefused, ConnectionReset, ConnectionTimeout
from repro.netsim.ip import IpAddress


class TcpBehavior(enum.Enum):
    """How an endpoint responds to a connection attempt."""

    ACCEPT = "accept"
    REFUSE = "refuse"      # RST: port closed
    TIMEOUT = "timeout"    # SYN blackholed: firewall drop


@dataclass(slots=True)
class Listener:
    """A registered service endpoint."""

    ip: IpAddress
    port: int
    app: Any
    behavior: TcpBehavior = TcpBehavior.ACCEPT
    description: str = ""


# ---------------------------------------------------------------------------
# Deterministic fault injection
# ---------------------------------------------------------------------------

class FaultKind(enum.Enum):
    """The failure modes a :class:`FaultSpec` can inject."""

    REFUSE = "refuse"          # RST the first ``count`` attempts
    TIMEOUT = "timeout"        # blackhole the first ``count`` attempts
    RESET = "reset"            # accept, then RST after ``after_bytes``
    SLOW_START = "slow-start"  # charge ``latency`` seconds per attempt
    FLAP = "flap"              # down on a clock-keyed square wave


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One scheduled fault on one endpoint.

    Attempt-scoped kinds (``REFUSE``/``TIMEOUT``/``RESET``/
    ``SLOW_START``) fire on attempts ``0 .. count-1`` of each client
    *operation* (one retry loop) and are exhausted afterwards — an
    endpoint with ``count`` smaller than the retry budget therefore
    *recovers* within the operation.  ``FLAP`` ignores the attempt
    index: the endpoint is down whenever the simulated clock sits in
    the spec's down phase (``(now // period + phase) % 2 == 0``), which
    is what makes endpoints flap *between* monthly scans while staying
    deterministic within one.
    """

    kind: FaultKind
    count: int = 1             # attempts affected (attempt-scoped kinds)
    after_bytes: int = 0       # RESET: payload delivered before the RST
    latency: float = 0.0       # SLOW_START: seconds charged per attempt
    period: int = 0            # FLAP: half-period in simulated seconds
    phase: int = 0             # FLAP: 0 = down first, 1 = up first

    def fires(self, attempt: int, now_epoch: int) -> bool:
        if self.kind is FaultKind.FLAP:
            if self.period <= 0:
                return False
            return (now_epoch // self.period + self.phase) % 2 == 0
        return attempt < self.count


def _transient(exc, kind: FaultKind):
    exc.transient = True
    exc.fault = kind
    return exc


class FaultPlan:
    """A seeded, deterministic schedule of endpoint faults.

    Faults are keyed two ways:

    * by concrete endpoint (:meth:`add`) — exact ``(ip, port)``;
    * by listener *description* (:meth:`add_description`) — the stable
      logical name servers register under (``smtp:mx1.example.com``,
      ``https:mta-sts.example.com``, ``dns:ns.example.com``), which
      survives world rebuilds whose IP allocation order differs.

    :meth:`seeded` adds a third, fully generative rule: every listener
    whose description hashes under ``rate`` (seeded RNG) gets a random
    schedule derived from ``(seed, description)`` alone.  Two worlds
    hosting the same logical services therefore fault identically
    under the same seed, regardless of IP layout or registration
    order — the property the incremental-vs-full differential tests
    lean on.

    Every decision is a pure function of (endpoint, description,
    attempt index, simulated instant, seed): the plan keeps no
    schedule state, so serial and process scan backends observe
    byte-identical outcomes however the domains are sharded.  Counters are the
    only mutable state and never feed back into decisions.
    """

    #: Parameter ranges for :meth:`seeded` schedules.
    _SEEDED_KINDS = (FaultKind.REFUSE, FaultKind.TIMEOUT, FaultKind.RESET,
                     FaultKind.SLOW_START, FaultKind.FLAP)
    _FLAP_PERIODS = (14 * 86400, 30 * 86400, 45 * 86400)

    def __init__(self, *, seed: int = 0, rate: float = 0.0,
                 kinds: Optional[Tuple[FaultKind, ...]] = None):
        self.seed = seed
        self.rate = rate
        self.kinds = tuple(kinds) if kinds else self._SEEDED_KINDS
        self._by_endpoint: Dict[Tuple[str, int], Tuple[FaultSpec, ...]] = {}
        self._by_description: Dict[str, Tuple[FaultSpec, ...]] = {}
        self._seeded_cache: Dict[str, Tuple[FaultSpec, ...]] = {}
        #: Bumped by :meth:`add` and :meth:`add_description`.
        self.version = 0
        self.injections = 0
        self.injected_by_kind: Dict[str, int] = {}

    # -- schedule construction ----------------------------------------

    def add(self, ip: IpAddress | str, port: int,
            *specs: FaultSpec) -> "FaultPlan":
        ip_text = ip.text if isinstance(ip, IpAddress) else ip
        key = (ip_text, port)
        self._by_endpoint[key] = self._by_endpoint.get(key, ()) + specs
        self.version += 1
        return self

    def add_description(self, description: str,
                        *specs: FaultSpec) -> "FaultPlan":
        self._by_description[description] = (
            self._by_description.get(description, ()) + specs)
        self.version += 1
        return self

    @classmethod
    def seeded(cls, *, seed: int, rate: float = 0.2,
               kinds: Optional[Tuple[FaultKind, ...]] = None) -> "FaultPlan":
        """A generative plan faulting ~``rate`` of all listeners."""
        return cls(seed=seed, rate=rate, kinds=kinds)

    def _seeded_specs(self, description: str) -> Tuple[FaultSpec, ...]:
        if self.rate <= 0.0 or not description:
            return ()
        cached = self._seeded_cache.get(description)
        if cached is not None:
            return cached
        rng = random.Random(f"faultplan:{self.seed}:{description}")
        if rng.random() >= self.rate:
            specs: Tuple[FaultSpec, ...] = ()
        else:
            kind = rng.choice(self.kinds)
            if kind is FaultKind.FLAP:
                specs = (FaultSpec(
                    kind, period=rng.choice(self._FLAP_PERIODS),
                    phase=rng.randint(0, 1)),)
            elif kind is FaultKind.SLOW_START:
                specs = (FaultSpec(kind, count=rng.randint(1, 4),
                                   latency=rng.uniform(0.5, 60.0)),)
            elif kind is FaultKind.RESET:
                specs = (FaultSpec(kind, count=rng.randint(1, 4),
                                   after_bytes=rng.randint(0, 1400)),)
            else:
                specs = (FaultSpec(kind, count=rng.randint(1, 4)),)
        self._seeded_cache[description] = specs
        return specs

    def specs_for(self, ip_text: str, port: int,
                  description: str = "") -> Tuple[FaultSpec, ...]:
        """Every spec that applies to one endpoint (all three rules)."""
        return (self._by_endpoint.get((ip_text, port), ())
                + self._by_description.get(description, ())
                + self._seeded_specs(description))

    # -- the interception point ---------------------------------------

    def check(self, ip_text: str, port: int, description: str,
              attempt: int, timeout: Optional[float],
              now_epoch: int) -> None:
        """Raise the scheduled fault for this attempt, if any."""
        for spec in self.specs_for(ip_text, port, description):
            if not spec.fires(attempt, now_epoch):
                continue
            endpoint = f"{ip_text}:{port}"
            if spec.kind is FaultKind.SLOW_START:
                if timeout is None or spec.latency <= timeout:
                    continue    # slow but within budget: connect succeeds
                self._count(spec.kind, attempt)
                raise _transient(ConnectionTimeout(
                    f"{endpoint} slow-start {spec.latency:.1f}s exceeded "
                    f"{timeout:.1f}s budget"), spec.kind)
            self._count(spec.kind, attempt)
            if spec.kind is FaultKind.REFUSE:
                raise _transient(ConnectionRefused(
                    f"{endpoint} refused (injected, attempt {attempt})"),
                    spec.kind)
            if spec.kind is FaultKind.RESET:
                raise _transient(ConnectionReset(
                    f"{endpoint} reset after {spec.after_bytes} bytes "
                    f"(injected, attempt {attempt})",
                    bytes_delivered=spec.after_bytes), spec.kind)
            # TIMEOUT and the FLAP down-phase both look like blackholes.
            raise _transient(ConnectionTimeout(
                f"{endpoint} timed out (injected "
                f"{spec.kind.value}, attempt {attempt})"), spec.kind)

    def _count(self, kind: FaultKind, attempt: int = 0) -> None:
        self.injections += 1
        self.injected_by_kind[kind.value] = (
            self.injected_by_kind.get(kind.value, 0) + 1)
        if trace.TRACING:
            trace.event("fault", kind=kind.value, attempt=attempt)


@dataclass(frozen=True, slots=True)
class ConnectCharge:
    """What one failed connect operation (one retry loop) added to the
    counters: *connects* attempts to ``Network.connect_count``, all but
    the first of them to ``retried_connects``, *backoff_micros* to
    ``backoff_micros``, and one injection of each kind in *faults* (a
    :class:`FaultKind` value, as ``injected_by_kind`` keys it) to the
    fault plan's ``injections`` and ``injected_by_kind``."""

    connects: int
    backoff_micros: int
    faults: Tuple[str, ...]


class Network:
    """The shared fabric connecting all simulated hosts."""

    def __init__(self, clock=None):
        self._listeners: Dict[Tuple[str, int], Listener] = {}
        self._known_hosts: set[str] = set()
        self.clock = clock
        self.fault_plan: Optional[FaultPlan] = None
        self.connect_count = 0
        self.retried_connects = 0
        #: Virtual backoff is accumulated in integer microseconds so
        #: that cross-process stat merging (the process scan backend
        #: sums and corrects per-worker deltas) is exact integer
        #: arithmetic — float summation order would otherwise leak into
        #: the merged totals.  It also matches the unit the trace
        #: registry counts (``net.backoff_micros``) exactly.
        self.backoff_micros = 0
        #: Retry delays by (policy, key, attempt) — see
        #: :meth:`backoff_delay`.  The memo belongs to this world and
        #: dies with it.
        self._backoff_delays: Dict[Tuple[Any, str, int], float] = {}
        #: Changes to the listeners, known hosts, behaviours and the
        #: installed plan (see :attr:`version`).
        self._changes = 0

    # -- server side --------------------------------------------------

    def register(self, ip: IpAddress, port: int, app: Any, *,
                 behavior: TcpBehavior = TcpBehavior.ACCEPT,
                 description: str = "") -> Listener:
        """Bind *app* to ``ip:port``.  Re-binding replaces the listener."""
        listener = Listener(ip, port, app, behavior, description)
        self._listeners[(ip.text, port)] = listener
        self._known_hosts.add(ip.text)
        self._changes += 1
        return listener

    def unregister(self, ip: IpAddress, port: int) -> None:
        self._listeners.pop((ip.text, port), None)
        self._changes += 1

    def register_host(self, ip: IpAddress) -> None:
        """Mark an IP as allocated even if nothing listens on it yet.

        Connecting to an allocated host with no listener on the port is
        a *refused* connection; connecting to an unallocated IP is a
        *timeout* (nothing answers at all).
        """
        self._known_hosts.add(ip.text)
        self._changes += 1

    def set_behavior(self, ip: IpAddress, port: int,
                     behavior: TcpBehavior) -> None:
        key = (ip.text, port)
        if key not in self._listeners:
            raise KeyError(f"no listener on {ip}:{port}")
        self._listeners[key].behavior = behavior
        self._changes += 1

    # -- fault injection ----------------------------------------------

    def install_fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Install (or with ``None`` remove) the active fault plan."""
        self.fault_plan = plan
        self._changes += 1

    @property
    def version(self) -> Tuple[int, int]:
        """What :meth:`connect` can see, as a value that changes
        whenever it does: the network's own changes counted — a
        listener, a known host, a behaviour, the installed fault plan
        — and the installed plan's :attr:`FaultPlan.version`.  Two
        reads are equal only if nothing changed in between."""
        plan = self.fault_plan
        return self._changes, (plan.version if plan is not None else 0)

    @property
    def faults_injected(self) -> int:
        return self.fault_plan.injections if self.fault_plan else 0

    @property
    def backoff_seconds(self) -> float:
        """Accumulated virtual backoff, in seconds (float view)."""
        return self.backoff_micros / 1_000_000

    def backoff_delay(self, policy, key: str, attempt: int) -> float:
        """``policy.backoff(key, attempt)``, computed once per world.

        The delay is a pure function of (policy, key, attempt), but
        each computation seeds a fresh RNG from a string; a retry-heavy
        delivery campaign asks for the same few hundred delays tens of
        thousands of times.
        """
        memo_key = (policy, key, attempt)
        delay = self._backoff_delays.get(memo_key)
        if delay is None:
            delay = policy.backoff(key, attempt)
            self._backoff_delays[memo_key] = delay
        return delay

    def record_backoff(self, seconds: float) -> int:
        """Charge virtual retry-backoff time (ScanStats accounting);
        return the integer microseconds charged."""
        delay_micros = trace.micros(seconds)
        self.backoff_micros += delay_micros
        tracer = trace.current_tracer() if trace.TRACING else None
        if tracer is not None:
            tracer.metrics.observe("retry.backoff", delay_micros)
        return delay_micros

    def replay(self, *charges: ConnectCharge) -> None:
        """Count failed connect operations again, exactly as their
        first run counted them, without attempting a connect.  A trace
        records every connect attempt (resource-span events and the
        ``retry.backoff`` histogram), and a replay attempts none: replay
        only where no tracer is bound."""
        plan = self.fault_plan
        for charge in charges:
            self.connect_count += charge.connects
            self.retried_connects += charge.connects - 1
            self.backoff_micros += charge.backoff_micros
            for kind in charge.faults:
                plan.injections += 1
                plan.injected_by_kind[kind] = (
                    plan.injected_by_kind.get(kind, 0) + 1)

    # -- client side --------------------------------------------------

    def connect(self, ip: IpAddress, port: int, *, attempt: int = 0,
                timeout: Optional[float] = None) -> Any:
        """Attempt a TCP connection; return the application object.

        *attempt* is the caller's zero-based retry index for this
        operation; the fault plan keys attempt-scoped schedules off it.
        *timeout* is the caller's remaining (virtual) time budget in
        seconds: a scheduled slow-start latency larger than the budget
        surfaces as a :class:`ConnectionTimeout`.

        Raises
        ------
        ConnectionTimeout
            The IP is unallocated, the listener blackholes SYNs, or an
            injected timeout/flap/slow-start fault fired.
        ConnectionRefused
            The host exists but nothing accepts on this port, or an
            injected refusal fired.
        ConnectionReset
            An injected mid-exchange reset fired.
        """
        self.connect_count += 1
        if attempt:
            self.retried_connects += 1
        listener = self._listeners.get((ip.text, port))
        if self.fault_plan is not None:
            now_epoch = (self.clock.now().epoch_seconds
                         if self.clock is not None else 0)
            self.fault_plan.check(
                ip.text, port, listener.description if listener else "",
                attempt, timeout, now_epoch)
        if listener is None:
            if ip.text in self._known_hosts:
                raise ConnectionRefused(f"{ip}:{port} refused")
            raise ConnectionTimeout(f"{ip}:{port} timed out")
        if listener.behavior is TcpBehavior.REFUSE:
            raise ConnectionRefused(f"{ip}:{port} refused")
        if listener.behavior is TcpBehavior.TIMEOUT:
            raise ConnectionTimeout(f"{ip}:{port} timed out")
        return listener.app

    def endpoints(self) -> list[Tuple[str, int]]:
        return sorted(self._listeners)

    def listeners(self) -> list[Listener]:
        """Every registered listener, in deterministic endpoint order."""
        return [self._listeners[key] for key in sorted(self._listeners)]
