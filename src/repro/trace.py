"""Structured scan tracing and metrics.

The measurement pipeline's value rests on being able to explain *why*
each domain classified the way it did: which DNS lookups ran, where
the policy fetch broke, which MX probes hit injected faults, how much
retry backoff was charged.  This module provides the substrate:

* :class:`Span` — one node of a per-domain span tree (``scan`` →
  ``dns`` / ``policy`` / ``mx``), carrying ordered events and
  deterministic ids derived from the *virtual* clock and the domain —
  never from wall time, thread ids, or allocation order;
* :class:`MetricsRegistry` — integer counters and virtual-time
  histograms.  A traced scan slice writes the deltas of the world's
  own work counters into its tracer's registry, so the trace and
  :class:`~repro.measurement.executor.ScanStats` read one count;
* :class:`Tracer` — the per-shard recorder.  Each scan shard owns one
  tracer and binds it as the process's active tracer while scanning,
  so the clients (resolver, HTTPS client, SMTP probe, retry layer)
  report into the right shard without passing a handle through every
  call;
* :class:`TraceReport` — the canonical merge of all shard tracers.

Determinism rules (the byte-identity invariant)
-----------------------------------------------

Repeated scans must emit byte-identical traces, and a process scan's
merged trace must carry the serial scan's domain trees and counters.
Anything attributed to a *domain* span must therefore be a pure
function of the world and the scan instant — outcomes, verdicts,
stage results.  Work that is compute-once behind a cache (live DNS
queries, SMTP probes, PKIX validations) has no stable owner: which
domain's scan executes it depends on which domains the cache has
already served, and under the process backend every worker has its
own caches, so each shard executes its own copy.  Such work is
recorded instead as a flat **resource span** keyed by the operation's
stable key (``dns:<server>:<name>``, ``probe:<hostname>``); its
*content* is a pure function of the key and the virtual clock, so the
merged, key-sorted resource section is identical however the domains
are sharded.  Domain spans reference resources by key and record only
deterministic outcomes, never cache hit/miss flags.  Cache traffic is
counted in the metrics registry, whose totals are deterministic
because every shared cache in the pipeline is compute-once.

Virtual durations are recorded as integer microseconds so that merge
order cannot perturb floating-point sums.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "Span", "Tracer", "MetricsRegistry", "Histogram", "TraceReport",
    "current_tracer", "event", "child_span",
]

#: Upper bucket bounds (virtual seconds) for the backoff histogram.
HISTOGRAM_BOUNDS = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 60.0)


def micros(seconds: float) -> int:
    """Virtual seconds → integer microseconds (the trace's time unit)."""
    return round(seconds * 1_000_000)


# ---------------------------------------------------------------------------
# Span model
# ---------------------------------------------------------------------------

@dataclass
class Span:
    """One node of a span tree.

    ``span_id`` is assigned when the tree is sealed: the root id is a
    digest of ``(virtual instant, month, target)`` and children get
    ``<root>.<preorder-index>`` — fully deterministic, no wall time.
    """

    name: str
    target: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    children: List["Span"] = field(default_factory=list)
    span_id: str = ""

    def event(self, name: str, **attrs: Any) -> None:
        entry: Dict[str, Any] = {"event": name}
        entry.update(attrs)
        self.events.append(entry)

    def seal(self, seed: str) -> None:
        """Assign deterministic ids to this tree from *seed*."""
        self.span_id = hashlib.sha256(seed.encode("utf-8")).hexdigest()[:16]
        index = 0
        stack = [self]
        while stack:
            node = stack.pop()
            for child in node.children:
                index += 1
                child.span_id = f"{self.span_id}.{index}"
                stack.append(child)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"span_id": self.span_id, "name": self.name}
        if self.target:
            data["target"] = self.target
        if self.attrs:
            data["attrs"] = self.attrs
        if self.events:
            data["events"] = self.events
        if self.children:
            data["children"] = [c.to_dict() for c in self.children]
        return data

    def render(self, indent: int = 0) -> List[str]:
        """Human-readable tree lines (``audit --explain``)."""
        pad = "  " * indent
        head = f"{pad}{self.name}"
        if self.target:
            head += f" [{self.target}]"
        if self.attrs:
            head += "  " + " ".join(
                f"{k}={v}" for k, v in sorted(self.attrs.items()))
        lines = [head]
        for entry in self.events:
            rest = " ".join(f"{k}={v}" for k, v in entry.items()
                            if k != "event")
            lines.append(f"{pad}  · {entry['event']}"
                         + (f" {rest}" if rest else ""))
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass
class Histogram:
    """A fixed-bucket histogram over virtual durations (microseconds).

    Buckets are integer counts under :data:`HISTOGRAM_BOUNDS` plus an
    overflow bucket; totals are integer microseconds, so merged sums
    are independent of merge order.
    """

    bounds: Sequence[float] = HISTOGRAM_BOUNDS
    counts: List[int] = field(default_factory=list)
    total_micros: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe_micros(self, value: int) -> None:
        seconds = value / 1_000_000
        for index, bound in enumerate(self.bounds):
            if seconds <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.total_micros += value

    @property
    def observations(self) -> int:
        return sum(self.counts)

    def quantile(self, q: float) -> float:
        """The upper bucket bound containing the *q*-quantile, in
        seconds (the usual Prometheus-style histogram estimate).
        Observations in the overflow bucket report ``inf``; an empty
        histogram reports ``0.0``."""
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be within (0, 1]")
        total = self.observations
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        for bound, count in zip(self.bounds, self.counts):
            cumulative += count
            if cumulative >= target:
                return float(bound)
        return float("inf")

    def merge(self, other: "Histogram") -> None:
        for index, value in enumerate(other.counts):
            self.counts[index] += value
        self.total_micros += other.total_micros

    def to_dict(self) -> Dict[str, Any]:
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "total_micros": self.total_micros}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        return cls(bounds=tuple(data["bounds"]),
                   counts=list(data["counts"]),
                   total_micros=int(data["total_micros"]))


class MetricsRegistry:
    """Counters and virtual-time histograms for one tracer.

    A registry is only ever written by the shard that owns it;
    cross-shard totals come from :meth:`merge`, which is integer
    addition and therefore order-independent.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value_micros: int) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe_micros(value_micros)

    def merge(self, other: "MetricsRegistry") -> None:
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, histogram in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram(
                    bounds=histogram.bounds)
            mine.merge(histogram)

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "histograms": {k: self.histograms[k].to_dict()
                           for k in sorted(self.histograms)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        """Inverse of :meth:`to_dict` (the metrics exporters'
        re-parse path)."""
        registry = cls()
        for name, value in data.get("counters", {}).items():
            registry.counters[name] = int(value)
        for name, payload in data.get("histograms", {}).items():
            registry.histograms[name] = Histogram.from_dict(payload)
        return registry


# ---------------------------------------------------------------------------
# The per-shard tracer and the active-tracer binding
# ---------------------------------------------------------------------------

class Tracer:
    """Records span trees and metrics for one scan shard.

    One tracer is owned by exactly one scanner (the executor gives
    every shard its own).  Domain trees are keyed by
    ``(month, domain)`` and resource spans by their operation key; the
    merge sorts both, so the merged span trees do not depend on how
    the domains were sharded.
    """

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.domain_spans: Dict[tuple, Span] = {}
        self.resource_spans: Dict[str, Span] = {}
        self._stack: List[Span] = []

    # -- recording ----------------------------------------------------

    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def domain_span(self, domain: str, month_index: int,
                    instant_epoch: int) -> Iterator[Span]:
        span = Span("scan", target=domain,
                    attrs={"domain": domain, "month": month_index,
                           "instant": instant_epoch})
        self.domain_spans[(month_index, domain)] = span
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()

    @contextmanager
    def child(self, name: str, target: str = "") -> Iterator[Span]:
        span = Span(name, target=target)
        parent = self.current_span()
        if parent is not None:
            parent.children.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()

    @contextmanager
    def resource(self, key: str, name: str,
                 target: str = "") -> Iterator[Span]:
        """A flat, key-deduplicated span for compute-once shared work.

        The span is *not* attached to the current tree — which domain
        triggered the work is scheduling-dependent — but it is pushed
        on the stack so events emitted while the work runs land on it.
        Re-executions of the same key (identical content by
        construction: every decision is a pure function of the key and
        the virtual clock) keep the first recording.
        """
        span = self.begin_resource(key, name, target)
        try:
            yield span
        finally:
            self.end_resource(key)

    def begin_resource(self, key: str, name: str,
                       target: str = "") -> Span:
        """Non-contextmanager form of :meth:`resource` for hot paths
        that cannot afford a generator frame per call; pair every call
        with :meth:`end_resource` in a ``finally``."""
        span = Span(name, target=target, attrs={"key": key})
        self._stack.append(span)
        return span

    def end_resource(self, key: str) -> None:
        span = self._stack.pop()
        self.resource_spans.setdefault(key, span)


# The process's active tracer; ``TRACING`` mirrors ``_active is not
# None``.  When no tracer is bound — the normal untraced case — hot
# pipeline sites skip their instrumentation behind a plain
# ``trace.TRACING`` attribute read, without paying a function call per
# operation.  Always read it as ``trace.TRACING`` (never ``from
# repro.trace import TRACING``, which would freeze the value at import
# time).
_active: Optional[Tracer] = None
TRACING = False


def current_tracer() -> Optional[Tracer]:
    return _active


@contextmanager
def bind(tracer: Optional[Tracer]) -> Iterator[None]:
    """Make *tracer* the active tracer until the context exits."""
    global _active, TRACING
    previous = _active
    _active = tracer
    TRACING = tracer is not None
    try:
        yield
    finally:
        _active = previous
        TRACING = previous is not None


# -- module-level helpers used by the pipeline clients ---------------------
#
# Every helper no-ops cheaply when no tracer is bound (a ``TRACING``
# global read; the span helpers hand back a shared null context instead
# of a generator frame), which is what keeps the tracing layer free
# when disabled.  Hot call sites additionally guard with
# ``if trace.TRACING:`` so even the helper call and its argument
# construction are skipped.

_NULL_SPAN_CONTEXT = contextlib.nullcontext(None)


def event(name: str, **attrs: Any) -> None:
    tracer = current_tracer()
    if tracer is not None:
        span = tracer.current_span()
        if span is not None:
            span.event(name, **attrs)


def child_span(name: str, target: str = ""):
    tracer = current_tracer()
    if tracer is None:
        return _NULL_SPAN_CONTEXT
    return tracer.child(name, target)


# ---------------------------------------------------------------------------
# The merged report
# ---------------------------------------------------------------------------

class TraceReport:
    """The canonical merge of every shard tracer of one scan.

    Merge order is fixed: domain trees sorted by ``(month, domain)``,
    then resource spans sorted by key, then one metrics record — so a
    serial scan and any sharding of the same scan serialise to the
    same bytes.
    """

    def __init__(self, instant_epoch: int = 0):
        self.instant_epoch = instant_epoch
        self.domain_spans: Dict[tuple, Span] = {}
        self.resource_spans: Dict[str, Span] = {}
        self.metrics = MetricsRegistry()

    @classmethod
    def merge(cls, tracers: Sequence[Tracer],
              instant_epoch: int = 0) -> "TraceReport":
        report = cls(instant_epoch)
        for tracer in tracers:
            for key, span in tracer.domain_spans.items():
                report.domain_spans[key] = span
            for key, span in tracer.resource_spans.items():
                report.resource_spans.setdefault(key, span)
            report.metrics.merge(tracer.metrics)
        for (month, domain), span in report.domain_spans.items():
            span.seal(f"{report.instant_epoch}:{month}:{domain}")
        for key, span in report.resource_spans.items():
            span.seal(f"{report.instant_epoch}:resource:{key}")
        return report

    # -- serialisation ------------------------------------------------

    def jsonl_lines(self) -> Iterator[str]:
        """One JSON record per line: domains, resources, metrics."""
        for (month, domain) in sorted(self.domain_spans):
            span = self.domain_spans[(month, domain)]
            yield json.dumps(
                {"type": "domain", "month": month, "domain": domain,
                 "span": span.to_dict()},
                sort_keys=True, separators=(",", ":"))
        for key in sorted(self.resource_spans):
            yield json.dumps(
                {"type": "resource", "key": key,
                 "span": self.resource_spans[key].to_dict()},
                sort_keys=True, separators=(",", ":"))
        yield json.dumps({"type": "metrics", **self.metrics.to_dict()},
                         sort_keys=True, separators=(",", ":"))

    def to_jsonl(self) -> str:
        return "\n".join(self.jsonl_lines()) + "\n"

    def write_jsonl(self, path: str) -> int:
        """Write the trace atomically (temp file + ``os.replace``, so
        an interrupted run never leaves a truncated trace); returns the
        number of records written."""
        from repro.fsutil import atomic_write_text

        lines = list(self.jsonl_lines())
        atomic_write_text(path, "\n".join(lines) + "\n")
        return len(lines)

    # -- inspection ---------------------------------------------------

    def domain_tree(self, domain: str,
                    month_index: Optional[int] = None) -> Optional[Span]:
        candidates = [key for key in self.domain_spans
                      if key[1] == domain
                      and (month_index is None or key[0] == month_index)]
        if not candidates:
            return None
        return self.domain_spans[max(candidates)]

    def referenced_resources(self, span: Span) -> List[str]:
        """Every resource key a tree references, in first-seen order."""
        keys: List[str] = []
        stack = [span]
        while stack:
            node = stack.pop(0)
            for entry in node.events:
                ref = entry.get("ref")
                if ref and ref not in keys and ref in self.resource_spans:
                    keys.append(ref)
            stack.extend(node.children)
        return keys

    def explain(self, domain: str,
                month_index: Optional[int] = None) -> str:
        """The human-readable span tree for one domain, with the
        resource spans (probes, connect attempts) it references."""
        span = self.domain_tree(domain, month_index)
        if span is None:
            return f"no trace recorded for {domain!r}"
        lines = span.render()
        resources = self.referenced_resources(span)
        if resources:
            lines.append("")
            lines.append("referenced shared resources:")
            for key in resources:
                lines.extend(self.resource_spans[key].render(indent=1))
        return "\n".join(lines)
