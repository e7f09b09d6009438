"""Metrics export: Prometheus exposition and monthly metrics JSONL.

Both formats serialise a :class:`~repro.trace.MetricsRegistry` with a
fixed ordering (sorted metric names, sorted label keys, canonical JSON)
so that the serial and process scan backends — whose month registries
carry the same serial-exact counters — emit **byte-identical**
artifacts.  The determinism tests assert that identity with and
without fault injection.

The Prometheus exposition is self-describing enough to round-trip: the
``# HELP`` line of every metric carries the original registry key (dots
and dashes survive there even though the metric name flattens them),
and :func:`parse_prometheus_exposition` rebuilds an equal registry from
the text.  The monthly JSONL is one canonical JSON record per scan
month; :func:`read_month_records` is its inverse.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from repro.fsutil import atomic_write_text
from repro.trace import Histogram, MetricsRegistry

__all__ = [
    "prometheus_exposition", "parse_prometheus_exposition",
    "month_jsonl_line", "read_month_records", "write_lines_atomic",
    "append_jsonl_line",
]


def _metric_name(key: str) -> str:
    """Flatten a registry key into a legal Prometheus metric name."""
    return key.replace(".", "_").replace("-", "_")


def _label_text(labels: Optional[Dict[str, str]],
                extra: Optional[Tuple[str, str]] = None) -> str:
    pairs: List[Tuple[str, str]] = sorted((labels or {}).items())
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in pairs)
    return "{" + body + "}"


def _bound_text(bound: float) -> str:
    return f"{bound:g}"


def prometheus_exposition(registry: MetricsRegistry, *,
                          namespace: str = "repro",
                          labels: Optional[Dict[str, str]] = None) -> str:
    """Render *registry* in the Prometheus text exposition format.

    Counters become ``<ns>_<name>_total``; histograms become the usual
    ``_bucket``/``_sum``/``_count`` triple with cumulative bucket
    counts, the sum in seconds (the registry keeps integer
    microseconds, so six decimals lose nothing).  Ordering is fully
    deterministic: metrics sorted by registry key, labels by label key.
    """
    lines: List[str] = []
    for key in sorted(registry.counters):
        metric = f"{namespace}_{_metric_name(key)}_total"
        lines.append(f"# HELP {metric} {key}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}{_label_text(labels)} "
                     f"{registry.counters[key]}")
    for key in sorted(registry.histograms):
        histogram = registry.histograms[key]
        metric = f"{namespace}_{_metric_name(key)}_seconds"
        lines.append(f"# HELP {metric} {key}")
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(histogram.bounds, histogram.counts):
            cumulative += count
            lines.append(
                f"{metric}_bucket"
                f"{_label_text(labels, ('le', _bound_text(bound)))} "
                f"{cumulative}")
        cumulative += histogram.counts[-1]
        lines.append(f"{metric}_bucket"
                     f"{_label_text(labels, ('le', '+Inf'))} {cumulative}")
        lines.append(f"{metric}_sum{_label_text(labels)} "
                     f"{histogram.total_micros / 1_000_000:.6f}")
        lines.append(f"{metric}_count{_label_text(labels)} {cumulative}")
    return "\n".join(lines) + "\n"


def _split_sample(line: str) -> Tuple[str, Dict[str, str], str]:
    """Split a sample line into (metric name, labels, value text)."""
    brace, space = line.find("{"), line.find(" ")
    if brace != -1 and (space == -1 or brace < space):
        name = line[:brace]
        body, _, value = line[brace + 1:].partition("}")
        labels: Dict[str, str] = {}
        for pair in body.split(","):
            if pair:
                key, _, quoted = pair.partition("=")
                labels[key] = quoted.strip('"')
        return name, labels, value.strip()
    name, _, value = line.partition(" ")
    return name, {}, value.strip()


def parse_prometheus_exposition(text: str) -> MetricsRegistry:
    """Rebuild the registry a :func:`prometheus_exposition` came from.

    Only understands our own exposition — it relies on the ``# HELP``
    line carrying the original registry key; used by the round-trip
    tests and the ``monitor`` tooling.
    """
    keys: Dict[str, str] = {}           # metric name -> registry key
    types: Dict[str, str] = {}          # metric name -> counter|histogram
    counters: Dict[str, int] = {}
    buckets: Dict[str, List[Tuple[float, int]]] = {}
    sums: Dict[str, int] = {}
    totals: Dict[str, int] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            metric, _, key = line[len("# HELP "):].partition(" ")
            keys[metric] = key
            continue
        if line.startswith("# TYPE "):
            metric, _, kind = line[len("# TYPE "):].partition(" ")
            types[metric] = kind
            continue
        name, labels, value = _split_sample(line)
        if types.get(name) == "counter":
            counters[keys[name]] = int(value)
        elif name.endswith("_bucket") and labels.get("le") != "+Inf":
            buckets.setdefault(name[:-len("_bucket")], []).append(
                (float(labels["le"]), int(value)))
        elif name.endswith("_sum"):
            sums[name[:-len("_sum")]] = round(float(value) * 1_000_000)
        elif name.endswith("_count"):
            totals[name[:-len("_count")]] = int(value)

    registry = MetricsRegistry()
    registry.counters = counters
    for metric, pairs in buckets.items():
        if types.get(metric) != "histogram" or metric not in keys:
            continue
        pairs.sort()
        cumulative = [count for _, count in pairs]
        counts = [cumulative[0]] + [
            cumulative[i] - cumulative[i - 1]
            for i in range(1, len(cumulative))]
        counts.append(totals.get(metric, cumulative[-1]) - cumulative[-1])
        registry.histograms[keys[metric]] = Histogram(
            bounds=tuple(bound for bound, _ in pairs),
            counts=counts, total_micros=sums.get(metric, 0))
    return registry


# ---------------------------------------------------------------------------
# Monthly metrics JSONL
# ---------------------------------------------------------------------------

def month_jsonl_line(month_index: int, date: str,
                     registry: MetricsRegistry) -> str:
    """One canonical JSON record for one scan month's registry."""
    return json.dumps(
        {"type": "month", "month": month_index, "date": date,
         **registry.to_dict()},
        sort_keys=True, separators=(",", ":"))


def read_month_records(text: str) -> List[Tuple[int, str, MetricsRegistry]]:
    """Parse monthly metrics JSONL back into ``(month, date, registry)``
    tuples, skipping non-``month`` records."""
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        data = json.loads(line)
        if data.get("type") != "month":
            continue
        records.append((int(data["month"]), str(data.get("date", "")),
                        MetricsRegistry.from_dict(data)))
    records.sort(key=lambda record: record[0])
    return records


def write_lines_atomic(path: str, lines: Iterable[str]) -> int:
    """Atomically write *lines* as a newline-terminated file; returns
    the number of lines written."""
    materialised = list(lines)
    atomic_write_text(
        path, "\n".join(materialised) + "\n" if materialised else "")
    return len(materialised)


def append_jsonl_line(path: str, line: str) -> None:
    """Append one record to an append-only JSONL feed.

    The line is written with a single ``write`` call so concurrent
    readers of the feed never observe a torn record.
    """
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
