"""Campaign-level observability.

The :mod:`repro.trace` layer explains *one scan* (span trees, per-scan
metrics).  This package explains *campaigns*:

* :mod:`repro.obs.exporters` — Prometheus text-format exposition and
  monthly metrics JSONL for any
  :class:`~repro.trace.MetricsRegistry`, deterministically ordered so
  serial and process backends emit byte-identical output;
* :mod:`repro.obs.monitor` — :class:`FeedMonitor`: one metrics feed
  of per-record registry snapshots evaluated against a rule table into
  OK/WARN/ALERT health findings; :class:`CampaignMonitor` (per-month
  snapshots and month-over-month drift), the delivery and serve
  monitors, and :mod:`repro.obs.tlsrpt_monitor` are thin subclasses;
* :mod:`repro.obs.progress` — the heartbeat API on
  :class:`~repro.measurement.executor.ScanExecutor` and its CLI
  renderer;
* :mod:`repro.obs.profile` — optional wall-clock stage timers and the
  top-N slowest domains.
"""

from repro.obs.exporters import (
    month_jsonl_line, parse_prometheus_exposition,
    prometheus_exposition, read_month_records, write_lines_atomic,
)
from repro.obs.monitor import (
    CampaignMonitor, FeedMonitor, FeedRecord, HealthFinding, HealthReport,
    Thresholds, build_month_registry,
)
from repro.obs.profile import ProfileReport, StageProfiler
from repro.obs.progress import ProgressEvent, ProgressPrinter, ProgressTracker

__all__ = [
    "prometheus_exposition", "parse_prometheus_exposition",
    "month_jsonl_line", "read_month_records", "write_lines_atomic",
    "FeedMonitor", "FeedRecord", "HealthFinding", "HealthReport",
    "CampaignMonitor", "Thresholds", "build_month_registry",
    "ProgressEvent", "ProgressTracker", "ProgressPrinter",
    "StageProfiler", "ProfileReport",
]
