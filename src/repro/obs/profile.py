"""Optional wall-clock stage profiling.

The trace layer records *virtual* time (deterministic, byte-identical
across backends); this module records *real* seconds — which stage of
the pipeline the wall clock actually goes to, and which domains are
slowest — to guide the next performance PR.  Like tracing, profiling
is off by default and costs one ``is None`` branch per scanned domain
when disabled (the acceptance criteria cap the disabled overhead at
5%); wall-clock numbers never feed the deterministic exporters.

One :class:`StageProfiler` is owned by each scanner (each shard
worker, under the process backend), so recording needs no locks;
:meth:`ProfileReport.merge` folds the shard profilers into the
campaign view the executor exposes as ``last_profile``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

__all__ = ["StageProfiler", "ProfileReport", "STAGES"]

#: The scanner's pipeline stages, in execution order.
STAGES = ("dns", "policy", "mx")


class StageProfiler:
    """Per-scanner wall-clock accumulator: seconds and calls per stage,
    plus every domain's total scan seconds."""

    def __init__(self) -> None:
        self.stage_seconds: Dict[str, float] = {}
        self.stage_calls: Dict[str, int] = {}
        #: (seconds, month_index, domain) per scanned domain
        self.domain_seconds: List[Tuple[float, int, str]] = []

    def record_stage(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = (
            self.stage_seconds.get(stage, 0.0) + seconds)
        self.stage_calls[stage] = self.stage_calls.get(stage, 0) + 1

    def record_domain(self, domain: str, month_index: int,
                      seconds: float) -> None:
        self.domain_seconds.append((seconds, month_index, domain))


class ProfileReport:
    """The merged wall-clock profile of one scan (or campaign)."""

    def __init__(self, top_n: int = 10):
        self.top_n = top_n
        self.stage_seconds: Dict[str, float] = {}
        self.stage_calls: Dict[str, int] = {}
        self.slowest: List[Tuple[float, int, str]] = []
        self.domains_profiled = 0

    @classmethod
    def merge(cls, profilers: Sequence[StageProfiler],
              top_n: int = 10) -> "ProfileReport":
        report = cls(top_n)
        for profiler in profilers:
            for stage, seconds in profiler.stage_seconds.items():
                report.stage_seconds[stage] = (
                    report.stage_seconds.get(stage, 0.0) + seconds)
            for stage, calls in profiler.stage_calls.items():
                report.stage_calls[stage] = (
                    report.stage_calls.get(stage, 0) + calls)
            report.domains_profiled += len(profiler.domain_seconds)
            report.slowest.extend(profiler.domain_seconds)
        report.slowest.sort(reverse=True)
        del report.slowest[top_n:]
        return report

    def extend(self, other: "ProfileReport") -> None:
        """Fold another scan's profile in (campaign accumulation)."""
        for stage, seconds in other.stage_seconds.items():
            self.stage_seconds[stage] = (
                self.stage_seconds.get(stage, 0.0) + seconds)
        for stage, calls in other.stage_calls.items():
            self.stage_calls[stage] = (
                self.stage_calls.get(stage, 0) + calls)
        self.domains_profiled += other.domains_profiled
        self.slowest.extend(other.slowest)
        self.slowest.sort(reverse=True)
        del self.slowest[self.top_n:]

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "domains_profiled": self.domains_profiled,
            "total_seconds": round(self.total_seconds, 4),
            "stages": {
                stage: {
                    "seconds": round(self.stage_seconds.get(stage, 0.0), 4),
                    "calls": self.stage_calls.get(stage, 0),
                }
                for stage in sorted(self.stage_seconds)
            },
            "slowest_domains": [
                {"domain": domain, "month": month,
                 "seconds": round(seconds, 6)}
                for seconds, month, domain in self.slowest
            ],
        }
