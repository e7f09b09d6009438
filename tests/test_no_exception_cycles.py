"""No caught exception may stay reachable from a frame on its traceback.

A local that outlives its ``except`` block — a ``last_error`` kept for a
later ``raise``, an error returned to a caller that stores it — closes a
reference cycle: exception → traceback → frame → local → exception.
The cycle also pins every caller frame above it (``f_back``), so each
failed lookup keeps a whole scan or delivery call stack alive until the
cyclic collector runs, and the collector runs far more often.

With the collector off and ``gc.DEBUG_SAVEALL`` set, everything a pass
leaves in unreachable cycles lands in ``gc.garbage``; none of it may be
a frame, a traceback or an exception.  The faulted cases run under the
default fault seeds plus any in ``REPRO_FAULT_SEEDS`` (CI's fault
matrix), as ``test_pipeline_under_faults.py`` does.
"""

import gc
import os
import types
from collections import Counter

import pytest

from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig
from repro.measurement.delivery_campaign import (
    DeliveryCampaignConfig, run_delivery_campaign,
)
from repro.measurement.executor import ScanExecutor
from repro.netsim.network import FaultPlan


def _fault_seeds() -> list[int]:
    """The fixed default seeds, extended by the CI matrix variable."""
    seeds = [101, 202]
    env = os.environ.get("REPRO_FAULT_SEEDS", "")
    seeds += [int(s) for s in env.replace(",", " ").split() if s]
    return sorted(set(seeds))


def _cyclic_exception_garbage(run) -> Counter:
    """Frames, tracebacks and exceptions *run* leaves in cycles."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        found = Counter(
            "frame" if isinstance(obj, types.FrameType)
            else "traceback" if isinstance(obj, types.TracebackType)
            else type(obj).__name__
            for obj in gc.garbage
            if isinstance(obj, (types.FrameType, types.TracebackType,
                                BaseException)))
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
        if was_enabled:
            gc.enable()
    gc.collect()
    return found


def _scan_month(fault_seed=None) -> None:
    timeline = EcosystemTimeline(
        TimelineConfig(PopulationConfig(scale=0.004, seed=11)))
    month = len(timeline.scan_instants) - 1
    materialized = timeline.materialize(month)
    if fault_seed is not None:
        materialized.world.network.install_fault_plan(
            FaultPlan.seeded(seed=fault_seed, rate=0.3))
    ScanExecutor().scan(materialized.world, materialized.deployed.keys(),
                        month)


def test_census_sees_a_kept_exception():
    def keep_error():
        try:
            raise ValueError("kept past its handler")
        except ValueError as exc:
            error = exc
        return error is not None

    found = _cyclic_exception_garbage(keep_error)
    assert found == Counter(frame=1, traceback=1, ValueError=1)


def test_clean_scan_month_leaves_no_exception_cycles():
    assert _cyclic_exception_garbage(_scan_month) == Counter()


@pytest.mark.faults
@pytest.mark.parametrize("fault_seed", _fault_seeds())
def test_faulted_scan_month_leaves_no_exception_cycles(fault_seed):
    assert _cyclic_exception_garbage(
        lambda: _scan_month(fault_seed)) == Counter()


@pytest.mark.faults
@pytest.mark.parametrize("fault_seed", _fault_seeds())
def test_faulted_delivery_leaves_no_exception_cycles(fault_seed):
    config = DeliveryCampaignConfig(
        seed=5, scale=0.01, senders=120, messages_per_sender=2,
        fault_seed=fault_seed, fault_rate=0.35, tlsrpt=True)
    assert _cyclic_exception_garbage(
        lambda: run_delivery_campaign(config)) == Counter()
