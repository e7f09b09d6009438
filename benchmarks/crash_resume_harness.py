"""Kill-and-resume differential harness (real SIGKILL, real resume).

The in-process resume tests (``tests/test_campaign_resume.py``,
``tests/test_delivery_campaign.py``) stop the campaign loop from
inside; this harness goes further and kills an actual child process
with ``SIGKILL`` mid-campaign — no ``finally`` blocks, no atexit,
nothing flushes — then resumes from the surviving state directory and
byte-compares three artifacts against an uninterrupted reference run.

* **scan campaign** — the child SIGKILLs itself the moment month
  ``--kill-after`` commits; compared are the committed store's
  ``canonical_bytes()`` (``load_state`` of the resumed state dir
  against that of a reference run with its own state dir), the
  monthly metrics JSONL feed and the health report text.
* **delivery campaign** — the 40-sender campaign of
  ``tests/test_delivery_campaign.py`` (scale 0.004, seed 11, month 3,
  5 messages each, backpressure 60).  The child SIGKILLs itself from
  its progress callback at the heartbeat where half the messages are
  finalised, before that wave commits; the parent checks that some but
  not all waves were committed, then compares the ledger, the per-wave
  metrics feed and the health report text.

Each runs clean and fault-seeded (4242).  Exit status 0 means every
comparison matched.  The state directory of the last scan
configuration is left in place so CI can upload its ``manifest.json``
as an artifact.

Usage::

    PYTHONPATH=src python benchmarks/crash_resume_harness.py \
        [--scale 0.004] [--seed 7] [--months 6] [--kill-after 2] \
        [--keep-dir DIR]

``--scale``, ``--seed``, ``--months`` and ``--kill-after`` shape the
scan campaign; the delivery campaign is fixed.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile

from repro.analysis.series import run_campaign
from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig
from repro.measurement.delivery_campaign import (
    DeliveryCampaignConfig, run_delivery_campaign,
)
from repro.measurement.executor import ScanExecutor
from repro.measurement.store_io import (
    DELIVERY_KIND, load_state, read_manifest,
)
from repro.obs.monitor import CampaignMonitor

FAULT_SEEDS = [None, 4242]
DELIVERY = dict(scale=0.004, seed=11, month_index=3, senders=40,
                messages_per_sender=5, backpressure=60, fault_rate=0.35)


def _label(fault_seed) -> str:
    return "clean" if fault_seed is None else f"faults@{fault_seed}"


def _spawn(target, *args) -> int:
    """Run ``target(*args)`` in a fresh interpreter; its exit code
    (``-SIGKILL`` when it killed itself)."""
    child = multiprocessing.get_context("spawn").Process(target=target,
                                                         args=args)
    child.start()
    child.join()
    return child.exitcode


def _compare(label: str, checks) -> bool:
    for name, ok in checks:
        print(f"[{label}]   {name}: {'identical' if ok else 'DIVERGED'}")
    return all(ok for _, ok in checks)


# ---------------------------------------------------------------------------
# Scan campaign
# ---------------------------------------------------------------------------

def _timeline(args) -> EcosystemTimeline:
    return EcosystemTimeline(TimelineConfig(
        PopulationConfig(scale=args.scale, seed=args.seed)))


class _SelfKillMonitor(CampaignMonitor):
    """SIGKILLs the process after ``after`` months committed — the
    monitor observes *after* the checkpoint, so the kill lands exactly
    between one month's commit and the next month's scan."""

    def __init__(self, after: int):
        super().__init__()
        self._after = after

    def observe_month(self, *observed, **kwargs):
        super().observe_month(*observed, **kwargs)
        if len(self.records) >= self._after:
            os.kill(os.getpid(), signal.SIGKILL)


def _scan_child(args, fault_seed, state_dir: str) -> None:
    run_campaign(_timeline(args), list(range(args.months)),
                 executor=ScanExecutor(),
                 monitor=_SelfKillMonitor(args.kill_after),
                 state_dir=state_dir,
                 fault_seed=fault_seed)
    # Reaching this line means the kill never fired.
    print("child: campaign finished without being killed", file=sys.stderr)
    sys.exit(1)


def _run_scan_config(args, fault_seed, keep_dir: str = None) -> bool:
    label = f"scan {_label(fault_seed)}"
    months = list(range(args.months))

    reference_dir = tempfile.mkdtemp(prefix="crash-resume-reference-")
    state_dir = keep_dir or tempfile.mkdtemp(prefix="crash-resume-")
    try:
        reference_monitor = CampaignMonitor()
        run_campaign(
            _timeline(args), months, executor=ScanExecutor(),
            monitor=reference_monitor, state_dir=reference_dir,
            fault_seed=fault_seed)
        code = _spawn(_scan_child, args, fault_seed, state_dir)
        if code != -signal.SIGKILL:
            print(f"[{label}] FAIL: child exited {code}, expected "
                  f"SIGKILL ({-signal.SIGKILL})")
            return False
        committed = [entry["month"]
                     for entry in read_manifest(state_dir)["months"]]
        print(f"[{label}] child SIGKILLed with months {committed} "
              f"committed; resuming")

        resumed_monitor = CampaignMonitor()
        run_campaign(
            _timeline(args), months, executor=ScanExecutor(),
            monitor=resumed_monitor, state_dir=state_dir, resume=True,
            fault_seed=fault_seed)
        return _compare(label, [
            ("canonical_bytes",
             load_state(reference_dir).store.canonical_bytes()
             == load_state(state_dir).store.canonical_bytes()),
            ("metrics jsonl", reference_monitor.to_jsonl()
             == resumed_monitor.to_jsonl()),
            ("health report", reference_monitor.health().render()
             == resumed_monitor.health().render()),
        ])
    finally:
        shutil.rmtree(reference_dir, ignore_errors=True)
        if keep_dir is None:
            shutil.rmtree(state_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Delivery campaign
# ---------------------------------------------------------------------------

def _delivery_child(config: DeliveryCampaignConfig, state_dir: str) -> None:
    half = config.total_messages // 2

    def progress(event) -> None:
        # The heartbeat fires after the wave's rows are finalised and
        # before the wave commits.
        if not event.final and event.domains_done >= half:
            os.kill(os.getpid(), signal.SIGKILL)

    run_delivery_campaign(config, progress=progress, state_dir=state_dir)
    print("child: delivery finished without being killed", file=sys.stderr)
    sys.exit(1)


def _run_delivery_config(fault_seed) -> bool:
    label = f"deliver {_label(fault_seed)}"
    config = DeliveryCampaignConfig(fault_seed=fault_seed, **DELIVERY)
    reference = run_delivery_campaign(config)

    state_dir = tempfile.mkdtemp(prefix="crash-resume-deliver-")
    try:
        code = _spawn(_delivery_child, config, state_dir)
        if code != -signal.SIGKILL:
            print(f"[{label}] FAIL: child exited {code}, expected "
                  f"SIGKILL ({-signal.SIGKILL})")
            return False
        committed = len(read_manifest(state_dir, kind=DELIVERY_KIND)["waves"])
        total = reference.stats.waves
        print(f"[{label}] child SIGKILLed with {committed} of {total} "
              f"waves committed; resuming")
        if not 0 < committed < total:
            print(f"[{label}] FAIL: the kill did not land mid-campaign")
            return False

        resumed = run_delivery_campaign(config, state_dir=state_dir,
                                        resume=True)
        return _compare(label, [
            ("ledger", resumed.ledger_text == reference.ledger_text),
            ("wave feed", resumed.monitor.to_jsonl()
             == reference.monitor.to_jsonl()),
            ("health report", resumed.health().render()
             == reference.health().render()),
        ])
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.004)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--months", type=int, default=6)
    parser.add_argument("--kill-after", type=int, default=2,
                        help="months committed before the SIGKILL")
    parser.add_argument("--keep-dir", default=None, metavar="DIR",
                        help="keep the last scan configuration's state "
                             "directory at DIR (for artifact upload)")
    args = parser.parse_args()

    failures = 0
    for index, fault_seed in enumerate(FAULT_SEEDS):
        keep = args.keep_dir if index == len(FAULT_SEEDS) - 1 else None
        if keep:
            os.makedirs(keep, exist_ok=True)
        if not _run_scan_config(args, fault_seed, keep_dir=keep):
            failures += 1
    for fault_seed in FAULT_SEEDS:
        if not _run_delivery_config(fault_seed):
            failures += 1
    if failures:
        print(f"FATAL: {failures} configuration(s) diverged after resume")
        return 1
    print("all configurations byte-identical after kill-and-resume")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
