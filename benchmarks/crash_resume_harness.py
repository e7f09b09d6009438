"""Kill-and-resume differential harness (real SIGKILL, real resume).

The in-process resume tests (``tests/test_campaign_resume.py``) unwind
the campaign loop with an exception; this harness goes further and
kills an actual child process with ``SIGKILL`` mid-campaign — no
``finally`` blocks, no atexit, nothing flushes — then resumes from the
surviving state directory and byte-compares three artifacts against an
uninterrupted reference run:

* the store's ``canonical_bytes()``;
* the monthly metrics JSONL feed the monitor renders;
* the health report text.

Exit status 0 means every comparison matched for both configurations
(a clean and a fault-seeded campaign).  The state directory of the
last configuration is left in place so CI can upload its
``manifest.json`` as an artifact.

Usage::

    PYTHONPATH=src python benchmarks/crash_resume_harness.py \
        [--scale 0.004] [--seed 7] [--months 6] [--kill-after 2] \
        [--keep-dir DIR]

The child mode (``--child``) is internal: it runs the campaign with
checkpointing enabled and SIGKILLs itself the moment month
``--kill-after`` commits.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

from repro.analysis.series import run_campaign
from repro.ecosystem.population import PopulationConfig
from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig
from repro.measurement.executor import ScanExecutor
from repro.netsim.network import FaultPlan
from repro.obs.monitor import CampaignMonitor


def _timeline(args) -> EcosystemTimeline:
    return EcosystemTimeline(TimelineConfig(
        PopulationConfig(scale=args.scale, seed=args.seed)))


def _fault_factory(args):
    if args.fault_seed is None:
        return None
    return lambda month: FaultPlan.seeded(seed=args.fault_seed + month,
                                          rate=0.2)


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


def _child(args) -> int:
    run_campaign(_timeline(args), list(range(args.months)),
                 executor=ScanExecutor(),
                 monitor=_SelfKillMonitor(args.kill_after),
                 state_dir=args.state_dir,
                 fault_plan_factory=_fault_factory(args))
    # Reaching this line means the kill never fired.
    print("child: campaign finished without being killed", file=sys.stderr)
    return 1


def _spawn_child(args, state_dir: str) -> int:
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--state-dir", state_dir, "--scale", str(args.scale),
               "--seed", str(args.seed), "--months", str(args.months),
               "--kill-after", str(args.kill_after)]
    if args.fault_seed is not None:
        command += ["--fault-seed", str(args.fault_seed)]
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(command, env=env).returncode


def _run_config(args, keep_dir: str = None) -> bool:
    label = ("clean" if args.fault_seed is None
             else f"faults@{args.fault_seed}")
    months = list(range(args.months))

    reference_monitor = CampaignMonitor()
    reference = run_campaign(
        _timeline(args), months, executor=ScanExecutor(),
        monitor=reference_monitor, fault_plan_factory=_fault_factory(args))

    state_dir = keep_dir or tempfile.mkdtemp(prefix="crash-resume-")
    try:
        code = _spawn_child(args, state_dir)
        if code != -signal.SIGKILL:
            print(f"[{label}] FAIL: child exited {code}, expected "
                  f"SIGKILL ({-signal.SIGKILL})")
            return False
        manifest = json.loads(open(
            os.path.join(state_dir, "manifest.json")).read())
        committed = [entry["month"] for entry in manifest["months"]]
        print(f"[{label}] child SIGKILLed with months {committed} "
              f"committed; resuming")

        resumed_monitor = CampaignMonitor()
        resumed = run_campaign(
            _timeline(args), months, executor=ScanExecutor(),
            monitor=resumed_monitor, state_dir=state_dir, resume=True,
            fault_plan_factory=_fault_factory(args))

        checks = [
            ("canonical_bytes", reference.store.canonical_bytes()
             == resumed.store.canonical_bytes()),
            ("metrics jsonl", reference_monitor.to_jsonl()
             == resumed_monitor.to_jsonl()),
            ("health report", reference_monitor.health().render()
             == resumed_monitor.health().render()),
        ]
        for name, ok in checks:
            print(f"[{label}]   {name}: {'identical' if ok else 'DIVERGED'}")
        return all(ok for _, ok in checks)
    finally:
        if keep_dir is None:
            shutil.rmtree(state_dir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.004)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--months", type=int, default=6)
    parser.add_argument("--kill-after", type=int, default=2,
                        help="months committed before the SIGKILL")
    parser.add_argument("--keep-dir", default=None, metavar="DIR",
                        help="keep the last configuration's state "
                             "directory at DIR (for artifact upload)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--state-dir", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--fault-seed", type=int, default=None)
    args = parser.parse_args()

    if args.child:
        return _child(args)

    failures = 0
    matrix = [None, 4242]
    for index, fault_seed in enumerate(matrix):
        args.fault_seed = fault_seed
        keep = args.keep_dir if index == len(matrix) - 1 else None
        if keep:
            os.makedirs(keep, exist_ok=True)
        if not _run_config(args, keep_dir=keep):
            failures += 1
    if failures:
        print(f"FATAL: {failures} configuration(s) diverged after resume")
        return 1
    print("all configurations byte-identical after kill-and-resume")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
