"""MTA-STS lifecycle: deployment and removal procedures.

RFC 8461 (and the paper's §2.6) prescribes a four-step removal
sequence; skipping steps strands senders holding a cached ``enforce``
policy.  This module provides:

* :func:`plan_deployment` — the ordered steps to stand MTA-STS up;
* :func:`plan_removal` — the RFC's graceful tear-down;
* :func:`check_removal_sequence` — a linter that classifies an
  operator's actual step sequence (used by the ablation benchmark to
  quantify how much mail each shortcut loses).

Steps are symbolic (:class:`LifecycleStep`) so the ecosystem simulator
can replay them against live simulated infrastructure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.clock import Duration
from repro.core.policy import Policy, PolicyMode

#: ``max_age`` of the mode-``none`` policy a graceful removal publishes.
NONE_MAX_AGE = 86_400


class StepKind(enum.Enum):
    PUBLISH_RECORD = "publish-record"          # create/replace _mta-sts TXT
    PUBLISH_POLICY = "publish-policy"          # write the HTTPS policy file
    BUMP_RECORD_ID = "bump-record-id"
    WAIT = "wait"
    REMOVE_RECORD = "remove-record"
    REMOVE_POLICY = "remove-policy"
    REMOVE_POLICY_HOST = "remove-policy-host"  # drop mta-sts. A/CNAME


@dataclass(frozen=True)
class LifecycleStep:
    kind: StepKind
    policy: Optional[Policy] = None
    wait: Optional[Duration] = None
    note: str = ""


@dataclass
class DeploymentPlan:
    domain: str
    steps: List[LifecycleStep] = field(default_factory=list)


@dataclass
class RemovalPlan:
    domain: str
    steps: List[LifecycleStep] = field(default_factory=list)


def plan_deployment(domain: str, policy: Policy) -> DeploymentPlan:
    """The safe bring-up order: policy file first, then the record.

    Publishing the TXT record before the policy file is reachable makes
    compliant senders attempt (and fail) a fetch — harmless for
    delivery but noisy; the RFC's examples and the paper's survey
    discussion both treat policy-first as correct.
    """
    steps = [
        LifecycleStep(StepKind.PUBLISH_POLICY, policy=policy,
                      note="serve the policy at the well-known URI first"),
        LifecycleStep(StepKind.PUBLISH_RECORD,
                      note="then announce it via the _mta-sts TXT record"),
    ]
    return DeploymentPlan(domain, steps)


def plan_removal(domain: str, previous_policy: Policy) -> RemovalPlan:
    """RFC 8461's graceful removal (§2.6 of the paper).

    1. publish a new policy with mode ``none`` and a small max_age;
    2. bump the record id so senders refetch;
    3. wait max(previous max_age, new max_age);
    4. remove the record, the policy host, and the policy file.
    """
    none_policy = Policy(version="STSv1", mode=PolicyMode.NONE,
                         max_age=NONE_MAX_AGE, mx_patterns=())
    wait_seconds = max(previous_policy.max_age, NONE_MAX_AGE)
    steps = [
        LifecycleStep(StepKind.PUBLISH_POLICY, policy=none_policy,
                      note="step 1: mode=none policy with small max_age"),
        LifecycleStep(StepKind.BUMP_RECORD_ID,
                      note="step 2: new id triggers refetch"),
        LifecycleStep(StepKind.WAIT, wait=Duration(wait_seconds),
                      note="step 3: wait out every cached policy"),
        LifecycleStep(StepKind.REMOVE_RECORD, note="step 4a"),
        LifecycleStep(StepKind.REMOVE_POLICY, note="step 4b"),
        LifecycleStep(StepKind.REMOVE_POLICY_HOST, note="step 4c"),
    ]
    return RemovalPlan(domain, steps)


@dataclass
class RemovalCheck:
    """Verdict on an operator's removal sequence."""

    compliant: bool
    problems: List[str] = field(default_factory=list)


def check_removal_sequence(steps: Sequence[LifecycleStep],
                           previous_policy: Policy) -> RemovalCheck:
    """Lint an observed removal sequence against the RFC procedure."""
    problems: List[str] = []
    kinds = [s.kind for s in steps]

    none_published = any(
        s.kind is StepKind.PUBLISH_POLICY and s.policy is not None
        and s.policy.mode is PolicyMode.NONE for s in steps)
    if not none_published:
        problems.append("never published a mode=none policy before removal")

    if StepKind.BUMP_RECORD_ID not in kinds and none_published:
        problems.append("policy changed without bumping the record id; "
                        "senders with fresh caches will not refetch")

    waited = sum((s.wait.seconds for s in steps
                  if s.kind is StepKind.WAIT and s.wait is not None), 0)
    if waited < previous_policy.max_age:
        problems.append(
            f"waited {waited}s but the previous policy's max_age is "
            f"{previous_policy.max_age}s; cached enforce policies survive")

    removed_policy_early = False
    seen_wait = False
    for step in steps:
        if step.kind is StepKind.WAIT:
            seen_wait = True
        if step.kind in (StepKind.REMOVE_POLICY, StepKind.REMOVE_POLICY_HOST,
                         StepKind.REMOVE_RECORD) and not seen_wait:
            removed_policy_early = True
    if removed_policy_early:
        problems.append("removed infrastructure before the waiting period")

    return RemovalCheck(compliant=not problems, problems=problems)
