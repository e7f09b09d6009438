"""Lifecycle walkthrough: updating and removing MTA-STS safely.

Demonstrates the operational hazards the paper documents:

* §7.2: 23.8% of surveyed operators update the TXT record before the
  policy file — this script shows the transient failure window that
  ordering opens;
* §2.6: abrupt removal strands senders holding cached enforce
  policies, while the RFC 8461 four-step sequence drains them safely.

Run:  python examples/policy_migration.py
"""

from repro.clock import Duration
from repro.core.fetch import PolicyFetcher
from repro.core.lifecycle import check_removal_sequence, plan_removal
from repro.core.policy import Policy, PolicyMode, render_policy
from repro.core.sender import MtaStsSender
from repro.ecosystem.deployment import DomainSpec, deploy_domain
from repro.ecosystem.misconfig import Fault, apply_fault
from repro.ecosystem.world import World
from repro.smtp.delivery import Message


def build(max_age=7 * 86400):
    world = World()
    deployed = deploy_domain(world, DomainSpec(
        domain="victim.com",
        policy=Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                      max_age=max_age, mx_patterns=("mail.victim.com",))))
    fetcher = PolicyFetcher(world.resolver, world.https_client)
    sender = MtaStsSender("relay.big-mailer.net", world.network,
                          world.resolver, world.trust_store, world.clock,
                          fetcher)
    status = sender.send(Message("a@x.org", "b@victim.com")).status
    print(f"  primed sender cache (delivery: {status.value})")
    return world, deployed, sender


def scenario_abrupt_removal():
    print("scenario 1: ABRUPT removal, then provider migration")
    world, deployed, sender = build()
    deployed.remove_record()
    deployed.set_policy_text("")
    apply_fault(world, deployed, Fault.OUTDATED_POLICY)  # MX migrates
    world.resolver.flush_cache()
    status = sender.send(Message("a@x.org", "b@victim.com")).status
    print(f"  delivery after abrupt removal + migration: {status.value}")
    print("  -> the cached enforce policy still names the old MX\n")


def scenario_rfc_removal():
    print("scenario 2: RFC 8461 removal sequence")
    world, deployed, sender = build()
    previous = Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                      max_age=7 * 86400, mx_patterns=("mail.victim.com",))
    plan = plan_removal("victim.com", previous)
    for step in plan.steps:
        print(f"  step: {step.kind.value:<18} {step.note}")
    lint = check_removal_sequence(plan.steps, previous)
    print(f"  linter verdict: compliant={lint.compliant}")

    none_policy = plan.steps[0].policy
    deployed.set_policy_text(render_policy(none_policy))
    deployed.set_record("v=STSv1; id=removal1;")
    world.resolver.flush_cache()
    sender.send(Message("a@x.org", "b@victim.com"))   # refetch: mode=none
    world.clock.advance(Duration(8 * 86400))
    deployed.remove_record()
    deployed.set_policy_text("")
    apply_fault(world, deployed, Fault.OUTDATED_POLICY)
    world.resolver.flush_cache()
    status = sender.send(Message("a@x.org", "b@victim.com")).status
    print(f"  delivery after graceful removal + migration: {status.value}\n")


def scenario_txt_first_update():
    print("scenario 3: updating the TXT record before the policy file")
    world, deployed, sender = build()
    # The operator bumps the id first; the policy body still lists the
    # about-to-be-retired MX.
    deployed.set_record("v=STSv1; id=migration1;")
    world.resolver.flush_cache()
    sender.send(Message("a@x.org", "b@victim.com"))   # caches stale policy
    apply_fault(world, deployed, Fault.OUTDATED_POLICY)
    world.resolver.flush_cache()
    status = sender.send(Message("a@x.org", "b@victim.com")).status
    print(f"  delivery inside the stale window: {status.value}")
    # Eventually the operator fixes the policy body and bumps again.
    fixed = Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                   max_age=7 * 86400, mx_patterns=("mx.victim-mail.net",))
    deployed.set_policy_text(render_policy(fixed))
    deployed.set_record("v=STSv1; id=migration2;")
    world.resolver.flush_cache()
    status = sender.send(Message("a@x.org", "b@victim.com")).status
    print(f"  delivery after the fix: {status.value}\n")


if __name__ == "__main__":
    scenario_abrupt_removal()
    scenario_rfc_removal()
    scenario_txt_first_update()
