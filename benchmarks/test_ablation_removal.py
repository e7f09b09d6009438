"""Ablations of the design choices DESIGN.md calls out.

1. MTA-STS removal procedure (§2.6): the RFC's four-step sequence vs
   abrupt removal, measured as delivery outcomes for senders holding a
   cached enforce policy while the domain migrates to a new provider.
2. Policy update ordering (§7.2): updating the TXT record before the
   policy file opens a transient window where refetching senders pick
   up the stale policy.
3. TOFU max_age sensitivity: how long stale enforce policies keep
   breaking delivery after an unannounced migration.
4. Provider opt-out strategies (Table 2): the delivery outcome for an
   opted-out enforce-mode customer under each strategy.
"""

from repro.clock import DAY, Duration
from repro.core.fetch import PolicyFetcher
from repro.core.policy import Policy, PolicyMode, render_policy
from repro.core.sender import MtaStsSender
from repro.ecosystem.deployment import DomainSpec, deploy_domain
from repro.ecosystem.misconfig import Fault, apply_fault
from repro.ecosystem.providers import OptOutBehavior, table2_providers
from repro.ecosystem.world import World
from repro.smtp.delivery import DeliveryStatus, Message
from benchmarks.conftest import paper_row


def _world_with_enforce_domain(max_age=7 * 86400):
    world = World()
    deployed = deploy_domain(world, DomainSpec(
        domain="victim.com",
        policy=Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                      max_age=max_age, mx_patterns=("mail.victim.com",))))
    fetcher = PolicyFetcher(world.resolver, world.https_client)
    sender = MtaStsSender("relay.example.net", world.network,
                          world.resolver, world.trust_store, world.clock,
                          fetcher)
    # Prime the sender's cache.
    assert sender.send(Message("a@x", "b@victim.com")).delivered
    return world, deployed, sender


def _migrate_breaking_sts(world, deployed):
    """Move the domain's mail to a new provider whose hostname matches
    no cached mx pattern (the §2.6 hazard scenario)."""
    apply_fault(world, deployed, Fault.OUTDATED_POLICY)
    world.resolver.flush_cache()


def test_ablation_removal_sequences(benchmark):
    """Abrupt removal strands cached senders; the RFC sequence does not."""
    def run():
        outcomes = {}

        # Strategy A: abrupt removal, then immediate migration.
        world, deployed, sender = _world_with_enforce_domain()
        deployed.remove_record()
        deployed.set_policy_text("")
        _migrate_breaking_sts(world, deployed)
        outcomes["abrupt"] = sender.send(
            Message("a@x", "b@victim.com")).status

        # Strategy B: RFC 8461 §2.6 — mode=none policy with a small
        # max_age, new record id, wait out the caches, then remove.
        world, deployed, sender = _world_with_enforce_domain()
        none_policy = Policy(version="STSv1", mode=PolicyMode.NONE,
                             max_age=86400, mx_patterns=())
        deployed.set_policy_text(render_policy(none_policy))
        deployed.set_record("v=STSv1; id=removal2024;")
        world.resolver.flush_cache()
        # Compliant senders refetch on the id bump (cache turns none).
        sender.send(Message("a@x", "b@victim.com"))
        world.clock.advance(Duration(8 * 86400))   # > both max_ages
        deployed.remove_record()
        deployed.set_policy_text("")
        _migrate_breaking_sts(world, deployed)
        outcomes["rfc8461"] = sender.send(
            Message("a@x", "b@victim.com")).status
        return outcomes

    outcomes = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print(paper_row("abrupt removal then migration",
                    "delivery failure", outcomes["abrupt"].value))
    print(paper_row("RFC 8461 removal then migration",
                    "delivered", outcomes["rfc8461"].value))
    assert outcomes["abrupt"] is DeliveryStatus.REFUSED_BY_POLICY
    assert outcomes["rfc8461"] in (DeliveryStatus.DELIVERED,
                                   DeliveryStatus.DELIVERED_PLAINTEXT)


def test_ablation_update_ordering(benchmark):
    """TXT-first updates (23.8% of surveyed operators) let refetching
    senders cache the stale policy; policy-first updates never do."""
    def run():
        outcomes = {}
        new_patterns = ("mx.victim-new.net",)

        # TXT-first: bump the id while the policy still lists old MX.
        world, deployed, sender = _world_with_enforce_domain()
        deployed.set_record("v=STSv1; id=update2;")
        world.resolver.flush_cache()
        sender.send(Message("a@x", "b@victim.com"))   # refetch stale policy
        _migrate_breaking_sts(world, deployed)        # now MX changes
        outcomes["txt-first"] = sender.send(
            Message("a@x", "b@victim.com")).status

        # Policy-first: update the body, then the record.
        world, deployed, sender = _world_with_enforce_domain()
        _migrate_breaking_sts(world, deployed)
        updated = Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                         max_age=7 * 86400,
                         mx_patterns=("mx.victim-mail.net",))
        deployed.set_policy_text(render_policy(updated))
        deployed.set_record("v=STSv1; id=update2;")
        world.resolver.flush_cache()
        outcomes["policy-first"] = sender.send(
            Message("a@x", "b@victim.com")).status
        return outcomes

    outcomes = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print(paper_row("TXT-record-first update", "transient failure window",
                    outcomes["txt-first"].value))
    print(paper_row("policy-file-first update", "delivered",
                    outcomes["policy-first"].value))
    assert outcomes["txt-first"] is DeliveryStatus.REFUSED_BY_POLICY
    assert outcomes["policy-first"] is DeliveryStatus.DELIVERED


def test_ablation_max_age_staleness(benchmark):
    """Larger max_age keeps stale enforce policies lethal for longer."""
    def staleness(max_age, days_later):
        world, deployed, sender = _world_with_enforce_domain(max_age)
        _migrate_breaking_sts(world, deployed)
        world.clock.advance(DAY * days_later)
        return sender.send(Message("a@x", "b@victim.com")).status

    def run():
        table = {}
        for max_age_days in (1, 7, 28):
            for days_later in (2, 10, 30):
                status = staleness(max_age_days * 86400, days_later)
                table[(max_age_days, days_later)] = status
        return table

    table = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    for (max_age_days, days_later), status in sorted(table.items()):
        print(f"  max_age={max_age_days:>2}d, migrated {days_later:>2}d "
              f"ago: {status.value}")
        if days_later > max_age_days:
            # Cache expired; sender refetches the (stale but matching-
            # nothing) policy... and the stale policy still lists the
            # old MX, so refusal persists until the policy is fixed —
            # unless the policy host broke too, degrading to
            # opportunistic delivery.
            assert status in (DeliveryStatus.DELIVERED,
                              DeliveryStatus.REFUSED_BY_POLICY)
        else:
            assert status is DeliveryStatus.REFUSED_BY_POLICY


def test_ablation_optout_strategies(benchmark):
    """Delivery outcome per Table-2 opt-out strategy, for an opted-out
    customer whose policy was enforce-mode."""
    def run():
        outcomes = {}
        for provider in table2_providers():
            world = World()
            domain = f"left-{provider.name.lower()}.com"
            deploy_domain(world, DomainSpec(
                domain=domain, policy_provider=provider,
                policy=Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                              max_age=86400,
                              mx_patterns=(f"mail.{domain}",))))
            provider.customer_opts_out(world, domain)
            world.resolver.flush_cache()
            fetcher = PolicyFetcher(world.resolver, world.https_client)
            sender = MtaStsSender("relay.net", world.network,
                                  world.resolver, world.trust_store,
                                  world.clock, fetcher)
            outcomes[provider.opt_out] = sender.send(
                Message("a@x", f"b@{domain}")).status
        return outcomes

    outcomes = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    for behavior, status in outcomes.items():
        print(f"  {behavior.value:<16} -> {status.value}")
    # NXDOMAIN and empty-file strategies leave mail flowing (senders
    # degrade to opportunistic); stale enforce policies keep delivering
    # only while the MX still matches — they are the latent hazard.
    assert outcomes[OptOutBehavior.NXDOMAIN] is DeliveryStatus.DELIVERED
    assert outcomes[OptOutBehavior.REISSUE_CERT_EMPTY_POLICY] is \
        DeliveryStatus.DELIVERED
    assert outcomes[OptOutBehavior.REISSUE_CERT_STALE_POLICY] is \
        DeliveryStatus.DELIVERED
