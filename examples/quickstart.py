"""Quickstart: deploy, validate, and send to an MTA-STS domain.

Builds a tiny simulated internet, stands up ``example.com`` with a
full MTA-STS stack (DNS record, HTTPS policy host, STARTTLS-capable
MX), assesses its health with the paper's scanner, and then delivers
a message with an RFC 8461-compliant sender — including what happens
when the domain breaks.

Run:  python examples/quickstart.py
"""

from repro.core.fetch import PolicyFetcher
from repro.core.policy import Policy, PolicyMode
from repro.core.sender import MtaStsSender
from repro.ecosystem.deployment import DomainSpec, deploy_domain
from repro.ecosystem.misconfig import Fault, apply_fault
from repro.ecosystem.world import World
from repro.measurement.scanner import Scanner
from repro.measurement.taxonomy import categorize, delivery_failure_expected
from repro.smtp.delivery import Message


def main() -> None:
    # 1. A simulated internet: TLD registries, a trusted CA, clients.
    world = World()

    # 2. Deploy example.com: self-managed MX + policy host, enforce mode.
    policy = Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                    max_age=7 * 86400, mx_patterns=("mail.example.com",))
    deployed = deploy_domain(world, DomainSpec(domain="example.com",
                                               policy=policy))
    print("deployed example.com")
    print("  MX records :", deployed.mx_record_hostnames())
    print("  policy     :", deployed.policy_text.strip().splitlines())

    # 3. Scan it like the paper does: record, policy, MX certificates.
    scanner = Scanner(world)
    snapshot = scanner.scan_domain("example.com", 0)
    print("assessment")
    print("  record valid        :", snapshot.record_valid)
    print("  policy retrievable  :", snapshot.policy_retrieval_ok)
    print("  MX certificates OK  :", not snapshot.any_invalid_mx_cert)
    print("  patterns consistent :", snapshot.consistent)
    print("  misconfigured       :", bool(categorize(snapshot)))

    # 4. Send a message with a compliant sender (fetch, cache, enforce).
    fetcher = PolicyFetcher(world.resolver, world.https_client)
    sender = MtaStsSender("relay.sender.net", world.network, world.resolver,
                          world.trust_store, world.clock, fetcher)
    attempt = sender.send(Message("alice@sender.net", "bob@example.com"))
    print("delivery:", attempt.status.value,
          "| mechanism:", sender.last_mechanism)

    # 5. Break the MX certificate; enforce mode now refuses delivery.
    apply_fault(world, deployed, Fault.MX_CERT_SELF_SIGNED, mx_index=None)
    attempt = sender.send(Message("alice@sender.net", "bob@example.com"))
    print("after breaking the MX certificate:", attempt.status.value)
    for event in sender.events[-2:]:
        print("  sender event:", event.mechanism, event.action, event.detail)

    # 6. The scanner sees the same thing.
    snapshot = scanner.scan_domain("example.com", 0)
    print("re-assessment: categories =",
          [c.value for c in categorize(snapshot)],
          "| delivery failure expected =",
          delivery_failure_expected(snapshot))


if __name__ == "__main__":
    main()
