"""Sender-side MTA-STS validation measurement (paper §6).

The paper leverages email-security-scans.org: participants send mail
to receiving domains whose MTA-STS/DANE configurations are
deliberately varied, and the platform infers from the observed
deliveries which validations each sender performs.

The reproduction stands up the same style of testbed inside the
simulated world:

* **receiver probes** — MTA-STS-enabled domains in enforce mode whose
  MX presents a certificate that fails PKIX but *matches* the DANE
  TLSA record, plus inverse combinations.  Which probes receive mail
  identifies the sender's validation behaviour;
* **a synthetic sender population** whose behaviour mix reproduces
  §6.2: 94.6% deliver over TLS, 93.2% purely opportunistic, 1.3%
  always require PKIX, 19.6% validate MTA-STS, 29.8% validate DANE,
  203 senders validate both, 62 of those (wrongly) prefer MTA-STS.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Dict, List

from repro.clock import Instant
from repro.core.dane import DaneValidator
from repro.core.fetch import PolicyFetcher
from repro.core.policy import Policy, PolicyMode
from repro.core.sender import MtaStsSender, SenderPolicyConfig
from repro.dns.name import DnsName
from repro.dns.records import TlsaRecord
from repro.ecosystem.deployment import DomainSpec, deploy_domain
from repro.ecosystem.world import World
from repro.smtp.delivery import DeliveryStatus, Message

#: §6.2 anchors.
SENDER_COUNT = 2_394
SHARE_TLS = 0.946
SHARE_PKIX_ALWAYS = 31 / SENDER_COUNT
SHARE_MTA_STS = 469 / SENDER_COUNT
SHARE_DANE = 714 / SENDER_COUNT
SHARE_BOTH = 203 / SENDER_COUNT
SHARE_BOTH_PREFER_STS = 62 / SENDER_COUNT

#: §6.1 dataset-shape anchors: 3,806 deliverability tests across the
#: 2,394 sender domains (Feb 2023 – Nov 2024); of 11,564 recorded MX
#: interactions, outlook.com contributed 26.31% of EHLO responses,
#: google.com 23.03%, and the top-10 operators 60.7% in total.
TEST_COUNT = 3_806
MX_INTERACTION_COUNT = 11_564
OPERATOR_WEIGHTS = {
    "outlook.com": 0.2631, "google.com": 0.2303, "yahoodns.net": 0.045,
    "icloud.com": 0.022, "gmx.net": 0.014, "mailbox.org": 0.010,
    "protonmail.ch": 0.009, "fastmail.com": 0.0075, "zoho.com": 0.0065,
    "mimecast.com": 0.0055,
}


@dataclass(slots=True)
class SenderProfile:
    """One sending domain's transport-security behaviour."""

    identity: str
    uses_tls: bool = True
    require_pkix: bool = False
    validates_mta_sts: bool = False
    validates_dane: bool = False
    prefers_sts_over_dane: bool = False


#: One frozen config per combination of a profile's four flags (in
#: field order, so at most 16), shared by every sender that validates
#: alike.
_policy_config = functools.lru_cache(maxsize=None)(SenderPolicyConfig)


def make_sender(profile: SenderProfile, world: World,
                fetcher: PolicyFetcher, dane: DaneValidator, *,
                reporter=None, record_events: bool = True) -> MtaStsSender:
    """An :class:`MtaStsSender` in *world* that behaves as *profile*
    says: which of MTA-STS and DANE it validates and which it prefers,
    whether it always requires PKIX, and whether it uses TLS at all.
    *fetcher* and *dane* hold no per-sender state, so every sender of
    one world can share them.  *reporter* and *record_events* go to the
    sender unchanged."""
    sender = MtaStsSender(
        profile.identity, world.network, world.resolver,
        world.trust_store, world.clock, fetcher,
        config=_policy_config(
            profile.validates_mta_sts, profile.validates_dane,
            profile.prefers_sts_over_dane, profile.require_pkix),
        dane=dane, reporter=reporter, record_events=record_events)
    sender._mta.opportunistic_tls = profile.uses_tls
    return sender


def synthesize_sender_population(count: int = SENDER_COUNT,
                                 seed: int = 20230201
                                 ) -> List[SenderProfile]:
    """A sender mix matching the §6.2 marginals."""
    rng = random.Random(seed)
    profiles = []
    for index in range(count):
        profile = SenderProfile(identity=f"sender{index:05d}.example")
        profile.uses_tls = rng.random() < SHARE_TLS
        if profile.uses_tls:
            both = rng.random() < SHARE_BOTH
            if both:
                profile.validates_mta_sts = True
                profile.validates_dane = True
                profile.prefers_sts_over_dane = (
                    rng.random() < SHARE_BOTH_PREFER_STS / SHARE_BOTH)
            else:
                profile.validates_mta_sts = (
                    rng.random() < (SHARE_MTA_STS - SHARE_BOTH)
                    / (1 - SHARE_BOTH))
                if not profile.validates_mta_sts:
                    profile.validates_dane = (
                        rng.random() < (SHARE_DANE - SHARE_BOTH)
                        / (1 - SHARE_BOTH - (SHARE_MTA_STS - SHARE_BOTH)))
            profile.require_pkix = rng.random() < SHARE_PKIX_ALWAYS
    # (require_pkix independent of STS/DANE, as observed)
        profiles.append(profile)
    return profiles


@dataclass
class DeliverabilityTest:
    """One recorded test on the platform (§6.1): a sender domain sent
    mail to the testbed at some time, through some MX operator."""

    sender_domain: str
    timestamp: Instant
    mx_operator: str


def synthesize_test_log(profiles: List[SenderProfile],
                        *, seed: int = 20230201
                        ) -> List["DeliverabilityTest"]:
    """A test log with the §6.1 shape: every sender tests at least
    once, a long tail re-tests (3,806 tests over 2,394 senders), and
    the sending infrastructure concentrates on a few large operators
    (60.7% of interactions from the top 10)."""
    rng = random.Random(seed)
    start = Instant.from_date(2023, 2, 1)
    end = Instant.from_date(2024, 11, 1)
    span = end.epoch_seconds - start.epoch_seconds

    operators = list(OPERATOR_WEIGHTS)
    weights = list(OPERATOR_WEIGHTS.values())
    tail_share = 1.0 - sum(weights)

    def pick_operator(sender: SenderProfile) -> str:
        if rng.random() < tail_share:
            return f"mx.{sender.identity}"
        return rng.choices(operators, weights=weights, k=1)[0]

    log: List[DeliverabilityTest] = []
    for profile in profiles:
        log.append(DeliverabilityTest(
            profile.identity,
            Instant(start.epoch_seconds + rng.randrange(span)),
            pick_operator(profile)))
    extra = max(0, TEST_COUNT - len(profiles))
    for _ in range(extra):
        profile = rng.choice(profiles)
        log.append(DeliverabilityTest(
            profile.identity,
            Instant(start.epoch_seconds + rng.randrange(span)),
            pick_operator(profile)))
    log.sort(key=lambda t: t.timestamp)
    return log


def latest_test_per_sender(log: List["DeliverabilityTest"]
                           ) -> Dict[str, "DeliverabilityTest"]:
    """§6.1: "we consider the most recent test per sender domain"."""
    latest: Dict[str, DeliverabilityTest] = {}
    for test in log:
        current = latest.get(test.sender_domain)
        if current is None or test.timestamp > current.timestamp:
            latest[test.sender_domain] = test
    return latest


def operator_concentration(log: List["DeliverabilityTest"],
                           top: int = 10) -> dict:
    """The §6.1 limitation statistics: how much of the interaction
    volume the biggest sending operators account for."""
    from collections import Counter
    counts = Counter(test.mx_operator for test in log)
    total = sum(counts.values())
    top_operators = counts.most_common(top)
    return {
        "total_interactions": total,
        "top_operators": top_operators,
        "top_share": (sum(c for _, c in top_operators) / total
                      if total else 0.0),
    }


@dataclass
class ProbeOutcome:
    """Which of the testbed's receiving probes accepted a sender's mail."""

    sender: str
    delivered_to_sts_trap: bool = False      # enforce + bad PKIX cert
    delivered_to_dane_trap: bool = False     # TLSA mismatch
    delivered_to_pkix_trap: bool = False     # no policy, bad cert
    delivered_plaintext: bool = False
    delivered_to_conflict_probe_mechanism: str = ""

    def classify(self) -> dict:
        """Infer the sender's validation behaviour from deliveries.

        Refusing the sts-trap alone could mean "always requires PKIX";
        a true MTA-STS validator additionally *delivers* to the
        pkix-trap (bad cert but no policy).
        """
        pkix_always = not self.delivered_to_pkix_trap
        return {
            "validates_mta_sts": (not self.delivered_to_sts_trap
                                  and not pkix_always),
            "validates_dane": not self.delivered_to_dane_trap,
            "pkix_always": pkix_always,
            "tls_used": not self.delivered_plaintext,
        }


class SenderSideTestbed:
    """The receiving-side measurement platform."""

    def __init__(self, world: World, *, seed: int = 7):
        self._world = world
        self._rng = random.Random(seed)
        self._fetcher = PolicyFetcher(world.resolver, world.https_client)
        self._dane = DaneValidator(world.resolver, world.dnssec)
        self._probes: Dict[str, str] = {}
        self._build_probes()

    # -- receiving probes ---------------------------------------------------

    def _build_probes(self) -> None:
        """Three receiving domains:

        * ``sts-trap``: enforce-mode MTA-STS whose only MX serves a
          self-signed certificate — compliant MTA-STS validators must
          refuse; everyone else delivers.
        * ``dane-trap``: DNSSEC-secure TLSA record that does NOT match
          the MX certificate (which is PKIX-valid) — DANE validators
          refuse; MTA-STS and opportunistic senders deliver.
        * ``conflict-probe``: both MTA-STS and DANE configured; the MX
          certificate is PKIX-valid but the TLSA record mismatches.
          Correct precedence (DANE first) refuses; the milter bug
          (MTA-STS preferred) delivers — §6.2's 62 senders.
        """
        from repro.ecosystem.misconfig import Fault, apply_fault

        sts_trap = deploy_domain(self._world, DomainSpec(
            domain="sts-trap.com",
            policy=Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                          max_age=86400,
                          mx_patterns=("mail.sts-trap.com",))))
        apply_fault(self._world, sts_trap, Fault.MX_CERT_SELF_SIGNED,
                    mx_index=None)
        self._probes["sts-trap"] = "sts-trap.com"

        dane_trap = deploy_domain(self._world, DomainSpec(
            domain="dane-trap.com", deploy_sts=False))
        self._add_mismatched_tlsa(dane_trap)
        self._probes["dane-trap"] = "dane-trap.com"

        conflict = deploy_domain(self._world, DomainSpec(
            domain="conflict-probe.com",
            policy=Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                          max_age=86400,
                          mx_patterns=("mail.conflict-probe.com",))))
        self._add_mismatched_tlsa(conflict)
        self._probes["conflict"] = "conflict-probe.com"

        # pkix-trap: no MTA-STS, no DANE, self-signed MX certificate.
        # Only the "always require PKIX" senders refuse here; this
        # separates them from MTA-STS validators on the sts-trap.
        pkix_trap = deploy_domain(self._world, DomainSpec(
            domain="pkix-trap.com", deploy_sts=False))
        apply_fault(self._world, pkix_trap, Fault.MX_CERT_SELF_SIGNED,
                    mx_index=None)
        self._probes["pkix-trap"] = "pkix-trap.com"

    def _add_mismatched_tlsa(self, deployed) -> None:
        """Publish a TLSA record that matches no presented key, under a
        DNSSEC-secure chain."""
        for host in deployed.mx_hosts:
            tlsa_name = DnsName.parse(f"_25._tcp.{host.hostname}")
            deployed.zone.add(TlsaRecord(
                tlsa_name, 3600, 3, 1, 1,
                association="0" * 56))
        self._world.dnssec.sign_zone(deployed.zone.apex.text,
                                     publish_ds=True)

    # -- running the campaign ----------------------------------------------------

    def run_probe(self, profile: SenderProfile) -> ProbeOutcome:
        sender = make_sender(profile, self._world, self._fetcher,
                             self._dane)
        outcome = ProbeOutcome(sender=profile.identity)

        sts = sender.send(Message(f"test@{profile.identity}",
                                  "probe@" + self._probes["sts-trap"]))
        outcome.delivered_to_sts_trap = sts.delivered
        outcome.delivered_plaintext = (
            sts.status is DeliveryStatus.DELIVERED_PLAINTEXT)

        dane = sender.send(Message(f"test@{profile.identity}",
                                   "probe@" + self._probes["dane-trap"]))
        outcome.delivered_to_dane_trap = dane.delivered

        pkix = sender.send(Message(f"test@{profile.identity}",
                                   "probe@" + self._probes["pkix-trap"]))
        outcome.delivered_to_pkix_trap = pkix.delivered

        conflict = sender.send(Message(f"test@{profile.identity}",
                                       "probe@" + self._probes["conflict"]))
        if conflict.delivered:
            outcome.delivered_to_conflict_probe_mechanism = \
                sender.last_mechanism
        return outcome

    def run_campaign(self, profiles: List[SenderProfile]) -> dict:
        """§6.2's aggregate table over the whole sender population."""
        outcomes = [self.run_probe(p) for p in profiles]
        inferred = [o.classify() for o in outcomes]
        total = len(profiles)
        tls = sum(1 for o, p in zip(outcomes, profiles) if p.uses_tls)
        sts_validators = sum(1 for i in inferred if i["validates_mta_sts"])
        dane_validators = sum(1 for i in inferred if i["validates_dane"])
        both = sum(1 for i in inferred
                   if i["validates_mta_sts"] and i["validates_dane"])
        # Senders that validate DANE (they refused the dane-trap) yet
        # delivered to the conflict probe via MTA-STS exhibit the
        # not-recommended MTA-STS-over-DANE preference.
        prefer_sts = sum(
            1 for o, i in zip(outcomes, inferred)
            if (o.delivered_to_conflict_probe_mechanism == "mta-sts"
                and i["validates_dane"]))
        pkix_always = sum(1 for i in inferred if i["pkix_always"])
        return {
            "senders": total,
            "tls": tls,
            "pkix_always": pkix_always,
            "mta_sts_validators": sts_validators,
            "dane_validators": dane_validators,
            "both_validators": both,
            "prefer_sts_over_dane": prefer_sts,
        }
