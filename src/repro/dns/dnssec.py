"""Simulated DNSSEC.

DANE — the paper's constant point of comparison — requires a DNSSEC
chain of trust from the root to the TLSA record.  The simulation does
not model real cryptography; instead each zone carries a signing state
and a parent link (the DS record's presence), and validation walks the
chain exactly as a validating resolver would classify it:

* **secure** — every zone from the root to the queried zone is signed
  and each child's DS is published in its parent;
* **insecure** — some parent has no DS for the child (an unsigned
  delegation), which is safe but disables DANE;
* **bogus** — a zone claims to be signed but its chain is broken
  (missing/mismatched DS, expired signatures), which a validating
  resolver must treat as SERVFAIL.

This is enough to reproduce the operational facts the paper leans on:
DANE's dependency on DNSSEC (about 4% global deployment) and the
survey respondents whose registrar or authoritative server "lacked
DNSSEC support".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.dns.name import DnsName


class ChainStatus(enum.Enum):
    SECURE = "secure"
    INSECURE = "insecure"
    BOGUS = "bogus"


@dataclass
class ZoneSigningState:
    """DNSSEC posture of one zone."""

    apex: DnsName
    signed: bool = False
    ds_in_parent: bool = False       # parent publishes a matching DS
    ds_mismatch: bool = False        # parent publishes a stale/wrong DS
    signatures_expired: bool = False


class DnssecAuthority:
    """Tracks signing state for every zone in the simulation."""

    def __init__(self):
        #: apex text -> signing state; the root is implicit
        self._zones: Dict[str, ZoneSigningState] = {}

    def set_state(self, state: ZoneSigningState) -> None:
        self._zones[state.apex.text] = state

    def sign_zone(self, apex: DnsName | str, *,
                  publish_ds: bool = True) -> ZoneSigningState:
        if isinstance(apex, str):
            apex = DnsName.parse(apex)
        state = ZoneSigningState(apex, signed=True, ds_in_parent=publish_ds)
        self._zones[apex.text] = state
        return state

    def state_for(self, apex: DnsName) -> Optional[ZoneSigningState]:
        return self._zones.get(apex.text)

    def chain_for(self, name: DnsName) -> list[ZoneSigningState]:
        """Zone states from the TLD down to the closest enclosing zone:
        the suffixes of the name's text, shortest first."""
        chain: list[ZoneSigningState] = []
        text = name.text
        dot = len(text)
        while dot >= 0:
            dot = text.rfind(".", 0, dot)
            state = self._zones.get(text[dot + 1:])
            if state is not None:
                chain.append(state)
        return chain

    def validate(self, name: DnsName | str) -> ChainStatus:
        """Classify the chain of trust covering *name*.

        The walk starts at the TLD (the simulated root always signs and
        publishes TLD DS records) and descends.  The first unsigned
        delegation renders everything below *insecure*; any signed zone
        with a missing/mismatched DS while its parent is secure, or with
        expired signatures, is *bogus*.
        """
        if isinstance(name, str):
            name = DnsName.parse(name)
        chain = self.chain_for(name)
        if not chain:
            return ChainStatus.INSECURE
        status = ChainStatus.SECURE
        for state in chain:
            if status is ChainStatus.INSECURE:
                # Below an insecure delegation nothing can become secure
                # again (no trust anchor), but it cannot be bogus either.
                continue
            if not state.signed:
                status = ChainStatus.INSECURE
                continue
            if state.signatures_expired or state.ds_mismatch:
                return ChainStatus.BOGUS
            if not state.ds_in_parent:
                # Signed zone, but the parent never got the DS: the
                # delegation is insecure from the validator's viewpoint.
                status = ChainStatus.INSECURE
        # The deepest registered zone must reach past the public suffix:
        # a name under a signed TLD whose own zone never registered a
        # signing state is an unsigned (insecure) delegation.
        deepest = chain[-1]
        if (status is ChainStatus.SECURE
                and deepest.apex.label_count() == 1
                and name.label_count() > 1):
            return ChainStatus.INSECURE
        return status
