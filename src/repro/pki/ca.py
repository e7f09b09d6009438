"""Certificate authorities and trust stores."""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.clock import DAY, Clock
from repro.pki.certificate import Certificate, CertTemplate
from repro.pki.keys import KeyPair

#: Validity of a CA's self-signed root.
ROOT_LIFETIME_DAYS = 3650


class TrustStore:
    """The set of root certificates a client trusts."""

    def __init__(self, roots: Optional[List[Certificate]] = None):
        self._roots: Dict[str, Certificate] = {}
        #: Bumped on every root change; the chain-validation cache in
        #: :mod:`repro.pki.validation` keys on it so a mutated store
        #: never serves stale verdicts.
        self.generation = 0
        for root in roots or []:
            self.add_root(root)

    def add_root(self, root: Certificate) -> None:
        if not root.is_ca:
            raise ValueError("trust anchors must be CA certificates")
        self._roots[root.cert_fingerprint()] = root
        self.generation += 1

    def remove_root(self, root: Certificate) -> None:
        self._roots.pop(root.cert_fingerprint(), None)
        self.generation += 1

    def is_trusted_root(self, cert: Certificate) -> bool:
        return cert.cert_fingerprint() in self._roots

    def find_issuer(self, cert: Certificate) -> Optional[Certificate]:
        for root in self._roots.values():
            if (root.subject_cn == cert.issuer_cn
                    and root.key == cert.issuer_key):
                return root
        return None

    def roots(self) -> List[Certificate]:
        return list(self._roots.values())


class CertificateAuthority:
    """A simulated CA: a self-signed root that issues leaf certificates.

    Intermediates are not modelled — the paper's error classes never
    depend on chain depth, only on trust, names, and validity.
    """

    def __init__(self, name: str, clock: Clock):
        self.name = name
        self._clock = clock
        self.key = KeyPair(label=f"ca:{name}")
        now = clock.now()
        root = Certificate(
            subject_cn=name,
            san=(),
            key=self.key,
            issuer_cn=name,
            issuer_key=self.key,
            not_before=now,
            not_after=now + DAY * ROOT_LIFETIME_DAYS,
            is_ca=True,
        )
        self.root = replace(root, signature=self.key.sign(root.tbs_payload()))
        self.issued_count = 0

    def issue(self, template: CertTemplate,
              *, backdate_days: int = 0) -> Certificate:
        """Issue a leaf certificate for the template's names.

        *backdate_days* shifts the validity window into the past, which
        lets tests and the misconfiguration injector mint certificates
        that are already expired at simulation time.
        """
        now = self._clock.now() - DAY * backdate_days
        key = template.key or KeyPair(label=f"leaf:{template.primary_name()}")
        cert = Certificate(
            subject_cn=template.primary_name(),
            san=tuple(template.names),
            key=key,
            issuer_cn=self.name,
            issuer_key=self.key,
            not_before=now,
            not_after=now + DAY * template.lifetime_days,
        )
        self.issued_count += 1
        return replace(cert, signature=self.key.sign(cert.tbs_payload()))

    def revoke(self, cert: Certificate) -> Certificate:
        return replace(cert, revoked=True)
