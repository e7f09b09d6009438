"""Managing-entity classification (paper §4.3.1).

Given one month's snapshots, classify who operates each domain's
DNS, MX hosts, and policy server:

* **Heuristic 1 (third party)** — an entity operating infrastructure
  for at least ``third_party_min`` (default 50) distinct domains is a
  provider.  Popularity is tallied over the registrable domain (eSLD)
  of MX/NS hostnames *and* over server IP addresses, since some
  providers give every customer a unique hostname on shared addresses.
  The refinement for "popular but single administrator" groups
  (mx.l.mxascen.com): when every domain behind a popular entity shares
  one identical configuration signature (same MX set, same policy-host
  addresses), the group is one administrator's self-hosted fleet.
* **Heuristic 2 (self-managed)** — an NS or MX sharing the domain's
  own eSLD is self-managed; a policy host serving at most
  ``self_max`` (default 5) domains is self-managed.
* Policy hosts reached via a CNAME pointing at a *different* eSLD are
  third-party (that is what delegation is).

Everything else stays :attr:`ManagingEntity.UNCLASSIFIED`, mirroring
the paper's ~20% unclassifiable share.

The rules live once, on :class:`EntityTallies`, over plain fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dns.name import DnsName, registrable_part
from repro.errors import ManagingEntity
from repro.measurement.snapshots import DomainSnapshot

THIRD_PARTY_MIN = 50
SELF_MAX = 5


@dataclass
class EntityVerdict:
    """Who manages each component of one domain."""

    domain: str
    dns: ManagingEntity = ManagingEntity.UNCLASSIFIED
    mx: ManagingEntity = ManagingEntity.UNCLASSIFIED
    policy: ManagingEntity = ManagingEntity.UNCLASSIFIED
    mx_provider_sld: str = ""
    policy_provider_sld: str = ""

    @property
    def both_outsourced(self) -> bool:
        return (self.mx is ManagingEntity.THIRD_PARTY
                and self.policy is ManagingEntity.THIRD_PARTY)

    @property
    def same_provider(self) -> bool:
        """Whether one provider manages both MX and policy hosting.

        Per §4.5.1 the comparison uses the second label of the policy
        host CNAME target versus the MX records' (``tutanota`` in both
        ``mail.tutanota.de`` and ``mta-sts.tutanota.com``).
        """
        if not self.both_outsourced:
            return False
        if not self.mx_provider_sld or not self.policy_provider_sld:
            return False
        mx_label = self.mx_provider_sld.split(".")[0]
        policy_label = self.policy_provider_sld.split(".")[0]
        return mx_label == policy_label


class EntityTallies:
    """The cross-section counts the heuristics read, and the rules.

    Fed one :meth:`add` per domain of the month (a cross-section holds
    each domain once), so every count is a number of distinct domains;
    a value never tallied counts zero.  The three rule methods are the
    only implementation of §4.3.1: :class:`EntityClassifier` calls
    them on snapshot objects and the column builder
    (:mod:`repro.measurement.columnar`) on shard rows.  Every eSLD list
    argument is sorted and free of duplicates and empty strings
    (:func:`eslds`).
    """

    def __init__(self, third_party_min: int = THIRD_PARTY_MIN,
                 self_max: int = SELF_MAX):
        self.third_party_min = third_party_min
        self.self_max = self_max
        self.mx_sld: Dict[str, int] = {}
        self.mx_ip: Dict[str, int] = {}
        self.ns_sld: Dict[str, int] = {}
        #: policy-host address -> the sorted MX set of each domain on it
        self.policy_ip: Dict[str, List[Tuple[str, ...]]] = {}
        #: MX eSLD -> the configuration signatures of its domains
        self.signatures: Dict[str, set] = {}

    def add(self, mx_slds: List[str], mx_ips: Iterable[str],
            ns_slds: Iterable[str], mx_hostnames: Iterable[str],
            policy_addresses: Iterable[str], delegated: bool) -> None:
        """Tally one domain; *delegated*: its policy host is a CNAME."""
        for sld in mx_slds:
            self.mx_sld[sld] = self.mx_sld.get(sld, 0) + 1
        for ip in set(mx_ips):
            self.mx_ip[ip] = self.mx_ip.get(ip, 0) + 1
        for sld in ns_slds:
            self.ns_sld[sld] = self.ns_sld.get(sld, 0) + 1
        mx_set = tuple(sorted(mx_hostnames))
        for ip in set(policy_addresses):
            self.policy_ip.setdefault(ip, []).append(mx_set)
        signature = (mx_set, tuple(sorted(policy_addresses)), delegated)
        for sld in mx_slds:
            self.signatures.setdefault(sld, set()).add(signature)

    def dns_entity(self, own: str, ns_slds: List[str]) -> ManagingEntity:
        if not ns_slds:
            return ManagingEntity.UNCLASSIFIED
        if own in ns_slds:
            return ManagingEntity.SELF_MANAGED
        if any(self.ns_sld.get(sld, 0) >= self.third_party_min
               for sld in ns_slds):
            return ManagingEntity.THIRD_PARTY
        return ManagingEntity.UNCLASSIFIED

    def mx_entity(self, own: str, mx_slds: List[str],
                  mx_ips: Iterable[str]) -> Tuple[ManagingEntity, str]:
        """The MX verdict and, for a third party, its eSLD."""
        if not mx_slds:
            return ManagingEntity.UNCLASSIFIED, ""
        # Heuristic 2: MX under the domain's own eSLD is self-managed.
        if all(sld == own for sld in mx_slds):
            return ManagingEntity.SELF_MANAGED, ""
        ip_popularity = max((self.mx_ip.get(ip, 0) for ip in mx_ips),
                            default=0)
        popular = [sld for sld in mx_slds
                   if self.mx_sld.get(sld, 0) >= self.third_party_min
                   or ip_popularity >= self.third_party_min]
        if popular:
            sld = popular[0]
            # The single-administrator refinement: one configuration
            # signature across the entire popular group, and no CNAME
            # delegation (genuine providers take policy hosting via
            # CNAME; a lone admin's fleet points A records at itself).
            signatures = self.signatures.get(sld, set())
            if len(signatures) == 1 and not next(iter(signatures))[2]:
                return ManagingEntity.SELF_MANAGED, ""
            return ManagingEntity.THIRD_PARTY, sld
        if all(self.mx_sld.get(sld, 0) <= self.self_max for sld in mx_slds):
            return ManagingEntity.SELF_MANAGED, ""
        return ManagingEntity.UNCLASSIFIED, ""

    def policy_entity(self, own: str, sts_like: bool,
                      cname_sld: Optional[str],
                      policy_addresses: List[str],
                      ) -> Tuple[ManagingEntity, str]:
        """The policy-host verdict and, for a CNAME delegation, the
        target's eSLD.  *cname_sld* is ``None`` without a CNAME."""
        if not sts_like:
            return ManagingEntity.UNCLASSIFIED, ""
        if cname_sld is not None:
            if cname_sld and cname_sld != own:
                return ManagingEntity.THIRD_PARTY, cname_sld
            return ManagingEntity.SELF_MANAGED, ""
        if not policy_addresses:
            # Unresolvable policy host: judged by who runs the DNS zone
            # content — an A record the owner forgot counts as self.
            return ManagingEntity.SELF_MANAGED, ""
        popularity = max(len(self.policy_ip.get(ip, ()))
                         for ip in policy_addresses)
        if popularity >= self.third_party_min:
            # One administrator when every domain on these addresses
            # shares one MX set.
            mx_sets = {mx_set for ip in policy_addresses
                       for mx_set in self.policy_ip.get(ip, ())}
            if len(mx_sets) == 1:
                return ManagingEntity.SELF_MANAGED, ""
            return ManagingEntity.THIRD_PARTY, ""
        if popularity <= self.self_max:
            return ManagingEntity.SELF_MANAGED, ""
        return ManagingEntity.UNCLASSIFIED, ""


class EntityClassifier:
    """Classifies one month's snapshot cross-section."""

    def __init__(self, snapshots: List[DomainSnapshot],
                 *, third_party_min: int = THIRD_PARTY_MIN,
                 self_max: int = SELF_MAX):
        self._snapshots = snapshots
        self._tallies = EntityTallies(third_party_min, self_max)
        for snap in snapshots:
            self._tallies.add(
                eslds(snap.mx_hostnames), _mx_addresses(snap),
                eslds(snap.ns_hostnames), snap.mx_hostnames,
                snap.policy_host_addresses,
                snap.policy_host_cname is not None)

    def classify(self, snap: DomainSnapshot) -> EntityVerdict:
        own = registrable_part(snap.domain)
        tallies = self._tallies
        mx, mx_sld = tallies.mx_entity(own, eslds(snap.mx_hostnames),
                                       _mx_addresses(snap))
        cname = snap.policy_host_cname
        policy, policy_sld = tallies.policy_entity(
            own, snap.sts_like, _esld(cname) if cname else None,
            snap.policy_host_addresses)
        return EntityVerdict(
            domain=snap.domain,
            dns=tallies.dns_entity(own, eslds(snap.ns_hostnames)),
            mx=mx, policy=policy,
            mx_provider_sld=mx_sld, policy_provider_sld=policy_sld)

    def classify_all(self) -> Dict[str, EntityVerdict]:
        return {snap.domain: self.classify(snap)
                for snap in self._snapshots}


def eslds(hostnames: Iterable[str], esld=None) -> List[str]:
    """The sorted distinct eSLDs of *hostnames* (unparsable ones
    dropped); *esld* substitutes a memoised :func:`_esld`."""
    esld = esld or _esld
    return sorted({esld(host) for host in hostnames} - {""})


def _mx_addresses(snap: DomainSnapshot) -> List[str]:
    return [ip for obs in snap.mx_observations for ip in obs.addresses]


def _esld(hostname: str) -> str:
    name = DnsName.try_parse(hostname)
    if name is None:
        return ""
    from repro.dns.name import effective_sld
    sld = effective_sld(name)
    return sld.text if sld is not None else name.text
