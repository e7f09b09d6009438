"""Inconsistency classification (paper §4.4, Figure 8).

When a domain's policy ``mx`` patterns match none of its actual MX
records, the mismatch is attributed to exactly one of four causes, in
the paper's precedence order:

1. **typo** — some pattern is within Levenshtein distance 3 of an
   actual MX (and it is not merely a TLD swap);
2. **TLD mismatch** — a pattern equals an actual MX up to its
   top-level domain;
3. **3LD+ mismatch** — the registrable domain (eSLD) agrees but extra
   or different labels appear from the third label on (the classic
   case: the ``mta-sts`` label copied into the pattern);
4. **complete domain mismatch** — nothing meaningful overlaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.matching import policy_covers_mx
from repro.dns.name import DnsName, canonical_host, effective_sld, levenshtein
from repro.errors import MismatchClass
from repro.measurement.snapshots import DomainSnapshot

TYPO_MAX_DISTANCE = 3


@dataclass
class MismatchVerdict:
    mismatch: bool
    mismatch_class: Optional[MismatchClass] = None
    evidence: str = ""


def _strip_wildcard(pattern: str) -> str:
    return pattern[2:] if pattern.startswith("*.") else pattern


def _esld_text(hostname: str) -> str:
    name = DnsName.try_parse(hostname)
    if name is None:
        return ""
    sld = effective_sld(name)
    return sld.text if sld is not None else name.text


def _tld(hostname: str) -> str:
    return hostname.rsplit(".", 1)[-1] if "." in hostname else hostname


def classify_mismatch(mx_patterns: Sequence[str],
                      mx_hostnames: Sequence[str]) -> MismatchVerdict:
    """Classify the relationship between patterns and actual MX hosts."""
    # canonical_host (not .lower()) so the classes below agree with
    # policy_covers_mx about which spellings are the same host: lower()
    # keeps U+1E9E ẞ/ß intact while casefold maps both to "ss", the way
    # every other host comparison in the pipeline folds them.
    # A wildcard's "*." prefix passes through canonicalisation intact.
    patterns = [canonical for canonical in
                (canonical_host(p) for p in mx_patterns if p) if canonical]
    hosts = [canonical for canonical in
             (canonical_host(h) for h in mx_hostnames if h) if canonical]
    if not patterns or not hosts:
        return MismatchVerdict(False)
    if any(policy_covers_mx(patterns, h) for h in hosts):
        return MismatchVerdict(False)

    # 1. Typos: small edit distance between a pattern and a host, where
    #    the difference is not purely the TLD.  A wildcard pattern is
    #    compared against the part of the host it would have to match
    #    (the host minus its leftmost label).
    for pattern in patterns:
        bare = _strip_wildcard(pattern)
        wildcard = pattern.startswith("*.")
        for host in hosts:
            if _tld(bare) != _tld(host):
                continue    # TLD swaps are classified separately
            compare_to = host
            if wildcard and "." in host:
                compare_to = host.split(".", 1)[1]
            distance = levenshtein(bare, compare_to, cap=TYPO_MAX_DISTANCE)
            if 0 < distance <= TYPO_MAX_DISTANCE:
                return MismatchVerdict(
                    True, MismatchClass.TYPO,
                    f"{pattern!r} is {distance} edits from {host!r}")

    # 2. TLD mismatch: identical up to the top-level domain.
    for pattern in patterns:
        bare = _strip_wildcard(pattern)
        pattern_head = bare.rsplit(".", 1)[0]
        for host in hosts:
            host_head = host.rsplit(".", 1)[0]
            if pattern_head == host_head and _tld(bare) != _tld(host):
                return MismatchVerdict(
                    True, MismatchClass.TLD,
                    f"{pattern!r} vs {host!r}: TLDs differ")

    # 3. 3LD+: same registrable domain, diverging deeper labels.
    for pattern in patterns:
        bare = _strip_wildcard(pattern)
        pattern_sld = _esld_text(bare)
        if not pattern_sld:
            continue
        for host in hosts:
            if _esld_text(host) == pattern_sld:
                return MismatchVerdict(
                    True, MismatchClass.THREE_LD,
                    f"{pattern!r} and {host!r} share eSLD {pattern_sld!r}")

    # 4. Nothing matches at all.
    return MismatchVerdict(True, MismatchClass.DOMAIN,
                           "no pattern shares a registrable domain "
                           "with any MX")


def classify_snapshot(snap: DomainSnapshot) -> MismatchVerdict:
    """Figure-8 classification for one scanned domain."""
    if not snap.policy_ok or not snap.mx_patterns or not snap.mx_hostnames:
        return MismatchVerdict(False)
    return classify_mismatch(snap.mx_patterns, snap.mx_hostnames)


def mismatch_census(snapshots: List[DomainSnapshot]) -> dict:
    """One month's Figure-8 row: counts per mismatch class plus the
    enforce-mode exposure
    (:func:`~repro.measurement.columnar.mismatch_census_view`)."""
    from repro.measurement.columnar import mismatch_census_view, view_of
    return mismatch_census_view(view_of(snapshots))
