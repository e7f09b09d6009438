"""The objects a world and the delivery engine hold in bulk are lean.

A world build creates a few dozen objects per deployed domain (records,
names, addresses, certificates, listeners, servers) and the delivery
engine a dozen per sender lane, plus some per message; at the paper's
scale these set the memory limit.  Every such class is slotted, so an
instance carries no ``__dict__``, and a :class:`DnsName` holds only its
text and that text's hash: its labels are derived on demand.  The
property test checks the text-only name against the labels-tuple
implementation it replaced, kept here as the reference.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.name import (
    DEFAULT_MULTI_LABEL_SUFFIXES, DnsName, effective_sld,
)
from repro.measurement.delivery_campaign import (
    DeliveryCampaignConfig, run_delivery_campaign,
)

#: Live instances of one class at which an instance ``__dict__`` fails
#: the walk.
BULK = 50

#: Classes allowed to keep an instance ``__dict__`` in bulk, each with
#: its reason.  Scan snapshots (``DomainSnapshot``, ``MxObservation``)
#: stay unslotted on purpose, since ``to_dict`` copies their
#: ``__dict__`` in C, but a delivery campaign makes none.
EXEMPT: Dict[str, str] = {}


def _bulk_classes_with_dict() -> Dict[str, int]:
    """Classes defined in ``repro`` with at least :data:`BULK` live
    instances that carry an instance ``__dict__``, counted after a
    collection so that garbage (an earlier test's world, say) does not
    count."""
    gc.collect()
    counts: Counter = Counter(type(obj) for obj in gc.get_objects())
    return {f"{cls.__module__}.{cls.__qualname__}": count
            for cls, count in counts.items()
            if count >= BULK and cls.__module__.startswith("repro.")
            and cls.__dictoffset__ != 0}


def test_delivery_campaign_holds_no_bulk_instance_dicts():
    offenders: Dict[str, int] = {}
    walks = []

    def progress(event) -> None:
        walks.append(event)
        for name, count in _bulk_classes_with_dict().items():
            if name not in EXEMPT:
                offenders[name] = max(count, offenders.get(name, 0))

    config = DeliveryCampaignConfig(
        scale=0.004, month_index=3, senders=200, messages_per_sender=1,
        tlsrpt=True, fault_seed=4242, fault_rate=0.2)
    result = run_delivery_campaign(config, progress=progress)
    assert walks and result.stats.messages == 200
    assert not offenders, (
        "slot these classes, or exempt them with a reason: "
        + ", ".join(f"{name} ({count} live)"
                    for name, count in sorted(offenders.items())))


def test_a_name_holds_its_text_and_hash_only():
    name = DnsName.parse("mta-sts.mail.example.co.uk")
    assert not hasattr(name, "__dict__")
    referents = gc.get_referents(name)
    assert not any(isinstance(obj, (tuple, list)) for obj in referents)
    assert {id(obj) for obj in referents} <= {
        id(DnsName), id(name.text), id(name._hash)}
    assert name.labels == ("mta-sts", "mail", "example", "co", "uk")


# ---------------------------------------------------------------------------
# The labels-tuple DnsName the text-only one replaced, as the reference
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class _LabelsName:
    labels: Tuple[str, ...]
    text: str = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        text = ".".join(self.labels)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "_hash", hash(text))

    def __hash__(self) -> int:
        return self._hash

    def label_count(self) -> int:
        return len(self.labels)

    def parent(self) -> "_LabelsName":
        if len(self.labels) <= 1:
            raise ValueError(f"{self.text!r} has no parent")
        return _LabelsName(self.labels[1:])

    def child(self, label: str) -> "_LabelsName":
        return _LabelsName((label,) + self.labels)

    def tld(self) -> str:
        return self.labels[-1]

    def is_subdomain_of(self, other: "_LabelsName") -> bool:
        n = len(other.labels)
        return len(self.labels) >= n and self.labels[-n:] == other.labels


def _reference_sld(name: _LabelsName, suffixes: Iterable[str]):
    suffix_len = 1
    if len(name.labels) >= 2 and ".".join(name.labels[-2:]) in suffixes:
        suffix_len = 2
    if len(name.labels) <= suffix_len:
        return None
    return _LabelsName(name.labels[-(suffix_len + 1):])


def _same(name, reference) -> bool:
    if name is None or reference is None:
        return name is None and reference is None
    return name.labels == reference.labels and name.text == reference.text


# Few distinct labels, so equal names, shared suffixes and public
# suffixes come up often; '-', '_' and digits sort before and after '.'
# differently in text than in label tuples.
label = st.one_of(
    st.sampled_from(["a", "b", "ab", "a-b", "a0", "_x", "co", "uk", "com",
                     "mail", "*"]),
    st.from_regex(r"[a-z0-9_]([a-z0-9_-]{0,4}[a-z0-9_])?", fullmatch=True))
labels = st.lists(label, min_size=1, max_size=5).map(tuple)
SUFFIX_SETS = (DEFAULT_MULTI_LABEL_SUFFIXES,
               frozenset({"a.com", "co.uk", "b.a"}))


@settings(max_examples=400, deadline=None)
@given(labels, labels, label)
def test_text_only_name_matches_the_labels_tuple_reference(
        first, second, extra):
    a, b = DnsName.parse(".".join(first)), DnsName(second)
    ra, rb = _LabelsName(first), _LabelsName(second)

    assert a == DnsName(first) and hash(a) == hash(DnsName(first))
    assert (a == b) == (ra == rb) and (a != b) == (ra != rb)
    assert hash(a) == hash(ra) and hash(b) == hash(rb)
    assert (a < b) == (ra < rb) and (a <= b) == (ra <= rb)
    assert (a > b) == (ra > rb) and (a >= b) == (ra >= rb)
    assert [n.labels for n in sorted([a, b, a.child(extra)])] == \
        [n.labels for n in sorted([ra, rb, ra.child(extra)])]

    for name, reference in ((a, ra), (b, rb)):
        assert name.labels == reference.labels
        assert name.text == reference.text
        assert repr(name) == repr(reference).replace(
            "_LabelsName", "DnsName", 1)
        assert name.label_count() == reference.label_count()
        assert name.tld() == reference.tld()
        assert _same(name.child(extra), reference.child(extra))
        if reference.label_count() > 1:
            assert _same(name.parent(), reference.parent())
        else:
            try:
                name.parent()
            except ValueError:
                pass
            else:
                raise AssertionError(f"{name!r} has a parent")
        for suffixes in SUFFIX_SETS:
            assert _same(effective_sld(name, suffixes),
                         _reference_sld(reference, suffixes))
    joined, rjoined = DnsName(first + second), _LabelsName(first + second)
    for x, y, rx, ry in ((a, b, ra, rb), (joined, b, rjoined, rb),
                         (joined, a, rjoined, ra)):
        assert x.is_subdomain_of(y) == rx.is_subdomain_of(ry)
        assert y.is_subdomain_of(x) == ry.is_subdomain_of(rx)
