"""DNS name handling.

Names are case-insensitive sequences of labels.  The measurement
pipeline leans heavily on two derived notions:

* the **effective second-level domain** (eSLD), used by the paper's
  Heuristic 1/2 to decide whether an MX or NS host "belongs to" the
  scanned domain or to a provider; and
* label arithmetic (parent, subdomain-of, label count) used by the
  mx-pattern mismatch classifier (Figure 8's TLD / domain / 3LD+
  classes).

A small embedded public-suffix list covers the TLDs and multi-label
suffixes the simulation uses; it is intentionally not the full PSL —
the library accepts an extended suffix set for users who need one.
"""

from __future__ import annotations

import functools
import re
from dataclasses import FrozenInstanceError
from typing import Iterable, Mapping, Tuple, TypeVar

V = TypeVar("V")

_LABEL_RE = re.compile(r"^[a-z0-9_*]([a-z0-9_-]*[a-z0-9_])?$")


def canonical_host(host: "str | DnsName") -> str:
    """Canonicalise a hostname for comparison and lookup.

    Strips surrounding whitespace and the trailing root dot, then
    case-folds (``casefold`` rather than ``lower`` so names containing
    characters with non-trivial case mappings — dotted capital I, sharp
    s — canonicalise the same way everywhere).  Returns ``""`` for
    anything that is not a plausible host: empty input, the bare root
    ``"."``, or a name with an empty label (``"a..b"``).

    Every host comparison in the pipeline funnels through here (or
    through :meth:`DnsName.parse`, which applies the same folding), so
    mx-pattern matching, policy fetching, and probe caching can never
    disagree about whether two spellings are the same host.
    """
    text = host.text if isinstance(host, DnsName) else host
    text = text.strip().rstrip(".").casefold()
    # An empty label survives the trailing-dot strip only as a leading
    # dot or a ".." run; substring checks beat splitting on the scan
    # hot path.
    if not text or text.startswith(".") or ".." in text:
        return ""
    return text

#: Multi-label public suffixes known to the simulation, beyond plain TLDs.
DEFAULT_MULTI_LABEL_SUFFIXES = frozenset({
    "co.uk", "org.uk", "ac.uk", "com.au", "net.au", "co.jp", "or.jp",
    "com.br", "co.nz", "co.za", "com.mx",
})


@functools.total_ordering
class DnsName:
    """A fully-qualified DNS name, stored lowercase without a root dot.

    A name holds its dotted ``text`` and that text's hash and nothing
    else: every resolver, zone and delegation lookup reads those two,
    and a world holds thousands of names whose labels repeat across
    names.  :attr:`labels` is derived from the text on each read, for
    the label arithmetic that needs it.  Equality and the hash are the
    text's; ordering is by the label tuple, which text order does not
    follow (``("a", "com") < ("a-b", "com")``, while ``"a-b.com" <
    "a.com"``).  Names are immutable.
    """

    __slots__ = ("text", "_hash")

    def __init__(self, labels: Iterable[str]) -> None:
        _set_text(self, ".".join(labels))

    @classmethod
    def parse(cls, text: str) -> "DnsName":
        text = text.strip().rstrip(".").casefold()
        if not text:
            raise ValueError("empty DNS name")
        for label in text.split("."):
            if not label:
                raise ValueError(f"empty label in {text!r}")
            if len(label) > 63:
                raise ValueError(f"label too long in {text!r}")
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label {label!r} in {text!r}")
        # Every label plus its dot: the canonical text plus the root dot.
        if len(text) + 1 > 254:
            raise ValueError(f"name too long: {text!r}")
        return _from_text(text)

    @classmethod
    def try_parse(cls, text: str) -> "DnsName | None":
        try:
            return cls.parse(text)
        except ValueError:
            return None

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(self.text.split("."))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DnsName:
            return NotImplemented
        return self.text == other.text  # type: ignore[attr-defined]

    def __lt__(self, other: "DnsName") -> bool:
        if other.__class__ is not DnsName:
            return NotImplemented
        return self.text.split(".") < other.text.split(".")

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuilt from its text: a str hash differs between processes.
        return _from_text, (self.text,)

    def __repr__(self) -> str:
        return f"DnsName(labels={self.labels!r})"

    def __str__(self) -> str:
        return self.text

    # -- label arithmetic ----------------------------------------------

    def label_count(self) -> int:
        return self.text.count(".") + 1

    def parent(self) -> "DnsName":
        dot = self.text.find(".")
        if dot < 0:
            raise ValueError(f"{self.text!r} has no parent")
        return _from_text(self.text[dot + 1:])

    def child(self, label: str) -> "DnsName":
        return DnsName.parse(f"{label}.{self.text}")

    def tld(self) -> str:
        return self.text.rpartition(".")[2]

    def is_subdomain_of(self, other: "DnsName") -> bool:
        """True if *self* equals *other* or sits underneath it."""
        text, suffix = self.text, other.text
        return text == suffix or (text.endswith(suffix)
                                  and text[-len(suffix) - 1] == ".")


def _from_text(text: str) -> DnsName:
    """The name whose dotted text is *text*, which is already canonical
    (a parsed name's text, or a suffix of one)."""
    name = object.__new__(DnsName)
    _set_text(name, text)
    return name


def _set_text(name: DnsName, text: str) -> None:
    object.__setattr__(name, "text", text)
    object.__setattr__(name, "_hash", hash(text))


def longest_suffix_match(table: Mapping[str, V], name: DnsName) -> V | None:
    """*table*'s value for the longest suffix of *name* (itself
    included) that it holds, keyed by name text: O(labels) probes
    instead of a scan of the table."""
    text = name.text
    while True:
        value = table.get(text)
        if value is not None:
            return value
        dot = text.find(".")
        if dot < 0:
            return None
        text = text[dot + 1:]


def effective_sld(name: DnsName | str,
                  multi_label_suffixes: Iterable[str] = DEFAULT_MULTI_LABEL_SUFFIXES,
                  ) -> "DnsName | None":
    """The registrable domain (public suffix plus one label).

    Returns ``None`` when *name* is itself a public suffix (no
    registrable part), mirroring how the paper tallies "effective SLDs
    for each MX and NS entry".  The public suffix is the last two
    labels when *multi_label_suffixes* holds them, else the last one.
    """
    if isinstance(name, str):
        name = DnsName.parse(name)
    text = name.text
    last = text.rfind(".")
    if last < 0:
        return None
    second = text.rfind(".", 0, last)
    last_two = text[second + 1:]
    if last_two not in multi_label_suffixes:
        return _from_text(last_two)
    if second < 0:
        return None
    return _from_text(text[text.rfind(".", 0, second) + 1:])


def registrable_part(name: DnsName | str) -> str:
    """The eSLD as text, the name itself if it is a bare public
    suffix, or ``""`` for a string that is not a DNS name."""
    if isinstance(name, str):
        name = DnsName.try_parse(name)
        if name is None:
            return ""
    sld = effective_sld(name)
    return (sld or name).text


def levenshtein(a: str, b: str, *, cap: int | None = None) -> int:
    """Edit distance between two strings, optionally capped.

    Used by the typo classifier (Figure 8): mismatched mx patterns with
    edit distance <= 3 to an actual MX are counted as typographical
    errors.  With *cap* set, computation stops early and returns
    ``cap + 1`` when the distance is known to exceed the cap.
    """
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    if cap is not None and len(b) - len(a) > cap:
        return cap + 1
    previous = list(range(len(a) + 1))
    for j, cb in enumerate(b, start=1):
        current = [j]
        best = j
        for i, ca in enumerate(a, start=1):
            cost = 0 if ca == cb else 1
            value = min(previous[i] + 1, current[i - 1] + 1,
                        previous[i - 1] + cost)
            current.append(value)
            best = min(best, value)
        if cap is not None and best > cap:
            return cap + 1
        previous = current
    return previous[-1]
