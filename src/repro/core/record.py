"""The ``_mta-sts`` TXT record (RFC 8461 §3.1).

The record signals MTA-STS support and carries a policy *id* that
changes whenever the policy file changes.  The paper's §4.3.2 error
classes map one-to-one onto :class:`~repro.errors.StsRecordError`:

* no ``id`` field (19.6% of broken records);
* an ``id`` containing characters outside ``[A-Za-z0-9]`` — e.g. a
  hyphen — (61%);
* a version prefix other than ``v=STSv1`` (15.7%);
* malformed extension fields (2 domains), such as using ``:`` as the
  key/value separator.

Validity rules implemented here, per the RFC:

1. the record must begin with ``v=STSv1``;
2. at most one TXT record starting with ``v=STSv1`` may exist —
   otherwise MTA-STS is treated as not deployed;
3. an ``id`` field must be present, 1–32 alphanumeric characters;
4. additional key/value pairs are permitted when they satisfy the
   RFC's ABNF (``sts-ext-name "=" sts-ext-value``).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import RecordError, StsRecordError

_ID_RE = re.compile(r"^[A-Za-z0-9]{1,32}$")
_EXT_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,31}$")
# sts-ext-value per RFC 8461: printable US-ASCII minus '=', ';', and space.
_EXT_VALUE_RE = re.compile(r"^[\x21-\x3a\x3c\x3e-\x7e]+$")


@dataclass(frozen=True, slots=True)
class StsRecord:
    """A parsed, valid MTA-STS TXT record."""

    version: str
    id: str
    extensions: Tuple[Tuple[str, str], ...] = ()

    def render(self) -> str:
        parts = [f"v={self.version}", f"id={self.id}"]
        parts.extend(f"{k}={v}" for k, v in self.extensions)
        return "; ".join(parts) + ";"


def parse_sts_record(text: str) -> StsRecord:
    """Parse one TXT string into an :class:`StsRecord`.

    Raises :class:`~repro.errors.RecordError` with the precise
    §4.3.2 failure class on any violation.
    """
    stripped = text.strip()
    if not stripped.startswith("v=STSv1"):
        raise RecordError(StsRecordError.BAD_VERSION,
                          f"record does not begin with v=STSv1: {text!r}")

    pairs: List[Tuple[str, str]] = []
    for chunk in stripped.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise RecordError(StsRecordError.INVALID_EXTENSION,
                              f"field without '=': {chunk!r}")
        key, _, value = chunk.partition("=")
        pairs.append((key.strip(), value.strip()))

    if not pairs or pairs[0] != ("v", "STSv1"):
        raise RecordError(StsRecordError.BAD_VERSION,
                          f"first field must be v=STSv1: {text!r}")

    record_id: Optional[str] = None
    extensions: List[Tuple[str, str]] = []
    for key, value in pairs[1:]:
        if key == "id":
            if record_id is not None:
                raise RecordError(StsRecordError.INVALID_EXTENSION,
                                  "duplicate id field")
            record_id = value
            continue
        if key == "v":
            raise RecordError(StsRecordError.INVALID_EXTENSION,
                              "duplicate v field")
        if not _EXT_NAME_RE.match(key) or not value or not _EXT_VALUE_RE.match(value):
            raise RecordError(StsRecordError.INVALID_EXTENSION,
                              f"invalid extension {key!r}={value!r}")
        extensions.append((key, value))

    if record_id is None:
        raise RecordError(StsRecordError.MISSING_ID, "no id field")
    if not _ID_RE.match(record_id):
        raise RecordError(StsRecordError.INVALID_ID,
                          f"id is not 1-32 alphanumerics: {record_id!r}")
    return StsRecord("STSv1", record_id, tuple(extensions))


@dataclass(frozen=True, slots=True)
class TxtRrsetEvaluation:
    """Outcome of evaluating a domain's whole ``_mta-sts`` TXT RRset."""

    record: Optional[StsRecord] = None
    error: Optional[StsRecordError] = None
    detail: str = ""
    sts_like_count: int = 0

    @property
    def valid(self) -> bool:
        return self.record is not None

    @property
    def signals_sts(self) -> bool:
        """Whether the domain *attempted* to deploy MTA-STS at all.

        The paper counts a domain as MTA-STS enabled when any TXT
        record at ``_mta-sts`` looks like an STS record, even if it is
        syntactically broken.
        """
        return self.sts_like_count > 0


def _looks_like_sts(text: str) -> bool:
    head = text.strip().lower()
    return head.startswith("v=sts")


def evaluate_txt_rrset(texts: Sequence[str]) -> TxtRrsetEvaluation:
    """Evaluate every TXT string found at ``_mta-sts.<domain>``.

    RFC 8461: senders MUST treat the domain as not having MTA-STS when
    more than one record begins with ``v=STSv1``.  Records that do not
    look STS-like (SPF leftovers, site-verification tokens) are ignored.
    The verdict is memoised by the tuple of *texts*: a repeated RRset
    gets the same frozen :class:`TxtRrsetEvaluation` back.
    """
    return _evaluate_texts(tuple(texts))


@functools.lru_cache(maxsize=1024)
def _evaluate_texts(texts: Tuple[str, ...]) -> TxtRrsetEvaluation:
    sts_like = [t for t in texts if _looks_like_sts(t)]
    if not sts_like:
        return TxtRrsetEvaluation(error=StsRecordError.MISSING,
                                  detail="no STS-like TXT record")

    strict = [t for t in sts_like if t.strip().startswith("v=STSv1")]
    if len(strict) > 1:
        return TxtRrsetEvaluation(
            error=StsRecordError.MULTIPLE_RECORDS,
            detail=f"{len(strict)} records begin with v=STSv1",
            sts_like_count=len(sts_like))

    candidate = strict[0] if strict else sts_like[0]
    try:
        record = parse_sts_record(candidate)
    except RecordError as exc:
        return TxtRrsetEvaluation(error=exc.kind, detail=str(exc),
                                  sts_like_count=len(sts_like))
    return TxtRrsetEvaluation(record=record, sts_like_count=len(sts_like))
