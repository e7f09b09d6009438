"""Durable state directories: JSONL shards plus a manifest.

The paper's platform scanned 87M domains monthly for years, and the
delivery engine drives thousands of retrying queues for days of
virtual time; either run only survives process death if every
finished unit of work is durable the moment it completes.  Both
long-running modes keep that state in one kind of directory:

``month-XXXX.jsonl`` / ``wave-XXXX.jsonl``
    one shard per committed unit.  A scan month holds one canonical
    JSON row per domain snapshot in sorted domain order (exactly the
    rows ``canonical_bytes()`` would emit for that month); a delivery
    wave holds the ledger rows of the messages it finalised;

``manifest.json``
    the commit record: the schema version, the ``kind`` tag (a scan
    manifest carries none, a delivery manifest carries
    :data:`DELIVERY_KIND`), the caller's header (a scan campaign's
    population config; a delivery campaign's config and lane
    checkpoint) and the entry list, ``months`` or ``waves``: per
    shard its index, file name, sha256 of its bytes and row count,
    plus the caller's fields (scan date, serialised
    :class:`~repro.measurement.executor.ScanStats` and world-build
    churn; a wave's date, clock and metrics).

:func:`commit_shard` writes both through
:func:`repro.fsutil.atomic_write_text` (temp file + ``os.replace``),
the shard *before* the manifest that records it: the manifest is the
commit point, so a crash mid-commit leaves the previous consistent
state, never a manifest pointing at a half-written shard.

Reading verifies everything it reads.  :func:`read_manifest` checks
the manifest's kind, schema version and entry list;
:func:`shard_text` checks that a shard exists, is UTF-8, matches its
digest and holds its row count; :func:`load_shard_rows` checks that a
scan shard's rows parse and belong to their month.  Every failure
raises :class:`~repro.errors.StoreCorruption` naming ``manifest.json``
or the shard.  There is no partial-load mode by design.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional

from repro.clock import Instant
from repro.errors import StoreCorruption
from repro.fsutil import atomic_write_text, ensure_dir, read_text
from repro.measurement.snapshots import DomainSnapshot, SnapshotStore

__all__ = [
    "SCHEMA_VERSION", "MANIFEST_NAME", "DELIVERY_KIND", "StoreCorruption",
    "MonthEntry", "CampaignState",
    "shard_name", "month_rows", "month_shard_text", "shard_digest",
    "read_manifest", "shard_text", "commit_shard", "commit_month",
    "month_entries", "load_shard_rows", "month_snapshots", "load_state",
]

#: Bump when a shard row layout or the manifest structure changes in a
#: way old readers cannot interpret.  Loading refuses any other version
#: outright (see DESIGN.md §11 for the compatibility policy).
SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"

#: The manifest ``kind`` tag of a delivery campaign's state dir; a scan
#: campaign's manifest carries no ``kind``.
DELIVERY_KIND = "delivery-campaign"


class _Kind(NamedTuple):
    entries: str    # the manifest key of the entry list
    index: str      # each entry's index key, also its shard's name prefix
    label: str


_KINDS = {None: _Kind("months", "month", "scan campaign"),
          DELIVERY_KIND: _Kind("waves", "wave", "delivery campaign")}


@dataclass
class MonthEntry:
    """One committed month inside a scan manifest."""

    month: int
    date: str
    shard: str
    sha256: str
    rows: int
    stats: Dict[str, object] = field(default_factory=dict)
    build_stats: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "MonthEntry":
        """One entry of a manifest :func:`read_manifest` returned."""
        try:
            return cls(month=data["month"], date=str(data["date"]),
                       shard=data["shard"], sha256=data["sha256"],
                       rows=data["rows"],
                       stats=dict(data.get("stats") or {}),
                       build_stats={k: int(v) for k, v in
                                    (data.get("build_stats") or {}).items()})
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise StoreCorruption(
                f"{MANIFEST_NAME}: malformed month entry "
                f"({data['month']}): {exc}") from exc


@dataclass
class CampaignState:
    """A fully verified on-disk campaign: manifest plus loaded store."""

    state_dir: str
    schema_version: int
    population: Optional[dict]
    months: List[MonthEntry]
    store: SnapshotStore

    def entry(self, month: int) -> Optional[MonthEntry]:
        for candidate in self.months:
            if candidate.month == month:
                return candidate
        return None

    def month_indexes(self) -> List[int]:
        return sorted(entry.month for entry in self.months)


def shard_name(index: int, kind: Optional[str] = None) -> str:
    """The file name of shard *index* in a state dir of *kind*."""
    return f"{_KINDS[kind].index}-{index:04d}.jsonl"


def month_rows(store: SnapshotStore, month: int) -> List[dict]:
    """One month's snapshots as plain-data rows
    (:meth:`DomainSnapshot.to_dict`), in sorted domain order: the one
    serialisation of a scanned month, which both its shard
    (:func:`commit_month`) and its columns
    (:meth:`~repro.measurement.columnar.ColumnarStore.add_month`)
    read."""
    return [snapshot.to_dict() for snapshot in store.month(month)]


def _shard_text(rows: Iterable[dict]) -> str:
    """The canonical shard body of *rows*: one compact JSON row per
    snapshot, sorted keys, newline-terminated."""
    return "".join(json.dumps(row, sort_keys=True, separators=(",", ":"))
                   + "\n" for row in rows)


def month_shard_text(store: SnapshotStore, month: int) -> str:
    """The canonical shard body for one month of *store*, rows in
    sorted domain order.

    Concatenating every month's parsed rows in month order reproduces
    ``json.loads(store.canonical_bytes())`` exactly — the round-trip
    the property tests assert.
    """
    return _shard_text(month_rows(store, month))


def shard_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def _checked_entries(manifest: dict, kind: Optional[str]) -> List[dict]:
    """The manifest's entry list, sorted by index, after checking that
    every entry can name and verify its shard."""
    spec = _KINDS[kind]
    entries = manifest.get(spec.entries, [])
    if not isinstance(entries, list):
        raise StoreCorruption(
            f"{MANIFEST_NAME}: {spec.entries!r} is not a list")
    seen = set()
    for number, entry in enumerate(entries):
        index = entry.get(spec.index) if isinstance(entry, dict) else None
        if not _is_count(index) or index in seen:
            problem = f"{spec.index} {index!r} is missing or repeated"
        elif entry.get("shard") != shard_name(index, kind):
            problem = (f"shard {entry.get('shard')!r} is not "
                       f"{shard_name(index, kind)!r}")
        elif not isinstance(entry.get("sha256"), str):
            problem = "sha256 is missing"
        elif not _is_count(entry.get("rows")):
            problem = f"rows {entry.get('rows')!r} is not a row count"
        else:
            seen.add(index)
            continue
        raise StoreCorruption(
            f"{MANIFEST_NAME}: malformed {spec.entries} entry {number}: "
            f"{problem}")
    return sorted(entries, key=lambda entry: entry[spec.index])


def read_manifest(state_dir: str, *, kind: Optional[str] = None,
                  required: bool = False) -> Optional[dict]:
    """The verified manifest of a state dir of *kind*, its entry list
    sorted by index; ``None`` when the directory holds no state yet,
    unless *required*.

    A present-but-damaged manifest raises :class:`StoreCorruption` —
    it is never treated as absent — and so does one of another kind
    or schema version, and one whose entry list is not a list of
    entries that each carry a distinct index, the shard name that
    index implies, a sha256 and a row count.
    """
    spec = _KINDS[kind]
    path = os.path.join(state_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        if required:
            raise StoreCorruption(
                f"{state_dir}: no {MANIFEST_NAME} — not a campaign state "
                f"directory")
        return None
    try:
        manifest = json.loads(read_text(path))
    except (OSError, ValueError) as exc:
        raise StoreCorruption(f"{MANIFEST_NAME}: unreadable ({exc})") from exc
    if not isinstance(manifest, dict):
        raise StoreCorruption(f"{MANIFEST_NAME}: not a JSON object")
    if manifest.get("kind") != kind:
        raise StoreCorruption(
            f"{MANIFEST_NAME}: kind {manifest.get('kind')!r} is not a "
            f"{spec.label}")
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise StoreCorruption(
            f"{MANIFEST_NAME}: schema version {version!r} is not the "
            f"supported version {SCHEMA_VERSION} — refusing to load")
    manifest[spec.entries] = _checked_entries(manifest, kind)
    return manifest


def shard_text(state_dir: str, shard: str, sha256: str, rows: int) -> str:
    """The verified text of one committed shard: it exists, is UTF-8,
    hashes to *sha256* and holds *rows* newline-terminated rows."""
    try:
        text = read_text(os.path.join(state_dir, shard))
    except FileNotFoundError as exc:
        raise StoreCorruption(
            f"shard {shard}: recorded in the manifest but missing "
            f"from {state_dir}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise StoreCorruption(f"shard {shard}: unreadable ({exc})") from exc
    digest = shard_digest(text)
    if digest != sha256:
        raise StoreCorruption(
            f"shard {shard}: content digest {digest[:12]}… does not "
            f"match the manifest's {sha256[:12]}… — the shard was "
            f"corrupted or partially written")
    found = text.count("\n")
    if found != rows:
        raise StoreCorruption(
            f"shard {shard}: {found} rows on disk, manifest records "
            f"{rows}")
    return text


# ---------------------------------------------------------------------------
# Commit
# ---------------------------------------------------------------------------

def commit_shard(state_dir: str, manifest: dict, index: int, text: str, *,
                 kind: Optional[str] = None, **fields) -> dict:
    """Durably commit *text* as shard *index* of a state dir of *kind*:
    shard first, manifest second.

    *manifest* is the caller's header (as :func:`read_manifest`
    returned it, or new); it is updated in place — the shard's entry,
    carrying *fields* besides index, shard name, sha256 and row count,
    replaces any entry with the same index — and written in the one
    manifest layout.  The manifest write is the commit point: until it
    lands, a reader sees the previous state.  Returns the entry.
    """
    spec = _KINDS[kind]
    state_dir = ensure_dir(state_dir)
    name = shard_name(index, kind)
    atomic_write_text(os.path.join(state_dir, name), text)
    entry = {spec.index: index, "shard": name, "sha256": shard_digest(text),
             "rows": text.count("\n"), **fields}
    entries = [other for other in manifest.get(spec.entries, ())
               if other[spec.index] != index] + [entry]
    manifest[spec.entries] = sorted(entries, key=lambda e: e[spec.index])
    manifest["schema_version"] = SCHEMA_VERSION
    if kind is not None:
        manifest["kind"] = kind
    atomic_write_text(os.path.join(state_dir, MANIFEST_NAME),
                      json.dumps(manifest, sort_keys=True,
                                 separators=(",", ":")) + "\n")
    return entry


def commit_month(state_dir: str, rows: List[dict], month: int, *,
                 date: Optional[str] = None,
                 stats: Optional[Dict[str, object]] = None,
                 build_stats: Optional[Dict[str, int]] = None,
                 population: Optional[dict] = None) -> MonthEntry:
    """Durably commit one finished scan month, given as its
    :func:`month_rows` (:func:`commit_shard`).

    Re-committing an already recorded month replaces its entry (the
    shard write is idempotent for identical snapshots); every other
    committed month's entry, and the recorded population unless
    *population* is given, is preserved.
    """
    manifest = read_manifest(state_dir) or {"population": None}
    if population is not None:
        manifest["population"] = population
    if date is None:
        date = Instant(rows[0]["instant"]).date_string() if rows else ""
    return MonthEntry.from_dict(commit_shard(
        state_dir, manifest, month, _shard_text(rows), date=date,
        stats=dict(stats or {}), build_stats=dict(build_stats or {})))


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------

def month_entries(manifest: dict,
                  months: Optional[Iterable[int]] = None) -> List[MonthEntry]:
    """The committed months of a scan manifest :func:`read_manifest`
    returned, in month order; only those in *months* when given."""
    wanted = None if months is None else set(months)
    return [MonthEntry.from_dict(raw) for raw in manifest["months"]
            if wanted is None or raw["month"] in wanted]


def load_shard_rows(state_dir: str, entry: MonthEntry) -> List[dict]:
    """The verified plain-data rows of one committed scan shard.

    On top of :func:`shard_text`'s checks every row must parse to a
    JSON object of the entry's month; callers that aggregate over raw
    fields (the columnar analysis path) get the dicts without paying
    for :class:`DomainSnapshot` construction.
    """
    text = shard_text(state_dir, entry.shard, entry.sha256, entry.rows)
    rows = []
    for number, line in enumerate(text.splitlines(), start=1):
        try:
            row = json.loads(line)
        except ValueError as exc:
            raise StoreCorruption(
                f"shard {entry.shard}: row {number} is truncated or "
                f"unparsable ({exc})") from exc
        if not isinstance(row, dict) or "month_index" not in row:
            raise StoreCorruption(
                f"shard {entry.shard}: row {number} is truncated or "
                f"unparsable (not a snapshot row)")
        if row["month_index"] != entry.month:
            raise StoreCorruption(
                f"shard {entry.shard}: row {number} belongs to month "
                f"{row['month_index']}, not {entry.month}")
        rows.append(row)
    return rows


def month_snapshots(entry: MonthEntry,
                    rows: List[dict]) -> List[DomainSnapshot]:
    """The snapshots of one committed month's verified rows
    (:func:`load_shard_rows`)."""
    snapshots = []
    for number, row in enumerate(rows, start=1):
        try:
            snapshots.append(DomainSnapshot.from_dict(row))
        except (TypeError, ValueError, KeyError) as exc:
            raise StoreCorruption(
                f"shard {entry.shard}: row {number} is truncated or "
                f"unparsable ({exc})") from exc
    return snapshots


def load_state(state_dir: str,
               months: Optional[Iterable[int]] = None) -> CampaignState:
    """Load and fully verify a scan campaign's state directory.

    *months* restricts loading to a subset of committed months; entries
    outside the subset stay on disk untouched.  Any integrity failure
    raises :class:`StoreCorruption`; there is no partial result.
    """
    state_dir = os.path.abspath(state_dir)
    manifest = read_manifest(state_dir, required=True)
    entries = month_entries(manifest, months)
    store = SnapshotStore()
    for entry in entries:
        for snapshot in month_snapshots(
                entry, load_shard_rows(state_dir, entry)):
            store.add(snapshot)
    return CampaignState(
        state_dir=state_dir, schema_version=manifest["schema_version"],
        population=manifest.get("population"), months=entries,
        store=store)
