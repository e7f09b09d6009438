"""Durable campaign state: per-month JSONL shards plus a manifest.

The paper's platform scanned 87M domains monthly for years — a campaign
that long only survives process death if every finished month is
durable the moment it completes.  This module gives the
:class:`~repro.measurement.snapshots.SnapshotStore` an on-disk form:

``month-XXXX.jsonl``
    one shard per scan month, one canonical JSON row per domain
    snapshot in sorted domain order (exactly the rows
    ``canonical_bytes()`` would emit for that month);

``manifest.json``
    the commit record: schema version, the population config the
    campaign ran with, and per month the shard name, row count, the
    sha256 of the shard bytes, the scan date, and the month's
    serialised :class:`~repro.measurement.executor.ScanStats` and
    world-build churn.

Both artifacts are written through
:func:`repro.fsutil.atomic_write_text` (temp file + ``os.replace``),
and a month's shard is always written *before* the manifest that
records it — the manifest is the commit point, so a crash mid-commit
leaves the previous consistent state, never a manifest pointing at a
half-written shard.

Loading verifies everything it reads: a missing shard, a digest
mismatch, a truncated or unparsable row, a row count that disagrees
with the manifest, an unsupported schema version, or a delivery
campaign's manifest raises :class:`~repro.errors.StoreCorruption`
naming the offending artifact.
There is no partial-load mode by design.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.clock import Instant
from repro.errors import StoreCorruption
from repro.fsutil import atomic_write_text, ensure_dir, read_text
from repro.measurement.snapshots import DomainSnapshot, SnapshotStore

__all__ = [
    "SCHEMA_VERSION", "MANIFEST_NAME", "StoreCorruption",
    "MonthEntry", "CampaignState",
    "shard_name", "month_rows", "month_shard_text", "shard_digest",
    "read_manifest", "commit_month", "save_store",
    "load_shard_rows", "load_state", "load_store",
]

#: Bump when the shard row layout or manifest structure changes in a
#: way old readers cannot interpret.  Loading refuses any other version
#: outright (see DESIGN.md §11 for the compatibility policy).
SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"


@dataclass
class MonthEntry:
    """One committed month inside the manifest."""

    month: int
    date: str
    shard: str
    sha256: str
    rows: int
    stats: Dict[str, object] = field(default_factory=dict)
    build_stats: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"month": self.month, "date": self.date,
                "shard": self.shard, "sha256": self.sha256,
                "rows": self.rows, "stats": self.stats,
                "build_stats": self.build_stats}

    @classmethod
    def from_dict(cls, data: dict) -> "MonthEntry":
        try:
            return cls(month=int(data["month"]), date=str(data["date"]),
                       shard=str(data["shard"]), sha256=str(data["sha256"]),
                       rows=int(data["rows"]),
                       stats=dict(data.get("stats") or {}),
                       build_stats={k: int(v) for k, v in
                                    (data.get("build_stats") or {}).items()})
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreCorruption(
                f"{MANIFEST_NAME}: malformed month entry "
                f"({data.get('month', '?')}): {exc}") from exc


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


def shard_name(month: int) -> str:
    return f"month-{month:04d}.jsonl"


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

def _manifest_path(state_dir: str) -> str:
    return os.path.join(state_dir, MANIFEST_NAME)


def read_manifest(state_dir: str) -> Optional[dict]:
    """The raw manifest dict, or ``None`` when the directory holds no
    campaign state yet.  A present-but-damaged manifest raises
    :class:`StoreCorruption` — it is never treated as absent — and so
    does a foreign one: a scan manifest carries no ``kind``, while a
    delivery campaign's does."""
    path = _manifest_path(state_dir)
    if not os.path.exists(path):
        return None
    try:
        manifest = json.loads(read_text(path))
    except (OSError, ValueError) as exc:
        raise StoreCorruption(f"{MANIFEST_NAME}: unreadable ({exc})") from exc
    if not isinstance(manifest, dict):
        raise StoreCorruption(f"{MANIFEST_NAME}: not a JSON object")
    if "kind" in manifest:
        raise StoreCorruption(
            f"{MANIFEST_NAME}: kind {manifest['kind']!r} is not a scan "
            f"campaign")
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise StoreCorruption(
            f"{MANIFEST_NAME}: schema version {version!r} is not the "
            f"supported version {SCHEMA_VERSION} — refusing to load")
    return manifest


def _write_manifest(state_dir: str, population: Optional[dict],
                    entries: Iterable[MonthEntry]) -> dict:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "population": population,
        "months": [entry.to_dict()
                   for entry in sorted(entries, key=lambda e: e.month)],
    }
    atomic_write_text(_manifest_path(state_dir),
                      json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def _rows_date(rows: List[dict]) -> str:
    return Instant(rows[0]["instant"]).date_string() if rows else ""


# ---------------------------------------------------------------------------
# Commit / save
# ---------------------------------------------------------------------------

def commit_month(state_dir: str, rows: List[dict], month: int, *,
                 date: Optional[str] = None,
                 stats: Optional[Dict[str, object]] = None,
                 build_stats: Optional[Dict[str, int]] = None,
                 population: Optional[dict] = None) -> MonthEntry:
    """Durably commit one finished month, given as its
    :func:`month_rows`: shard first, manifest second.

    Re-committing an already recorded month replaces its entry (the
    shard write is idempotent for identical snapshots); every other
    committed month's entry is preserved.  The manifest write is the
    commit point — until it lands, a resume sees the previous state.
    """
    state_dir = ensure_dir(state_dir)
    manifest = read_manifest(state_dir)
    entries = ([MonthEntry.from_dict(e) for e in manifest.get("months", ())]
               if manifest else [])
    if population is None and manifest:
        population = manifest.get("population")

    text = _shard_text(rows)
    name = shard_name(month)
    atomic_write_text(os.path.join(state_dir, name), text)
    entry = MonthEntry(
        month=month,
        date=date if date is not None else _rows_date(rows),
        shard=name, sha256=shard_digest(text), rows=text.count("\n"),
        stats=dict(stats or {}), build_stats=dict(build_stats or {}))
    entries = [e for e in entries if e.month != month] + [entry]
    _write_manifest(state_dir, population, entries)
    return entry


def save_store(store: SnapshotStore, state_dir: str, *,
               population: Optional[dict] = None,
               stats_by_month: Optional[Dict[int, Dict[str, object]]] = None,
               build_stats_by_month: Optional[Dict[int, Dict[str, int]]] = None,
               ) -> List[MonthEntry]:
    """Persist every month of *store* into *state_dir* in one pass.

    Shards land first, then a single manifest naming all of them — the
    bulk analogue of :func:`commit_month` for exporting a finished
    in-memory campaign (``audit --save`` style use)."""
    state_dir = ensure_dir(state_dir)
    stats_by_month = stats_by_month or {}
    build_stats_by_month = build_stats_by_month or {}
    entries = []
    for month in store.months():
        rows = month_rows(store, month)
        text = _shard_text(rows)
        name = shard_name(month)
        atomic_write_text(os.path.join(state_dir, name), text)
        entries.append(MonthEntry(
            month=month, date=_rows_date(rows), shard=name,
            sha256=shard_digest(text), rows=text.count("\n"),
            stats=dict(stats_by_month.get(month, {})),
            build_stats=dict(build_stats_by_month.get(month, {}))))
    _write_manifest(state_dir, population, entries)
    return entries


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------

def load_shard_rows(state_dir: str, entry: MonthEntry) -> List[dict]:
    """The verified plain-data rows of one committed shard.

    Performs every integrity check :func:`load_state` applies —
    existence, content digest, per-row parseability, month ownership,
    row count — but stops at the JSON layer: callers that aggregate
    over raw fields (the columnar analysis path) get the dicts without
    paying for :class:`DomainSnapshot` construction.
    """
    path = os.path.join(state_dir, entry.shard)
    if not os.path.exists(path):
        raise StoreCorruption(
            f"shard {entry.shard}: recorded in the manifest but missing "
            f"from {state_dir}")
    try:
        text = read_text(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise StoreCorruption(
            f"shard {entry.shard}: unreadable ({exc})") from exc
    digest = shard_digest(text)
    if digest != entry.sha256:
        raise StoreCorruption(
            f"shard {entry.shard}: content digest {digest[:12]}… does not "
            f"match the manifest's {entry.sha256[:12]}… — the shard was "
            f"corrupted or partially written")
    rows = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
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
    if len(rows) != entry.rows:
        raise StoreCorruption(
            f"shard {entry.shard}: {len(rows)} rows on disk, "
            f"manifest records {entry.rows} — truncated shard")
    return rows


def _load_shard(state_dir: str, entry: MonthEntry) -> List[DomainSnapshot]:
    snapshots = []
    for number, row in enumerate(load_shard_rows(state_dir, entry), start=1):
        try:
            snapshots.append(DomainSnapshot.from_dict(row))
        except (TypeError, ValueError, KeyError) as exc:
            raise StoreCorruption(
                f"shard {entry.shard}: row {number} is truncated or "
                f"unparsable ({exc})") from exc
    return snapshots


def load_state(state_dir: str,
               months: Optional[Iterable[int]] = None) -> CampaignState:
    """Load and fully verify a campaign state directory.

    *months* restricts loading to a subset of committed months (resume
    passes the campaign's requested month list); entries outside the
    subset stay on disk untouched.  Any integrity failure raises
    :class:`StoreCorruption`; there is no partial result.
    """
    state_dir = os.path.abspath(state_dir)
    manifest = read_manifest(state_dir)
    if manifest is None:
        raise StoreCorruption(
            f"{state_dir}: no {MANIFEST_NAME} — not a campaign state "
            f"directory")
    wanted = None if months is None else set(months)
    entries = [MonthEntry.from_dict(e) for e in manifest.get("months", ())]
    if wanted is not None:
        entries = [e for e in entries if e.month in wanted]
    entries.sort(key=lambda e: e.month)
    store = SnapshotStore()
    for entry in entries:
        for snapshot in _load_shard(state_dir, entry):
            store.add(snapshot)
    return CampaignState(
        state_dir=state_dir,
        schema_version=int(manifest["schema_version"]),
        population=manifest.get("population"),
        months=entries, store=store)


def load_store(state_dir: str) -> SnapshotStore:
    """Just the verified :class:`SnapshotStore` of a state directory."""
    return load_state(state_dir).store
