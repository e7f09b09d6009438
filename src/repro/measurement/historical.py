"""Historical MX matching (paper Figure 9).

Domains with a *complete domain mismatch* often are not misconfigured
randomly: their policy still lists the MX hosts they used before a
mail-server migration.  The analysis takes every currently mismatched
domain and asks whether any earlier snapshot's MX records match the
current policy's mx patterns; the paper finds a rising share (63% at
the end) does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.matching import policy_covers_mx
from repro.measurement.snapshots import DomainSnapshot, SnapshotStore


@dataclass
class HistoricalMatch:
    domain: str
    matched: bool
    matched_month: int | None = None
    historical_mx: tuple = ()


def match_against_history(store: SnapshotStore,
                          snap: DomainSnapshot) -> HistoricalMatch:
    """Search earlier snapshots of *snap.domain* for MX records that the
    current policy's patterns cover."""
    for earlier in store.domain_history(snap.domain):
        if earlier.month_index >= snap.month_index:
            break
        if not earlier.mx_hostnames:
            continue
        if any(policy_covers_mx(snap.mx_patterns, mx)
               for mx in earlier.mx_hostnames):
            return HistoricalMatch(snap.domain, True, earlier.month_index,
                                   tuple(earlier.mx_hostnames))
    return HistoricalMatch(snap.domain, False)


def historical_series(store: SnapshotStore) -> List[dict]:
    """Figure 9's full time series over every stored month
    (:func:`~repro.measurement.columnar.historical_series_view`)."""
    from repro.measurement.columnar import (
        ColumnarStore, historical_series_view,
    )
    return historical_series_view(ColumnarStore.from_store(store))
