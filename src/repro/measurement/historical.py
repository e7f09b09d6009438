"""Historical MX matching (paper Figure 9).

Domains with a *complete domain mismatch* often are not misconfigured
randomly: their policy still lists the MX hosts they used before a
mail-server migration.  The analysis takes every currently mismatched
domain and asks whether any earlier snapshot's MX records match the
current policy's mx patterns; the paper finds a rising share (63% at
the end) does.  The matching itself is
:func:`~repro.measurement.columnar.historical_series_view`;
:func:`historical_series` runs it over a :class:`SnapshotStore`.
"""

from __future__ import annotations

from typing import List

from repro.measurement.snapshots import SnapshotStore


def historical_series(store: SnapshotStore) -> List[dict]:
    """Figure 9's full time series over every stored month
    (:func:`~repro.measurement.columnar.historical_series_view`)."""
    from repro.measurement.columnar import (
        ColumnarStore, historical_series_view,
    )
    from repro.measurement.store_io import month_rows
    columns = ColumnarStore()
    for month in store.months():
        columns.add_month(month, month_rows(store, month))
    return historical_series_view(columns)
