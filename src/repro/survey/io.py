"""Survey answer import/export.

The paper releases its survey answers; this module round-trips
respondent populations through a flat CSV so externally released
answer sets load into the same :func:`repro.survey.analysis.analyze`
path the synthetic population uses.  Multi-valued/grid answers are
stored one column per question id with ``;``-joined values.
"""

from __future__ import annotations

import csv
import io
from typing import List, Sequence

from repro.survey.synthesize import Respondent


def export_csv(respondents: Sequence[Respondent]) -> str:
    """Serialise respondents to CSV text (stable column order)."""
    question_ids: List[str] = []
    seen = set()
    for respondent in respondents:
        for qid in respondent.answers:
            if qid not in seen:
                seen.add(qid)
                question_ids.append(qid)

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["rid"] + question_ids)
    for respondent in respondents:
        row = [str(respondent.rid)]
        for qid in question_ids:
            value = respondent.answers.get(qid)
            if value is None:
                row.append("")
            elif isinstance(value, (list, tuple)):
                row.append(";".join(str(v) for v in value))
            else:
                row.append(str(value))
        writer.writerow(row)
    return buffer.getvalue()


def import_csv(text: str) -> List[Respondent]:
    """Load respondents from CSV text produced by :func:`export_csv`
    (or hand-assembled with the same header convention)."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV") from None
    if not header or header[0] != "rid":
        raise ValueError("first column must be 'rid'")
    question_ids = header[1:]

    respondents: List[Respondent] = []
    for line_number, row in enumerate(reader, start=2):
        if not row or all(not cell for cell in row):
            continue
        if len(row) != len(header):
            raise ValueError(
                f"line {line_number}: {len(row)} cells, "
                f"expected {len(header)}")
        try:
            rid = int(row[0])
        except ValueError:
            raise ValueError(
                f"line {line_number}: rid {row[0]!r} is not an integer"
            ) from None
        respondent = Respondent(rid=rid)
        for qid, cell in zip(question_ids, row[1:]):
            if cell == "":
                continue
            respondent.answer(qid, cell)
        respondents.append(respondent)
    return respondents
