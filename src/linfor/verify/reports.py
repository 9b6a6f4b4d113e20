"""Machine-readable report serialization (JSON and CSV).

Output bytes are deterministic for a given row list: keys are sorted, the
column order is fixed, and witness lists are joined with ';' (a character
outside the graph6 alphabet).
"""

from __future__ import annotations

import csv
import io
import json

from .theorems import TheoremReport

SCHEMA_VERSION = 1

CSV_COLUMNS = [
    "theorem",
    "n",
    "k",
    "r",
    "d",
    "kind",
    "formula_value",
    "oracle_value",
    "verdict",
    "witnesses",
    "note",
]


def report_row(rep: TheoremReport) -> dict:
    row = {column: getattr(rep, column) for column in CSV_COLUMNS}
    row["d"] = "" if rep.d is None else rep.d
    row["witnesses"] = ";".join(rep.witnesses)
    return row


def reports_json(reports: list[TheoremReport]) -> str:
    doc = {"schema": SCHEMA_VERSION, "reports": [report_row(r) for r in reports]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def reports_csv(reports: list[TheoremReport]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for rep in reports:
        writer.writerow(report_row(rep))
    return buf.getvalue()
