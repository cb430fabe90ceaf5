"""Report rows and their CSV/JSON serialisation.

The row schema is fixed (suite, p, r, instance, lhs, rhs, slack, verdict) so
that re-running an identical configuration produces byte-identical files.
A cell holds an int, a Fraction, a float or a str, and is printed by
Python's own str: integers, n/d fractions (an integral Fraction prints as
its integer), shortest-repr floats and inf, and "" where a column does not
apply.
"""

from __future__ import annotations

import csv
import io
import math
from typing import NamedTuple


class Row(NamedTuple):
    suite: str
    p: int
    r: int
    instance: str
    lhs: object = ""
    rhs: object = ""
    slack: object = ""
    verdict: str = "pass"

    def as_strings(self) -> list[str]:
        return [str(v) for v in self]


ROW_FIELDS = Row._fields


def slack_ratio(lhs, rhs) -> float:
    """The slack column: lhs / rhs as a float, or inf at rhs = 0."""
    return float(lhs) / rhs if rhs else math.inf


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(ROW_FIELDS)
    w.writerows(rows)
    return buf.getvalue()


def rows_to_json(rows) -> str:
    import json

    payload = [dict(zip(ROW_FIELDS, row.as_strings())) for row in rows]
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def summarize(rows) -> dict[str, int]:
    out = {"passed": 0, "failed": 0, "skipped-hypothesis": 0, "report-only": 0}
    key = {"pass": "passed", "fail": "failed",
           "skip-hypothesis": "skipped-hypothesis", "report-only": "report-only"}
    for row in rows:
        out[key[row.verdict]] += 1
    return out


def summary_line(rows) -> str:
    s = summarize(rows)
    return ("summary: passed={passed} failed={failed} "
            "skipped-hypothesis={skipped-hypothesis} report-only={report-only}"
            .format(**s))
