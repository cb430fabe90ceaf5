"""Report rows and their CSV/JSON serialisation.

The row schema is fixed (suite, p, r, instance, lhs, rhs, slack, verdict) so
that re-running an identical configuration produces byte-identical files.
Exact quantities are rendered as integers or fractions, floats via repr.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

ROW_FIELDS = ("suite", "p", "r", "instance", "lhs", "rhs", "slack", "verdict")
VERDICTS = ("pass", "fail", "skip-hypothesis", "report-only")


def fmt_value(x) -> str:
    # type checks first: comparing a Fraction with "" is a slow Fraction.__eq__
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    if x is None:
        return ""
    return str(x)


@dataclass
class Row:
    suite: str
    p: int
    r: int
    instance: str
    lhs: object = ""
    rhs: object = ""
    slack: object = ""
    verdict: str = "pass"

    def as_strings(self) -> list[str]:
        return [self.suite, str(self.p), str(self.r), self.instance,
                fmt_value(self.lhs), fmt_value(self.rhs), fmt_value(self.slack),
                self.verdict]


def slack_of(lhs, rhs):
    """lhs / rhs as a float, or '' where that is meaningless."""
    try:
        rhs_f = float(rhs)
        if rhs_f == 0:
            return ""
        return float(lhs) / rhs_f
    except (TypeError, ValueError):
        return ""


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(ROW_FIELDS)
    for row in rows:
        w.writerow(row.as_strings())
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
