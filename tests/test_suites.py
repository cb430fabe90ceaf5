"""Golden reports: the census suites, and the Frobenius-orbit suites.

The census suites compare one exact square count per digit set against a
right-hand side.  One fixed configuration reaches every kind of row they can
emit (pass or report-only, hypothesis skip, budget skip, error), so its CSV
digest pins which of them wins on every instance.

lemmaD (generator pairs that are not conjugate) and partition (tuples by
subfield degree) rest on the Frobenius degree sieve; their reports on small
fields are pinned byte for byte.

A report cell holds an int, a Fraction, a float or a str, on every suite's
rows, and is printed by str; the isinstance formatter that str replaced is
the oracle (conftest's fmt_value).

The energy suite's exact counts are pinned on fields on both sides of the
2^20 table cap, as recorded when it still forked on q, and the deltaH
suite's worst boxes as recorded when each box was walked element by element.

A bound row's verdict is the exact comparison of a rational deviation with
a float right-hand side (suites._bound_row).
"""

import csv
import hashlib
import io
import json
import math
import random
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsquares.cli import SweepConfig, main, run_config
from digitsquares.reporting import ROW_FIELDS, Row, rows_to_csv, rows_to_json
from digitsquares.suites import SUITES, TaskOptions, _bound_row

CENSUS_SUITES = ("identity", "est1", "thmA", "thmB", "thm1", "thm1-existence",
                 "thm2", "corC-report")
GOLDEN_ROWS = 1860
GOLDEN_SHA256 = "961789233b105cc8a67f43d35f0cefe9edbc2848b07db4db7e84b92e123523e6"

# the kinds of row each suite can emit; p = 9 is composite, hence "error"
EMITS = {
    "identity": {"pass", "budget", "error"},
    "est1": {"pass", "budget", "error"},
    "thmA": {"pass", "budget", "error"},
    "thmB": {"pass", "hypothesis", "budget", "error"},
    "thm1": {"pass", "hypothesis", "budget", "error"},
    "thm1-existence": {"pass", "hypothesis", "budget", "error"},
    "thm2": {"pass", "hypothesis", "budget", "error"},
    "corC-report": {"report-only", "hypothesis", "budget", "error"},
}


@pytest.fixture(scope="module")
def census_rows():
    cfg = SweepConfig(ps=[3, 5, 9, 13, 53], rs=[1, 2, 3], suites=list(CENSUS_SUITES),
                      digits="intervals+random:4", seed=5, budget=2000, nu_max=2)
    rows, code = run_config(cfg)
    assert code == 1  # the error rows are failures
    return rows


def _kind(row) -> str:
    if row.instance.startswith("error:"):
        return "error"
    if row.verdict == "skip-hypothesis":
        return "budget" if row.instance.endswith(";budget") else "hypothesis"
    return row.verdict


def test_golden_census_digest(census_rows):
    csv_text = rows_to_csv(census_rows)
    assert len(census_rows) == GOLDEN_ROWS
    assert hashlib.sha256(csv_text.encode("utf-8")).hexdigest() == GOLDEN_SHA256


def test_every_suite_emits_every_kind_of_row(census_rows):
    kinds = defaultdict(Counter)
    for row in census_rows:
        kinds[row.suite][_kind(row)] += 1
    assert {suite: set(seen) for suite, seen in kinds.items()} == EMITS


def test_field_error_wins_over_suite_preconditions(census_rows):
    by_task = defaultdict(list)
    for row in census_rows:
        by_task[row.suite, row.p, row.r].append(row)
    # thm1-existence at F_9^2: r >= 2 and the hypothesis hold, so the field
    # is built, and its error comes before the "threshold exceeds p-1" skip
    [row] = by_task["thm1-existence", 9, 2]
    assert row.instance.startswith("error:") and row.verdict == "fail"
    # thm1 at F_9^3 and thm2 at F_9^1 fail their precondition before the field
    for task in (("thm1", 9, 3), ("thm2", 9, 1)):
        [row] = by_task[task]
        assert row.instance.startswith("all;") and row.verdict == "skip-hypothesis"


def test_hypothesis_skip_wins_over_budget(census_rows):
    # thmB at t = p-1 skips on the hypothesis though 52^3 is over the budget
    rows = {(row.suite, row.p, row.r, row.instance) for row in census_rows}
    assert ("thmB", 53, 3, "0-51;C(p,t) undefined at t=p-1") in rows
    assert ("thmB", 53, 3, "0-50;budget") in rows


class TestBoundRow:
    """_bound_row compares the exact deviation with the float bound exactly."""

    OPTS = TaskOptions(p=5, r=2)

    def row(self, observed, rhs):
        return _bound_row("thmA", self.OPTS, "0-2", observed, rhs)

    def test_holds_and_slack(self):
        row = self.row(Fraction(3, 2), 2.0)
        assert row.verdict == "pass" and row.slack == 0.75
        assert (row.lhs, row.rhs) == (Fraction(3, 2), 2.0)
        assert self.row(Fraction(3, 2), 1.0).verdict == "fail"
        row = self.row(Fraction(0), 5.0)
        assert row.verdict == "pass" and row.slack == 0.0

    def test_exact_comparison_at_boundary(self):
        # observed equal to rhs counts as holding; a hair above does not
        assert self.row(Fraction(3, 2), 1.5).verdict == "pass"
        assert self.row(Fraction(3, 2) + Fraction(1, 10 ** 12), 1.5).verdict == "fail"

    def test_infinite_and_zero_rhs(self):
        row = self.row(Fraction(7, 2), math.inf)
        assert row.verdict == "pass" and row.slack == 0.0
        row = self.row(Fraction(1, 2), 0.0)
        assert row.verdict == "fail" and row.slack == math.inf
        assert self.row(Fraction(0), 0.0).as_strings()[-2:] == ["inf", "pass"]


@st.composite
def bound_pairs(draw):
    """A rational observed value and a float rhs at, or an ulp either side of,
    the float nearest to it, or anywhere."""
    observed = Fraction(draw(st.integers(-10 ** 30, 10 ** 30)),
                        draw(st.integers(1, 10 ** 12) | st.sampled_from([1, 2, 3, 7, 10, 1024])))
    near = float(observed)
    rhs = draw(st.sampled_from([near, math.nextafter(near, -math.inf),
                                math.nextafter(near, math.inf)])
               | st.floats(allow_nan=False, allow_infinity=False))
    return observed, rhs


@given(bound_pairs())
@settings(max_examples=300, deadline=None)
def test_bound_row_verdict_is_the_exact_comparison(case):
    observed, rhs = case
    row = _bound_row("thm1", TaskOptions(p=5, r=2), "0-2", observed, rhs)
    assert row.verdict == ("pass" if observed <= Fraction(rhs) else "fail")


@pytest.mark.parametrize("observed", [Fraction(1, 3), Fraction(-5, 7), Fraction(10 ** 20 + 1, 3)])
def test_bound_row_at_and_beside_a_non_dyadic_value(observed):
    near = float(observed)
    for rhs in (math.nextafter(near, -math.inf), near, math.nextafter(near, math.inf)):
        row = _bound_row("thm1", TaskOptions(p=5, r=2), "x", observed, rhs)
        assert row.verdict == ("pass" if observed <= Fraction(rhs) else "fail")
    assert _bound_row("thm1", TaskOptions(p=5, r=2), "x", observed, math.inf).verdict == "pass"
    assert _bound_row("thm1", TaskOptions(p=5, r=2), "x", observed, -math.inf).verdict == "fail"


@pytest.mark.parametrize("fields,digest", [
    (["--p", "3,5", "--r", "2"],
     "754a8fca7ff85df80ebabaf4b826dd0b21ae1a121ac90af9928320bdc9b7ee5c"),
    (["--p", "3", "--r", "3"],
     "1c0c164fc3c8309d8fc3d870e613e6822935330b29000fe00a4b62c87d68f2eb"),
], ids=["p3,5-r2", "p3-r3"])
def test_frobenius_suites_golden_digest(capsys, fields, digest):
    code = main(["verify", "--suite", "lemmaD,partition", "--digits", "intervals"] + fields)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("fields,lines,digest", [
    (["--p", "5", "--r", "3"], 28081,
     "052e72c9f91adc168a51f0aeb696add9b226bd974057943b70b6bbc85625485f"),
    (["--p", "7", "--r", "2"], 5041,
     "37dcf9bcfed8e7a3ee79752e904dc075fc70720dd82216c7bba93a3f2b4d2b6b"),
    (["--p", "13", "--r", "2"], 72073,
     "e927e8910f31b92b1baeebdcad9a7bc32045f9c51a4f1ecd4a8723408057ee77"),
], ids=["p5-r3", "p7-r2", "p13-r2"])
def test_lemmaD_golden_digest(capsys, fields, lines, digest):
    """Recorded when every pair re-proved both hypotheses and rebuilt chi."""
    code = main(["verify", "--suite", "lemmaD"] + fields)
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("fields,digest", [
    (["--p", "3,5,7,11,13", "--r", "1,2,3"],
     "33514e381a5066100f78ec53f52c0874459c9153208fe3de1e3c60b0a758296d"),
    (["--p", "1031", "--r", "2", "--h", "8"],
     "1e93c23a9fbf5cc9e1fe2a897506c1ce68d39e49c755f5b11d3840653a2ae1c5"),
], ids=["small-fields", "p1031-r2-h8"])
def test_energy_suite_golden_digest(capsys, fields, digest):
    code = main(["verify", "--suite", "energy"] + fields)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("fields,lines,digest", [
    (["--p", "3,5,7", "--r", "1,2,3", "--h", "2"], 10,
     "685858e8696404da289cacaa9025cb36fea2d6287ba2bb149d1527ffac67f415"),
    (["--p", "31", "--r", "2", "--h", "5"], 2,
     "e7957451429ddd797286be55f625952a7f106c39e7e408e2879e5d984ab3098a"),
    (["--p", "13", "--r", "3", "--h", "2"], 2,
     "e382e4f94cbee2039b016c87677cff574372f6e3ca274a3b3a5fd6680bebe7ef"),
], ids=["small-fields-h2", "p31-r2-h5", "p13-r3-h2"])
def test_deltaH_suite_golden_digest(capsys, fields, lines, digest):
    """Recorded when every box was summed by its own element walk."""
    code = main(["verify", "--suite", "deltaH"] + fields)
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_sides_above_p_skip_and_keep_the_valid_rows(capsys):
    assert main(["verify", "--suite", "energy", "--p", "5", "--r", "2", "--h", "5"]) == 0
    valid = capsys.readouterr().out.splitlines()
    assert main(["verify", "--suite", "energy,deltaH", "--p", "5", "--r", "2", "--h", "7"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:len(valid)] == valid
    assert out[len(valid):] == ["energy,5,2,H=6..7;needs H <= p,,,,skip-hypothesis",
                                "deltaH,5,2,H=7;needs H <= p,,,,skip-hypothesis"]


def test_deltaH_side_above_p_skips_before_the_field():
    rows = SUITES["deltaH"](TaskOptions(p=9, r=2, h=12))  # 9 is no prime
    assert rows == [Row("deltaH", 9, 2, "H=12;needs H <= p", verdict="skip-hypothesis")]


@pytest.mark.parametrize("value,text", [
    (Fraction(6, 3), "2"), (Fraction(-7, 4), "-7/4"), (Fraction(0), "0"),
    (0.1, "0.1"), (7.0, "7.0"), (float("inf"), "inf"), (-math.inf, "-inf"), (-0.0, "-0.0"),
    (5e-324, "5e-324"), (1e16, "1e+16"), (12, "12"), (0, "0"), (-3, "-3"),
    (2 ** 64, "18446744073709551616"), ("", ""), ("trial1;t=2", "trial1;t=2"),
])
def test_cell_strings(fmt_value, value, text):
    assert Row("thmA", 5, 2, "0-2", lhs=value).as_strings()[4] == text
    assert fmt_value(value) == text


# every suite, with budget skips (the tight budget) and error rows (p = 9)
CELL_RUNS = {
    "small-fields": dict(ps=[3, 5, 9], rs=[1, 2]),
    "budget-30": dict(ps=[5, 7, 9], rs=[2], budget=30),
}
CELL_TYPES = {int, Fraction, float, str}


@pytest.mark.parametrize("fields", CELL_RUNS.values(), ids=CELL_RUNS)
def test_report_cells_are_plain_values_printed_by_str(fmt_value, fields):
    rows, _ = run_config(SweepConfig(suites=list(SUITES), digits="intervals+random:2",
                                     seed=3, trials=4, nu_max=2, **fields))
    assert {row.suite for row in rows} == set(SUITES)
    assert any(row.instance.startswith("error:") for row in rows)
    assert any(row.instance.endswith(";budget") for row in rows) == ("budget" in fields)
    for row in rows:
        for v in (row.lhs, row.rhs, row.slack):
            assert type(v) in CELL_TYPES, (row, type(v))
    csv_cells = list(csv.reader(io.StringIO(rows_to_csv(rows))))
    json_rows = json.loads(rows_to_json(rows))
    assert csv_cells[0] == list(ROW_FIELDS)
    assert all(list(d) == list(ROW_FIELDS) for d in json_rows)
    assert [list(d.values()) for d in json_rows] == csv_cells[1:]
    assert csv_cells[1:] == [[fmt_value(v) for v in row] for row in rows]


def _seeded_cells(n=2000):
    rng = random.Random(20)
    for _ in range(n):
        yield Fraction(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** rng.randint(0, 30)))
        yield rng.randint(-10 ** 30, 10 ** 30)
        yield rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-300, 300)


def test_str_is_the_old_cell_format_seeded(fmt_value):
    for value in _seeded_cells():
        assert str(value) == fmt_value(value), value


@given(st.fractions() | st.integers() | st.floats(allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_str_is_the_old_cell_format(fmt_value, value):
    assert str(value) == fmt_value(value)
