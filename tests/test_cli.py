"""CLI subcommands, config files, exit codes, determinism."""

import concurrent.futures
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mpmath

from digitsquares import (DigitBox, bounds, boxes, characters, cli, counting, fields,
                          make_field, oracles, suites)
from digitsquares.cli import NU_MAX_CAP, ConfigError, SweepConfig, main, run_config
from digitsquares.errors import BudgetExceeded
from digitsquares.reporting import ROW_FIELDS, rows_to_csv, summarize
from digitsquares.suites import TaskOptions, live_field, square_census


@pytest.fixture(autouse=True)
def no_live_field():
    """Every test starts without a cached field, so build counts do not
    depend on test order."""
    live_field.cache_clear()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFieldAndCount:
    def test_field_text(self, capsys):
        code, out, _ = run_cli(capsys, "field", "--p", "3", "--r", "2")
        assert code == 0
        assert "modulus = 1 + x^2" in out

    def test_field_json(self, capsys):
        code, out, _ = run_cli(capsys, "field", "--p", "5", "--r", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["q"] == 25 and data["modulus"] == [2, 0, 1]

    def test_field_rejects_composite(self, capsys):
        code, _, err = run_cli(capsys, "field", "--p", "9", "--r", "1")
        assert code == 2 and "prime" in err

    def test_count_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--p", "3", "--r", "2",
                               "--digits", "1,2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert (data["count_q"], data["char_sum"]) == (0, -4)

    def test_count_budget_refusal(self, capsys):
        code, _, err = run_cli(capsys, "count", "--p", "13", "--r", "3",
                               "--digits", "0-12", "--budget", "100")
        assert code == 2 and "budget" in err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_count_budget_must_be_positive(self, capsys, budget):
        code, _, err = run_cli(capsys, "count", "--p", "3", "--r", "2",
                               "--digits", "0,1", "--budget", budget)
        assert code == 2 and "--budget must be positive" in err

    def test_estimate_samples_are_budgeted(self, capsys, monkeypatch):
        monkeypatch.setenv(boxes.BUDGET_ENV_VAR, "500")
        code, out, err = run_cli(capsys, "estimate", "--p", "13", "--r", "2",
                                 "--digits", "0-6", "--n", "501", "--seed", "4")
        assert code == 2 and out == ""
        assert "Monte-Carlo samples requires 501" in err
        code, _, _ = run_cli(capsys, "estimate", "--p", "13", "--r", "2",
                             "--digits", "0-6", "--n", "500", "--seed", "4")
        assert code == 0

    def test_estimate_refuses_a_huge_n_at_once(self, capsys, monkeypatch):
        # the default budget refuses it before the field is built
        monkeypatch.delenv(boxes.BUDGET_ENV_VAR, raising=False)
        code, _, err = run_cli(capsys, "estimate", "--p", "101", "--r", "20",
                               "--digits", "0-46", "--n", str(10 ** 12), "--seed", "0")
        assert code == 2 and "budget" in err

    def test_estimate_deterministic(self, capsys):
        args = ("estimate", "--p", "13", "--r", "2", "--digits", "0-6",
                "--n", "1000", "--seed", "4", "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestVerify:
    def test_identity_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "identity",
                                 "--p", "3,5,7", "--r", "1,2")
        assert code == 0
        assert "failed=0" in err
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(ROW_FIELDS)
        assert all(r[-1] == "pass" for r in rows[1:])

    def test_identity_and_thm1_on_f53_4(self, capsys, norm_census):
        # q = 53^4 > 2^20, but its (q-1)/(p-1) monic elements fit the table
        # cap, and Theorem 1's hypothesis 2r - 1 = 7 <= sqrt(53) holds
        code, out, _ = run_cli(capsys, "verify", "--suite", "identity,thm1", "--p", "53",
                               "--r", "4", "--digits", "0-9+random:3,20", "--seed", "0")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [(r[0], r[-1]) for r in rows] == [("identity", "pass")] * 4 + [("thm1", "pass")] * 4
        count_q, char_sum = norm_census(DigitBox.uniform(make_field(53, 4), range(10)))
        assert rows[0][3:6] == ["0-9", str(count_q), str(Fraction(10 ** 4 - 1 + char_sum, 2))]

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "thm9", "--p", "3", "--r", "1")
        assert code == 2 and "unknown suite" in err

    def test_missing_seed_for_random_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "lemmaE", "--p", "3", "--r", "2")
        assert code == 2 and "seed" in err

    def test_thm1_existence_threshold_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "thm1-existence",
                               "--p", "101", "--r", "2")
        assert code == 0
        rows = [r for r in csv.reader(io.StringIO(out))][1:]
        assert len(rows) == 100 - 61 + 1  # t = 61..100
        assert all(int(r[4]) >= 1 for r in rows)

    def test_thmA_without_a_digit_set_says_so(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "thmA", "--p", "5",
                                 "--r", "2", "--digits", "0")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert rows == [["thmA", "5", "2", "all;no digit set with 2 <= |D| <= p-1",
                         "", "", "", "skip-hypothesis"]]
        assert "summary: passed=0 failed=0 skipped-hypothesis=1 report-only=0" in err

    def test_thmB_skips_t_p_minus_1(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "thmB", "--p", "5", "--r", "1")
        assert code == 0
        rows = [r for r in csv.reader(io.StringIO(out))][1:]
        verdicts = {r[3].split(";")[0]: r[-1] for r in rows}
        assert verdicts["0,1"] == "pass" and verdicts["0-2"] == "pass"
        assert any(v == "skip-hypothesis" for v in verdicts.values())

    def test_budget_refusals_skip_not_fail(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "identity",
                               "--p", "13", "--r", "3", "--budget", "200")
        assert code == 0
        rows = [r for r in csv.reader(io.StringIO(out))][1:]
        assert any("budget" in r[3] and r[-1] == "skip-hypothesis" for r in rows)
        assert not any(r[-1] == "fail" for r in rows)

    def test_lemma_walks_over_budget_skip_per_task(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "lemmaD,lemmaE", "--p", "5",
                                 "--r", "3", "--seed", "0", "--budget", "100")
        assert code == 0
        assert list(csv.reader(io.StringIO(out)))[1:] == [
            ["lemmaD", "5", "3", "all;budget", "", "", "", "skip-hypothesis"],
            ["lemmaE", "5", "3", "all;budget", "", "", "", "skip-hypothesis"]]
        assert "summary: passed=0 failed=0 skipped-hypothesis=2 report-only=0" in err

    @pytest.mark.parametrize("suite,budget,rows", [
        ("lemmaD", 108, 48), ("lemmaD", 107, 0),  # p G^2 = 3 * 6^2 terms on F_9
        ("lemmaE", 9, 12), ("lemmaE", 8, 0),      # q = 9 elements per instance
    ])
    def test_lemma_budget_edges(self, capsys, suite, budget, rows):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--p", "3", "--r", "2",
                               "--seed", "0", "--trials", "12", "--budget", str(budget))
        assert code == 0
        got = list(csv.reader(io.StringIO(out)))[1:]
        if rows:
            assert len(got) == rows and all(r[-1] == "pass" for r in got)
        else:
            assert got == [[suite, "3", "2", "all;budget", "", "", "", "skip-hypothesis"]]

    def test_lemmaE_above_the_table_cap_is_one_skip_row(self, capsys, monkeypatch):
        # orders above 2 need the discrete-log table: the task skips before
        # it draws a trial, and a budget below q still wins
        def draw(*args):
            raise AssertionError("a trial was drawn above the table cap")

        monkeypatch.setattr(suites, "make_char", draw)
        args = ("verify", "--suite", "lemmaE", "--p", "1031", "--r", "2", "--seed", "0",
                "--trials", "3")
        code, out, err = run_cli(capsys, *args)
        assert code == 0
        assert list(csv.reader(io.StringIO(out)))[1:] == [
            ["lemmaE", "1031", "2", "all;needs q <= 2^20 for orders above 2",
             "", "", "", "skip-hypothesis"]]
        assert "summary: passed=0 failed=0 skipped-hypothesis=1 report-only=0" in err
        code, out, _ = run_cli(capsys, *args, "--budget", "1062960")
        assert code == 0
        assert list(csv.reader(io.StringIO(out)))[1:] == [
            ["lemmaE", "1031", "2", "all;budget", "", "", "", "skip-hypothesis"]]

    def test_lemmaD_budget_checked_before_the_sieve(self, monkeypatch):
        # the task's "all;budget" row is written by the task runner
        # (test_lemma_budget_edges); the suite only refuses, and refuses first
        def sieve(ctx):
            raise AssertionError("the degree sieve walks all q elements")

        monkeypatch.setattr(suites, "generator_elements", sieve)
        with pytest.raises(BudgetExceeded):
            suites.suite_lemmaD(TaskOptions(3, 2, budget=8))

    def test_json_format_mirrors_csv(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "est1",
                               "--p", "3", "--r", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert all(set(d) == set(ROW_FIELDS) for d in data)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("verify", "--suite", "identity,lemma1", "--p", "5", "--r", "2",
                "--seed", "6", "--trials", "10")
        run_cli(capsys, *args, "--out", str(f1))
        run_cli(capsys, *args, "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ("verify", "--suite", "identity", "--p", "3,5,7", "--r", "1,2")
        run_cli(capsys, *base, "--jobs", "1", "--out", str(f1))
        run_cli(capsys, *base, "--jobs", "3", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_chained_censuses_do_not_depend_on_jobs(self, tmp_path, capsys):
        # pool workers count each field's digit sets in another order than
        # one process does, so each carries the first-axis chain differently
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ("verify", "--suite", "identity,est1", "--p", "13,101", "--r", "2,3",
                "--digits", "intervals+random:5", "--seed", "0")
        assert run_cli(capsys, *base, "--jobs", "1", "--out", str(f1))[0] == 0
        assert run_cli(capsys, *base, "--jobs", "2", "--out", str(f2))[0] == 0
        assert f1.read_bytes() == f2.read_bytes()


class TestSweepConfig:
    def test_parse_and_run(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# demo\np = 3,5\nr = 1\nsuite = identity, est1\nformat = csv\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0 and "failed=0" in err

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("p = 3\nr = 1\nsuite = identity\n")
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--p", "5")
        assert code == 0
        rows = [r for r in csv.reader(io.StringIO(out))][1:]
        assert {r[1] for r in rows} == {"5"}

    def test_unknown_key_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("p = 3\nwhat = 1\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2 and "line 2" in err

    def test_bad_value_reports_line_and_col(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("p = 3\nr = x\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2 and "line 2" in err and "col" in err

    def test_missing_equals_is_parse_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("p 3\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2 and "key = value" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--config", "/nonexistent/cfg.txt")
        assert code == 2


# config text, the value it sets, flag text, the value it sets; one per key
OPTION_SAMPLES = {
    "p": ("3,5", [3, 5], "7", [7]),
    "r": ("1", [1], "2, 3", [2, 3]),
    "suite": ("identity, est1", ["identity", "est1"], "thmA", ["thmA"]),
    "digits": ("0-4", "0-4", "intervals", "intervals"),
    "budget": ("100", 100, "200", 200),
    "seed": ("1", 1, "2", 2),
    "jobs": ("2", 2, "3", 3),
    "out": ("a.csv", "a.csv", "b.csv", "b.csv"),
    "format": ("json", "json", "csv", "csv"),
    "const": ("2.5", 2.5, "0.5", 0.5),
    "trials": ("10", 10, "20", 20),
    "h": ("1", 1, "2", 2),
    "eps": ("0.1", 0.1, "0.2", 0.2),
    "nu-max": ("2", 2, "3", 3),
    "orders": ("2,3", (2, 3), "4", (4,)),
}

TASK_FIELDS = [f for f in dataclasses.fields(TaskOptions) if f.name not in ("p", "r")]


class TestOptionsTable:
    @pytest.mark.parametrize("key", list(cli.OPTIONS))
    def test_config_line_and_flag_set_one_field_and_the_flag_wins(self, tmp_path, key):
        attr = cli.OPTIONS[key].attr
        cfg_text, cfg_value, flag_text, flag_value = OPTION_SAMPLES[key]
        assert getattr(SweepConfig(), attr) != cfg_value != flag_value
        path = tmp_path / "cfg.txt"
        path.write_text(f"{key} = {cfg_text}\n")
        cfg = cli.parse_config_file(str(path))
        assert getattr(cfg, attr) == cfg_value
        args = cli.build_parser().parse_args(
            ["sweep", "--config", str(path), f"--{key}", flag_text])
        cli._apply_flags(cfg, args)
        assert getattr(cfg, attr) == flag_value

    @pytest.mark.parametrize("name", [f.name for f in TASK_FIELDS])
    def test_task_option_reaches_the_task(self, name):
        assert name in {opt.attr for opt in cli.OPTIONS.values()}
        cfg = SweepConfig()
        marker = object()
        setattr(cfg, name, marker)
        assert getattr(cli._task_options(cfg, 3, 1), name) is marker

    def test_sweep_defaults_are_the_task_defaults(self):
        cfg = SweepConfig()
        assert ({f.name: getattr(cfg, f.name) for f in TASK_FIELDS}
                == {f.name: f.default for f in TASK_FIELDS})


class TestRunConfig:
    def test_exit_zero_iff_no_fail_rows(self):
        cfg = SweepConfig(ps=[3, 5], rs=[1, 2], suites=["identity", "thmA"])
        rows, code = run_config(cfg)
        assert code == 0
        assert summarize(rows)["failed"] == 0

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            run_config(SweepConfig(ps=[], rs=[1], suites=["identity"]))
        with pytest.raises(ConfigError):
            run_config(SweepConfig(ps=[3], rs=[1], suites=["identity"], format="xml"))
        with pytest.raises(ConfigError):
            run_config(SweepConfig(ps=[3], rs=[1], suites=["identity"], jobs=0))

    @pytest.mark.parametrize("argv,flag", [
        (("--suite", "lemma1", "--seed", "1", "--trials", "-3"), "--trials"),
        (("--suite", "lemma1", "--seed", "1", "--trials", "0"), "--trials"),
        (("--suite", "thm2", "--digits", "0-2", "--nu-max", "0"), "--nu-max"),
        (("--suite", "deltaH", "--h", "-1"), "--h"),
        (("--suite", "lemma1", "--seed", "-1"), "--seed"),
        (("--suite", "lemmaD", "--orders", "0"), "--orders"),
        (("--suite", "lemmaD", "--orders", "3,1"), "--orders"),
        (("--suite", "identity", "--seed", "x"), "--seed"),  # does not parse
        # a repeated --p/--r flag replaces the 5 and 2 given first
        (("--suite", "identity", "--r", "0"), "--r"),
        (("--suite", "identity", "--r", "-1"), "--r"),
        (("--suite", "identity", "--r", "2,0"), "--r"),
        (("--suite", "identity", "--p", "1"), "--p"),
        (("--suite", "identity", "--p", "0,5"), "--p"),
        (("--suite", "identity", "--p", "-3"), "--p"),
        (("--suite", "thm2", "--digits", "0-2", "--nu-max", "65"), "--nu-max"),
        (("--suite", "corC-report", "--eps", "0.5"), "--eps"),
        (("--suite", "corC-report", "--eps", "0"), "--eps"),
        (("--suite", "corC-report", "--const", "-1"), "--const"),
    ])
    def test_bad_flag_value_is_usage_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "verify", "--p", "5", "--r", "2", *argv)
        assert code == 2 and out == "" and flag in err

    def test_out_of_range_degree_in_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("p = 5\nr = 0\nsuite = identity\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2 and out == "" and "--r" in err

    @pytest.mark.parametrize("value", ["abc", "0"])
    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_bad_budget_env_var_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                               command, value):
        monkeypatch.setenv(boxes.BUDGET_ENV_VAR, value)
        argv = ["--suite", "identity", "--p", "5", "--r", "2"]
        if command == "sweep":
            cfg = tmp_path / "cfg.txt"
            cfg.write_text("p = 5\nr = 2\nsuite = identity\n")
            argv = ["--config", str(cfg)]
        code, out, err = run_cli(capsys, command, *argv)
        assert code == 2 and out == "" and boxes.BUDGET_ENV_VAR in err

    def test_budget_flag_wins_over_the_env_var(self, monkeypatch, capsys):
        monkeypatch.setenv(boxes.BUDGET_ENV_VAR, "abc")
        code, out, _ = run_cli(capsys, "verify", "--suite", "identity", "--p", "5",
                               "--r", "2", "--budget", "100")
        assert code == 0 and out.count("pass") == 5

    def test_budget_default_resolved_once_per_run(self, monkeypatch):
        calls = []

        def default_budget():
            calls.append(1)
            return boxes.DEFAULT_BUDGET

        for module in (boxes, cli, suites, counting, oracles):
            if hasattr(module, "default_budget"):
                monkeypatch.setattr(module, "default_budget", default_budget)
        # the suites and fields of the cert_grid benchmark workload, fewer instances
        rows, code = run_config(SweepConfig(
            ps=[3, 5, 7], rs=[1, 2, 3], digits="intervals+random:4", seed=0, trials=4,
            suites=["identity", "est1", "thmA", "thmB", "thm1", "thm2", "corC-report",
                    "lemmaE", "lemma1"]))
        assert code == 0 and len(rows) > 500
        assert len(calls) == 1

    def test_run_never_writes_the_global_interval_precision(self, monkeypatch, capsys):
        writes = []
        ctx_type = type(mpmath.iv)
        for name in ("prec", "dps"):
            prop = getattr(ctx_type, name)

            def fset(ctx, value, fset=prop.fset, name=name):
                if ctx is mpmath.iv:
                    writes.append((name, value))
                fset(ctx, value)
            monkeypatch.setattr(ctx_type, name, property(prop.fget, fset))
        for name in ("thmB_C", "thmB_rhs", "thm1_threshold", "corC_hypothesis", "corC_rhs"):
            getattr(bounds, name).cache_clear()  # evaluate every bound afresh
        code, out, _ = run_cli(capsys, "verify", "--suite", "thmB,corC-report,thm1-existence",
                               "--p", "5,7,11,13", "--r", "2,3")
        assert code == 0 and out.count("\n") > 50
        assert writes == []

    @pytest.mark.parametrize("spec,message", [
        ("random:-2", "random digit-set count -2 must be >= 1"),
        ("random:0", "random digit-set count 0 must be >= 1"),
        ("random:3,9", "subset size 9 outside [1, 5]"),
        ("random:3,0", "subset size 0 outside [1, 5]"),
        ("random:2,2,9", "digit spec 'random:2,2,9' has 3 fields; use random:n or random:n,m"),
    ])
    def test_bad_random_digit_spec_is_an_error_row(self, capsys, spec, message):
        code, out, _ = run_cli(capsys, "verify", "--suite", "identity", "--p", "5", "--r", "2",
                               "--seed", "0", "--digits", spec)
        assert code == 1
        assert list(csv.reader(io.StringIO(out)))[1:] == [
            ["identity", "5", "2", f"error:ValueError:{message}", "", "", "", "fail"]]

    @pytest.mark.parametrize("spec", ["all-size-14", "random:1000000000", "random:100000,14"])
    def test_digit_spec_past_the_budget_is_one_budget_row(self, capsys, spec):
        # C(29, 14) sets would take gigabytes; the spec is refused before it is expanded
        code, out, _ = run_cli(capsys, "verify", "--suite", "identity,partition", "--p", "29",
                               "--r", "2", "--seed", "0", "--digits", spec, "--budget", "1000")
        assert code == 0
        assert list(csv.reader(io.StringIO(out)))[1:] == [
            [suite, "29", "2", "all;budget", "", "", "", "skip-hypothesis"]
            for suite in ("identity", "partition")]

    @pytest.mark.parametrize("spec,digits", [
        ("all-size-2", 10 * 2), ("random:3,2", 3 * 2), ("random:3", 3 * 5)])
    def test_digit_spec_budget_is_its_total_digit_count(self, spec, digits):
        ctx = live_field(5, 2)
        assert suites.digit_instances(ctx, TaskOptions(5, 2, digits=spec, seed=0,
                                                       budget=digits))
        with pytest.raises(BudgetExceeded, match=f"requires {digits} elements"):
            suites.digit_instances(ctx, TaskOptions(5, 2, digits=spec, seed=0,
                                                    budget=digits - 1))

    def test_corrupted_quad_table_is_the_tasks_error_row(self, capsys, monkeypatch):
        real = characters.quad_table

        def corrupted(ctx):
            tab = real(ctx).copy()
            tab[ctx.from_coords((1, 1)).idx] = 0  # a nonzero element classified as zero
            return tab

        monkeypatch.setattr(characters, "quad_table", corrupted)
        code, out, _ = run_cli(capsys, "verify", "--suite", "identity", "--p", "5", "--r", "2")
        assert code == 1
        [row] = list(csv.reader(io.StringIO(out)))[1:]
        assert row[:3] == ["identity", "5", "2"] and row[-1] == "fail"
        assert row[3].startswith("error:InvariantViolation:square-count identity violated")

    def test_p_two_stays_an_error_row(self):
        rows, code = run_config(SweepConfig(ps=[2], rs=[1], suites=["identity"]))
        assert code == 1
        assert [r.verdict for r in rows] == ["fail"] and "error" in rows[0].instance

    def test_smallest_accepted_inputs(self):
        SweepConfig(ps=[5], rs=[2], suites=["lemma1"], seed=0, trials=1, h=0,
                    nu_max=1, orders=(2,)).validate()

    def test_largest_accepted_nu_max(self):
        SweepConfig(ps=[5], rs=[2], suites=["thm2"], nu_max=NU_MAX_CAP).validate()

    def test_errored_instance_becomes_fail_row(self):
        # p = 9 is composite: the task errors and the sweep reports, not crashes
        cfg = SweepConfig(ps=[9], rs=[1], suites=["identity"])
        rows, code = run_config(cfg)
        assert code == 1
        assert rows[0].verdict == "fail" and "error" in rows[0].instance

    def test_csv_rendering_stable(self):
        cfg = SweepConfig(ps=[3], rs=[2], suites=["est1"])
        rows, _ = run_config(cfg)
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == ",".join(ROW_FIELDS)


class TestFieldMajorRuns:
    SUITES = ["identity", "thmB", "thm2", "thm1-existence", "corC-report", "lemmaE"]

    def _cfg(self, suites, jobs=1):
        return SweepConfig(ps=[5, 41], rs=[1, 2], suites=suites, jobs=jobs,
                           digits="intervals+random:3", seed=11, trials=4, nu_max=2)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_run_equals_one_run_per_suite(self, jobs):
        cfg = self._cfg(self.SUITES, jobs)
        rows, code = run_config(cfg)
        separate = [row for suite in self.SUITES
                    for row in run_config(self._cfg([suite]))[0]]
        # the oracle: each task on a fresh field with fresh counts
        fresh = []
        for suite in self.SUITES:
            for p in cfg.ps:
                for r in cfg.rs:
                    live_field.cache_clear()
                    fresh += cli._run_task((suite, cli._task_options(cfg, p, r)))
        assert rows == separate == fresh
        assert code == 0
        assert any(row.suite == "thm1-existence" and row.verdict == "pass" for row in rows)

    def test_each_field_built_and_each_digit_set_counted_once(self, monkeypatch):
        built, counted = [], []

        def make_field(p, r):
            built.append((p, r))
            return fields.make_field(p, r)

        def count_squares(box, budget=None, **kwargs):
            counted.append((box.ctx.p, box.ctx.r, box.digits[0]))
            return counting.count_squares(box, budget, **kwargs)

        monkeypatch.setattr(suites, "make_field", make_field)
        monkeypatch.setattr(suites, "count_squares", count_squares)
        run_config(SweepConfig(ps=[3, 5], rs=[1, 2], suites=["identity", "est1", "thmA"]))
        assert built == [(3, 1), (3, 2), (5, 1), (5, 2)]
        assert len(counted) == len(set(counted)) == 3 + 3 + 5 + 5  # t = 1..p per field
        assert live_field.cache_info().currsize == 0

    def test_digit_sets_drawn_and_boxes_built_once_per_field(self, monkeypatch):
        parsed, boxed = [], []

        def parse_digit_spec(spec, p):
            parsed.append(p)
            return boxes.parse_digit_spec(spec, p)

        class CountingBox(boxes.DigitBox):
            @classmethod
            def uniform(cls, ctx, digits):
                boxed.append((ctx.p, ctx.r, tuple(digits)))
                return boxes.DigitBox.uniform(ctx, digits)

        monkeypatch.setattr(suites, "parse_digit_spec", parse_digit_spec)
        monkeypatch.setattr(suites, "DigitBox", CountingBox)
        rows, _ = run_config(SweepConfig(ps=[3, 5], rs=[1, 2], digits="0-1+2",
                                         suites=["identity", "est1", "thm1"]))
        assert parsed == [3, 3, 3, 3, 5, 5, 5, 5]  # two parts, once per field
        assert boxed == [(p, r, ds) for p in (3, 5) for r in (1, 2) for ds in ((0, 1), (2,))]
        assert len(rows) > len(boxed)

    def test_cached_count_never_bypasses_budget(self):
        ctx = live_field(5, 2)
        full = square_census(ctx, range(3), None)
        assert ctx._cache["counts"] == {(0, 1, 2): full}  # only the report; dropped with the field
        assert square_census(ctx, range(3), 9) is full
        with pytest.raises(BudgetExceeded):
            square_census(ctx, range(3), 8)

    def test_one_budget_check_per_census(self, monkeypatch):
        checks = []

        def check_budget(n, budget=None, what="enumeration of the box"):
            checks.append(what)
            return boxes.check_budget(n, budget, what)

        monkeypatch.setattr(suites, "check_budget", check_budget)
        monkeypatch.setattr(counting, "check_budget", check_budget)
        ctx = fields.make_field(5, 2)
        miss = square_census(ctx, range(3), None)
        assert checks == ["exact square counting"]
        assert square_census(ctx, range(3), None) is miss
        assert checks == ["exact square counting"] * 2


class FakePool:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    made = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.submitted = None
        FakePool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        live_field.cache_clear()  # a worker's field ends with the worker

    def map(self, fn, tasks):
        self.submitted = list(tasks)
        return [fn(t) for t in self.submitted]


class TestJobsClamp:
    @pytest.fixture(autouse=True)
    def fake_pool(self, monkeypatch):
        FakePool.made = []
        # run_config imports concurrent.futures only for a pool, and finds the fake there
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)

    @pytest.mark.parametrize("jobs,cpus,n_ps,workers", [
        (64, 4, 2, 4),     # clamped to the cores
        (64, 16, 1, 2),    # clamped to the two tasks
        (3, 16, 2, 3),     # as asked
        (64, None, 2, 1),  # unknown core count: no pool at all
    ])
    def test_pool_size(self, monkeypatch, jobs, cpus, n_ps, workers):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        cfg = SweepConfig(ps=[5, 3][:n_ps], rs=[1], suites=["identity", "est1"], jobs=jobs)
        rows, _ = run_config(cfg)
        assert [pool.max_workers for pool in FakePool.made] == ([workers] if workers > 1 else [])
        assert live_field.cache_info().currsize == 0
        assert rows == run_config(SweepConfig(ps=cfg.ps, rs=[1], suites=cfg.suites))[0]

    def test_tasks_submitted_field_major(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        run_config(SweepConfig(ps=[5, 3], rs=[2, 1], suites=["identity", "est1"], jobs=2))
        submitted = [(suite, opts.p, opts.r) for suite, opts in FakePool.made[0].submitted]
        assert submitted == [(s, p, r) for p in (3, 5) for r in (1, 2)
                             for s in ("identity", "est1")]


COLD_START = """
import contextlib, io, sys
import digitsquares.cli
assert "mpmath" not in sys.modules, "imported by digitsquares.cli"
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [digitsquares.cli.main(["verify", "--suite",
                                    "identity,est1,thmA,thm1,thm1-existence",
                                    "--p", "101", "--r", "3"]),
             digitsquares.cli.main(["estimate", "--p", "101", "--r", "20", "--digits", "0-46",
                                    "--n", "300", "--seed", "0"])]
assert codes == [0, 0], codes
assert "mpmath" not in sys.modules, "imported by a census or estimate command"
from digitsquares.bounds import thmB_rhs
print(repr(thmB_rhs(5, 3, 2)))
assert "mpmath" not in sys.modules, "imported by thmB_rhs"
"""


def test_census_and_estimate_never_import_mpmath():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # C(p, t) is the float above the exact value, as the 40-digit interval
    # evaluation gave it (at 53 bits it would be 121.85820068498386)
    assert proc.stdout.strip() == repr(bounds.thmB_rhs(5, 3, 2)) == "121.85820068498374"


CERT_GRID = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import digitsquares.cli
from workloads import commands
codes = []
for cmd in commands("cert_grid", 0):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(digitsquares.cli.main(cmd))
assert codes == [0, 0], codes
assert "mpmath" not in sys.modules, "imported by a cert_grid command"
"""


def test_cert_grid_never_imports_mpmath():
    """Both cert_grid command lines at seed 0 in a fresh process: every
    right-hand side and lemma magnitude comes from the integer kernel."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CERT_GRID, str(root / "perfbench")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
