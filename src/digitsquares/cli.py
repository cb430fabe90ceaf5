"""Batch experiment runner.

Subcommands: field, count, verify, sweep, estimate.  verify runs named
suites over a (p, r) grid directly from flags; sweep does the same from a
key=value config file with flag overrides (flags win).  Reports are CSV or
JSON with a fixed schema and deterministic content, so identical
configurations produce byte-identical files.

Every verify/sweep option is declared once, in OPTIONS.  A config value
and its flag share one parser, and SweepConfig.validate bounds the result,
so a bad value exits 2 from either source.  validate also resolves an
unset budget once per run, from the environment, so every task carries an
int.  Suites read options as the TaskOptions fields of the same names,
whose defaults SweepConfig reuses.

Exit codes: 0 all checks passed, 1 any check failed or an instance errored,
2 usage or configuration errors, or a count or estimate over the budget.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Any, Callable, NamedTuple

from .boxes import (BUDGET_ENV_VAR, DigitBox, check_budget, default_budget,
                    parse_digit_spec)
from .counting import count_squares, estimate_square_fraction
from .errors import BudgetExceeded
from .fields import make_field, poly_str
from .reporting import Row, rows_to_csv, rows_to_json, summary_line
from .suites import SUITES, TaskOptions, live_field

# thm2_rhs works on exact integers that grow with nu: on a 2-core Xeon one
# call on F_13^3 takes 0.5 ms at nu = 64 and 3 ms at nu = 200
NU_MAX_CAP = 64


class ConfigError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(f"{message}{where}")


@dataclass
class SweepConfig:
    ps: list[int] = field(default_factory=list)
    rs: list[int] = field(default_factory=list)
    suites: list[str] = field(default_factory=list)
    digits: str | None = TaskOptions.digits
    budget: int | None = TaskOptions.budget
    seed: int | None = TaskOptions.seed
    out: str | None = None
    format: str = "csv"
    jobs: int = 1
    const: float = TaskOptions.const
    trials: int | None = TaskOptions.trials
    h: int = TaskOptions.h
    eps: float = TaskOptions.eps
    nu_max: int = TaskOptions.nu_max
    orders: tuple[int, ...] | None = TaskOptions.orders

    def validate(self):
        if not self.ps:
            raise ConfigError("no characteristics given (--p)")
        if not self.rs:
            raise ConfigError("no extension degrees given (--r)")
        if not self.suites:
            raise ConfigError("no suites given (--suite)")
        if any(p < 2 for p in self.ps):
            raise ConfigError("--p entries must all be >= 2")
        if any(r < 1 for r in self.rs):
            raise ConfigError("--r entries must all be >= 1")
        for s in self.suites:
            if s not in SUITES:
                raise ConfigError(
                    f"unknown suite {s!r}; available: {', '.join(sorted(SUITES))}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        if self.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        if self.budget is None:  # resolved once per run; tasks carry the int
            try:
                self.budget = default_budget()
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        elif self.budget <= 0:
            raise ConfigError("--budget must be positive")
        if self.seed is not None and self.seed < 0:
            raise ConfigError("--seed must be >= 0")
        if self.trials is not None and self.trials < 1:
            raise ConfigError("--trials must be >= 1")
        if self.h < 0:
            raise ConfigError("--h must be >= 0 (0 picks the suite's default)")
        if not 1 <= self.nu_max <= NU_MAX_CAP:
            raise ConfigError(f"--nu-max must be in [1, {NU_MAX_CAP}]")
        if any(s < 2 for s in self.orders or ()):
            raise ConfigError("--orders must all be >= 2")
        if not 0 < self.eps <= 0.25:
            raise ConfigError("--eps must be in (0, 1/4]")
        if not self.const > 0:
            raise ConfigError("--const must be positive")
        needs_seed = (any(s in ("lemmaE", "lemma1") for s in self.suites)
                      or (self.digits or "").find("random") >= 0)
        if needs_seed and self.seed is None:
            raise ConfigError("a --seed is mandatory when randomness is requested")


def _names(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in _names(text)]


class Option(NamedTuple):
    attr: str                     # the SweepConfig field it sets
    parse: Callable[[str], Any]   # the same for a config value and a flag
    help: str


# Every run option by config key; its flag is --key, in this order in --help.
OPTIONS: dict[str, Option] = {
    "p": Option("ps", _ints, "comma list of characteristics"),
    "r": Option("rs", _ints, "comma list of extension degrees"),
    "suite": Option("suites", _names, "comma list of suite names"),
    "digits": Option("digits", str, "digit-set spec (e.g. 0-4,7 | intervals | random:200)"),
    "budget": Option("budget", int, f"enumeration budget (default ${BUDGET_ENV_VAR} or 10^8)"),
    "seed": Option("seed", int, "seed for randomised instances"),
    "jobs": Option("jobs", int, "worker pool size (default 1)"),
    "out": Option("out", str, "report file path (default stdout)"),
    "format": Option("format", str, "report format: csv or json"),
    "const": Option("const", float, "user constant for the corollary bound"),
    "trials": Option("trials", int, "random instances per field for lemma suites"),
    "h": Option("h", int, "side parameter for energy/deltaH suites"),
    "eps": Option("eps", float, "epsilon for the corollary bound"),
    "nu-max": Option("nu_max", int, "largest nu in the thm2 grid"),
    "orders": Option("orders", lambda text: tuple(_ints(text)),
                     "comma list of character orders for lemmaD"),
}


def parse_config_file(path: str) -> SweepConfig:
    cfg = SweepConfig()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].rstrip("\n")
            if not line.strip():
                continue
            if "=" not in line:
                raise ConfigError("expected key = value", lineno, 1)
            key, _, value = line.partition("=")
            col = len(key) + 2
            key, value = key.strip(), value.strip()
            if key not in OPTIONS:
                raise ConfigError(f"unknown key {key!r}", lineno, 1)
            opt = OPTIONS[key]
            try:
                setattr(cfg, opt.attr, opt.parse(value))
            except ValueError as exc:
                raise ConfigError(str(exc), lineno, col) from None
    return cfg


def _task_options(cfg: SweepConfig, p: int, r: int) -> TaskOptions:
    return TaskOptions(p=p, r=r, **{f.name: getattr(cfg, f.name)
                                    for f in fields(TaskOptions) if f.name not in ("p", "r")})


def _run_task(task) -> list[Row]:
    suite, opts = task
    try:
        return SUITES[suite](opts)
    except BudgetExceeded:  # a walk over the whole field: one skip for the task
        return [Row(suite, opts.p, opts.r, "all;budget", verdict="skip-hypothesis")]
    except Exception as exc:  # an errored instance must not kill the sweep
        return [Row(suite, opts.p, opts.r, f"error:{type(exc).__name__}:{exc}",
                    verdict="fail")]


def run_config(cfg: SweepConfig) -> tuple[list[Row], int]:
    """Run every (suite, p, r) task; rows come back in deterministic task order.

    Tasks run field-major (by (p, r), then in task order), so a process
    builds each field once and counts each digit set once: live_field keeps
    the last field until this call returns, or for the life of a pool
    worker.  The rows are put back in suite-major task order.
    """
    cfg.validate()
    tasks = [(suite, _task_options(cfg, p, r))
             for suite in cfg.suites for p in cfg.ps for r in cfg.rs]
    order = sorted(range(len(tasks)), key=lambda i: (tasks[i][1].p, tasks[i][1].r, i))
    jobs = min(cfg.jobs, os.cpu_count() or 1, len(tasks))
    try:
        if jobs > 1:
            import concurrent.futures

            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                done = list(pool.map(_run_task, [tasks[i] for i in order]))
        else:
            done = [_run_task(tasks[i]) for i in order]
    finally:
        live_field.cache_clear()
    chunks = [None] * len(tasks)
    for i, chunk in zip(order, done):
        chunks[i] = chunk
    rows = [row for chunk in chunks for row in chunk]
    failed = any(row.verdict == "fail" for row in rows)
    return rows, (1 if failed else 0)


def _add_sweep_flags(sub: argparse.ArgumentParser):
    for key, opt in OPTIONS.items():
        sub.add_argument(f"--{key}", dest=opt.attr, metavar=key.upper().replace("-", "_"),
                         help=opt.help)


def _apply_flags(cfg: SweepConfig, args: argparse.Namespace):
    for key, opt in OPTIONS.items():
        text = getattr(args, opt.attr)
        if text is not None:
            try:
                setattr(cfg, opt.attr, opt.parse(text))
            except ValueError as exc:
                raise ConfigError(f"--{key}: {exc}") from None


def _cmd_field(args) -> int:
    ctx = make_field(args.p, args.r)
    if args.format == "json":
        import json
        print(json.dumps({
            "p": ctx.p, "r": ctx.r, "q": ctx.q,
            "modulus": list(ctx.modulus), "modulus_str": poly_str(ctx.modulus),
            "basis": [list(ctx.index_to_poly_coords(b)) for b in ctx.basis_indices],
        }, indent=2))
    else:
        print(f"p = {ctx.p}")
        print(f"r = {ctx.r}")
        print(f"q = {ctx.q}")
        print(f"modulus = {poly_str(ctx.modulus)}")
        basis = ", ".join(poly_str(ctx.index_to_poly_coords(b)) for b in ctx.basis_indices)
        print(f"basis = {basis}")
    return 0


def _cmd_count(args) -> int:
    if args.budget is not None and args.budget <= 0:
        raise ConfigError("--budget must be positive")
    ctx = make_field(args.p, args.r)
    digits = parse_digit_spec(args.digits, args.p)
    box = DigitBox.uniform(ctx, digits)
    rep = count_squares(box, args.budget)
    if args.format == "json":
        import json
        print(json.dumps({
            "p": args.p, "r": args.r, "digits": args.digits,
            "size_w": rep.size_w, "count_q": rep.count_q, "count_q0": rep.count_q0,
            "char_sum": rep.char_sum, "deviation": str(rep.deviation),
            "zero_in_w": rep.zero_in_w,
        }, indent=2))
    else:
        print(f"|W| = {rep.size_w}")
        print(f"|W ∩ Q| = {rep.count_q}")
        print(f"|W ∩ Q0| = {rep.count_q0}")
        print(f"char_sum = {rep.char_sum}")
        print(f"deviation = {rep.deviation}")
    return 0


def _cmd_estimate(args) -> int:
    check_budget(args.n, None, "Monte-Carlo samples")
    ctx = make_field(args.p, args.r)
    digits = parse_digit_spec(args.digits, args.p)
    box = DigitBox.uniform(ctx, digits)
    est = estimate_square_fraction(box, args.n, args.seed)
    if args.format == "json":
        import json
        print(json.dumps({
            "estimate": est.estimate, "ci_low": est.ci_low, "ci_high": est.ci_high,
            "n_samples": est.n_samples, "n_squares": est.n_squares,
            "caveat_small_counts": est.caveat_small_counts,
        }, indent=2))
    else:
        print(f"square fraction ≈ {est.estimate} "
              f"(99% CI [{est.ci_low}, {est.ci_high}], n = {est.n_samples})")
        if est.caveat_small_counts:
            print("caveat: few successes/failures; normal approximation is dubious")
    return 0


def _cmd_run(args) -> int:
    """verify and sweep: sweep starts from its config file, then flags win."""
    cfg = parse_config_file(args.config) if args.command == "sweep" else SweepConfig()
    _apply_flags(cfg, args)
    rows, code = run_config(cfg)
    text = rows_to_csv(rows) if cfg.format == "csv" else rows_to_json(rows)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(summary_line(rows), file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="digitsquares",
        description="Count squares in digit-restricted finite-field sets and "
                    "verify the explicit character-sum bounds.")
    subs = ap.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("field", help="construct a field and print its description")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=_cmd_field)

    sp = subs.add_parser("count", help="exact square census of one digit box")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--digits", required=True)
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=_cmd_count)

    sp = subs.add_parser("estimate", help="Monte-Carlo square fraction of one digit box")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--digits", required=True)
    sp.add_argument("--n", type=int, default=10000)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=_cmd_estimate)

    sp = subs.add_parser("verify", help="run verification suites from flags")
    _add_sweep_flags(sp)
    sp.set_defaults(fn=_cmd_run)

    sp = subs.add_parser("sweep", help="run suites from a key=value config file")
    sp.add_argument("--config", required=True)
    _add_sweep_flags(sp)
    sp.set_defaults(fn=_cmd_run)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
