"""Batch experiment runner.

Subcommands: field, count, verify, sweep, estimate.  verify runs named
suites over a (p, r) grid directly from flags; sweep does the same from a
key=value config file with flag overrides (flags win).  Reports are CSV or
JSON with a fixed schema and deterministic content, so identical
configurations produce byte-identical files.

Exit codes: 0 all checks passed, 1 any check failed or an instance errored,
2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys
from dataclasses import dataclass, field

from .boxes import BUDGET_ENV_VAR, DigitBox, parse_digit_spec
from .counting import count_squares, estimate_square_fraction
from .errors import BudgetExceeded
from .fields import make_field, poly_str
from .reporting import Row, rows_to_csv, rows_to_json, summary_line
from .suites import SUITES, TaskOptions, live_field


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
    digits: str | None = None
    budget: int | None = None
    seed: int | None = None
    out: str | None = None
    format: str = "csv"
    jobs: int = 1
    const: float = 1.0
    trials: int | None = None
    h: int = 0
    eps: float = 0.25
    nu_max: int = 4
    orders: tuple[int, ...] | None = None

    def validate(self):
        if not self.ps:
            raise ConfigError("no characteristics given (--p)")
        if not self.rs:
            raise ConfigError("no extension degrees given (--r)")
        if not self.suites:
            raise ConfigError("no suites given (--suite)")
        for s in self.suites:
            if s not in SUITES:
                raise ConfigError(
                    f"unknown suite {s!r}; available: {', '.join(sorted(SUITES))}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        if self.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        if self.budget is not None and self.budget <= 0:
            raise ConfigError("--budget must be positive")
        needs_seed = (any(s in ("lemmaE", "lemma1") for s in self.suites)
                      or (self.digits or "").find("random") >= 0)
        if needs_seed and self.seed is None:
            raise ConfigError("a --seed is mandatory when randomness is requested")


_CONFIG_KEYS = {
    "p": "ps", "r": "rs", "suite": "suites", "digits": "digits",
    "budget": "budget", "seed": "seed", "out": "out", "format": "format",
    "jobs": "jobs", "const": "const", "trials": "trials", "h": "h",
    "eps": "eps", "nu-max": "nu_max", "orders": "orders",
}


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


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
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown key {key!r}", lineno, 1)
            try:
                _assign(cfg, _CONFIG_KEYS[key], value)
            except ValueError as exc:
                raise ConfigError(str(exc), lineno, col) from None
    return cfg


def _assign(cfg: SweepConfig, attr: str, value: str):
    if attr in ("ps", "rs"):
        setattr(cfg, attr, _parse_int_list(value))
    elif attr == "suites":
        setattr(cfg, attr, [tok.strip() for tok in value.split(",") if tok.strip()])
    elif attr == "orders":
        setattr(cfg, attr, tuple(_parse_int_list(value)))
    elif attr in ("budget", "seed", "jobs", "trials", "h", "nu_max"):
        setattr(cfg, attr, int(value))
    elif attr in ("const", "eps"):
        setattr(cfg, attr, float(value))
    else:
        setattr(cfg, attr, value)


def _task_options(cfg: SweepConfig, p: int, r: int) -> TaskOptions:
    return TaskOptions(p=p, r=r, digits=cfg.digits, seed=cfg.seed,
                       budget=cfg.budget, trials=cfg.trials, h=cfg.h,
                       eps=cfg.eps, const=cfg.const, nu_max=cfg.nu_max,
                       orders=cfg.orders)


def _run_task(task) -> list[Row]:
    suite, opts = task
    try:
        return SUITES[suite](opts)
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
    sub.add_argument("--p", help="comma list of characteristics")
    sub.add_argument("--r", help="comma list of extension degrees")
    sub.add_argument("--suite", help="comma list of suite names")
    sub.add_argument("--digits", help="digit-set spec (e.g. 0-4,7 | intervals | random:200)")
    sub.add_argument("--budget", type=int, help=f"enumeration budget (default ${BUDGET_ENV_VAR} or 10^8)")
    sub.add_argument("--seed", type=int, help="seed for randomised instances")
    sub.add_argument("--jobs", type=int, help="worker pool size (default 1)")
    sub.add_argument("--out", help="report file path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), help="report format")
    sub.add_argument("--const", type=float, help="user constant for the corollary bound")
    sub.add_argument("--trials", type=int, help="random instances per field for lemma suites")
    sub.add_argument("--h", type=int, help="side parameter for energy/deltaH suites")
    sub.add_argument("--eps", type=float, help="epsilon for the corollary bound")
    sub.add_argument("--nu-max", type=int, dest="nu_max", help="largest nu in the thm2 grid")
    sub.add_argument("--orders", help="comma list of character orders for lemmaD")


def _apply_flags(cfg: SweepConfig, args: argparse.Namespace):
    if args.p is not None:
        cfg.ps = _parse_int_list(args.p)
    if args.r is not None:
        cfg.rs = _parse_int_list(args.r)
    if args.suite is not None:
        cfg.suites = [tok.strip() for tok in args.suite.split(",") if tok.strip()]
    if args.orders is not None:
        cfg.orders = tuple(_parse_int_list(args.orders))
    for name in ("digits", "budget", "seed", "jobs", "out", "format",
                 "const", "trials", "h", "eps", "nu_max"):
        val = getattr(args, name)
        if val is not None:
            setattr(cfg, name, val)


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
    ctx = make_field(args.p, args.r)
    digits = parse_digit_spec(args.digits, args.p)
    box = DigitBox.uniform(ctx, digits)
    try:
        rep = count_squares(box, args.budget)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
