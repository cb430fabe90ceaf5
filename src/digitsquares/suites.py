"""Verification suites: one function per named check family.

Each suite takes TaskOptions for one (p, r) field and returns report rows.
All randomness is derived from the configured seed plus (p, r), so
identical configurations reproduce identical rows.  Which rows a task
gets is decided in this order, the first that applies winning:

1. a precondition on (p, r) and the options alone fails (r >= 2,
   2r-1 <= sqrt(p), a deltaH side H <= p): one skip row, and the field is
   not built;
2. the field cannot be built: one error row (run_config turns any
   other exception a suite raises into the task's error row);
3. a precondition checked once the field is built fails (thm1-existence:
   the threshold exceeds p-1): one skip row; or a suite that walks the
   whole field (lemmaD, lemmaE) or expands its digit-set spec would exceed
   the budget: the suite raises BudgetExceeded and run_config writes the
   task's one "all;budget" skip row; or lemmaE's q is above the table cap,
   where orders above 2 have no discrete logs: one skip row;
4. per instance: its right-hand side raises HypothesisNotMet: a skip row;
5. per instance: its exhaustive count would exceed the budget: a budget
   skip row;
6. otherwise the instance's rows: pass/fail, or report-only where the
   source results do not quantify the bound.

The eight census suites (identity, est1, thmA, thmB, thm1, thm1-existence,
thm2, corC-report) run steps 4-6 through one skeleton, _census; the
bound rows of thmA, thmB, thm1 and thm2 are decided in one place,
_bound_row, by an exact comparison of the deviation with the certified
float.  Suites take their field from live_field, a one-entry cache, and
their digit sets and square counts from digit_instances and square_census,
which keep them on the field: a run orders its tasks field-major, so each
(p, r) is built once, its digit sets drawn once and each digit set counted
once per process.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bounds
from .boxes import (DigitBox, IntervalBox, check_budget, format_digit_set,
                    parse_digit_spec)
from .characters import make_char, table_fits
from .counting import SquareCountReport, count_squares
from .errors import BudgetExceeded, HypothesisNotMet
from .fields import FieldCtx, divisors, make_field
from .oracles import (delta_H, energy_count, generator_elements, lemma1_pair_reports,
                      lemmaD_reports, lemmaE_reports, subfield_partition)
from .reporting import Row, slack_ratio


@dataclass(frozen=True)
class TaskOptions:
    p: int
    r: int
    digits: str | None = None
    seed: int | None = None
    budget: int | None = None
    trials: int | None = None
    h: int = 0             # 0 = suite-specific default
    eps: float = 0.25
    const: float = 1.0
    nu_max: int = 4
    orders: tuple[int, ...] | None = None


@functools.lru_cache(maxsize=1)
def live_field(p: int, r: int) -> FieldCtx:
    """F_{p^r} as this process last built it: a one-entry cache.

    Asking for another (p, r) drops the previous field, and with it every
    table and square count cached on it.  run_config clears the cache when
    it returns; a pool worker keeps its entry for its whole life.
    """
    return make_field(p, r)


def square_census(ctx: FieldCtx, digits, budget: int | None) -> SquareCountReport:
    """count_squares of the box D^r, kept in ctx._cache with the basis-tied tables.

    Reports are looked up by the digit tuple, so a hit builds no DigitBox,
    and a miss reads only the table rows its set adds to or drops from the
    last set counted on the field (counting._table_sums).  Each call checks
    the budget exactly once: count_squares does on a miss, check_budget on
    the report's |W| on a hit, so a cached count never bypasses the budget.
    """
    counts = ctx._cache.setdefault("counts", {})
    key = tuple(digits)
    rep = counts.get(key)
    if rep is None:
        rep = counts[key] = count_squares(DigitBox.uniform(ctx, key), budget)
    else:
        check_budget(rep.size_w, budget, what="exact square counting")
    return rep


def _needs_seed(opts: TaskOptions, why: str):
    if opts.seed is None:
        raise ValueError(f"a seed is required for {why}")


def digit_instances(ctx: FieldCtx, opts: TaskOptions) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(label, digit set) pairs for the field ctx, from the digit-set spec.

    Spec forms, combinable with '+': "intervals" (all {0..t-1}),
    "all-size-m", "random:n" or "random:n,m" (seeded), or an explicit
    residue list like "0-4,7".  Built once per field: the pairs are kept in
    ctx._cache, keyed by (spec, seed, budget), and dropped with the field.
    An all-size or random part whose sets hold more digits in all than the
    budget raises BudgetExceeded before it is expanded.
    """
    cache = ctx._cache.setdefault("instances", {})
    key = (opts.digits, opts.seed, opts.budget)
    if key in cache:
        return cache[key]
    p = opts.p
    spec = opts.digits or "intervals"
    out = []
    for part in spec.split("+"):
        part = part.strip()
        if part == "intervals":
            out.extend((format_digit_set(range(t)), tuple(range(t)))
                       for t in range(1, p + 1))
        elif part.startswith("all-size-"):
            m = int(part[len("all-size-"):])
            if not 1 <= m <= p:
                raise ValueError(f"subset size {m} outside [1, {p}]")
            check_budget(math.comb(p, m) * m, opts.budget, f"the digit sets of {part}")
            out.extend((format_digit_set(c), tuple(c))
                       for c in itertools.combinations(range(p), m))
        elif part.startswith("random:"):
            _needs_seed(opts, "random digit sets")
            args = part[len("random:"):].split(",")
            if len(args) > 2:
                raise ValueError(f"digit spec {part!r} has {len(args)} fields; "
                                 "use random:n or random:n,m")
            n = int(args[0])
            if n < 1:
                raise ValueError(f"random digit-set count {n} must be >= 1")
            fixed = int(args[1]) if len(args) > 1 else None
            if fixed is not None and not 1 <= fixed <= p:
                raise ValueError(f"subset size {fixed} outside [1, {p}]")
            check_budget(n * (fixed or p), opts.budget, f"the digit sets of {part}")
            rng = np.random.default_rng([opts.seed, p, opts.r])
            for i in range(n):
                size = fixed if fixed is not None else int(rng.integers(1, p + 1))
                ds = tuple(sorted(int(v) for v in rng.choice(p, size=size, replace=False)))
                out.append((f"rnd{i}={format_digit_set(ds)}", ds))
        else:
            ds = parse_digit_spec(part, p)
            out.append((format_digit_set(ds), ds))
    cache[key] = tuple(out)
    return cache[key]


def _skip_row(suite, opts, instance, note) -> Row:
    return Row(suite, opts.p, opts.r, f"{instance};{note}", verdict="skip-hypothesis")


# ---------------------------------------------------------------------------
# census suites: one exact square count per digit set against a right-hand side

def _census(suite, opts, ctx, instances, rows_of, rhs_of=None, hyp_note=None) -> list[Row]:
    """The count-or-skip loop of every census suite, on the field ctx.

    Per (label, digits) instance: the right-hand side rhs_of(digits), whose
    HypothesisNotMet becomes a skip noted hyp_note (default: its message);
    then the count, whose BudgetExceeded becomes a budget skip; then the
    rows rows_of(label, digits, count report, right-hand side).
    """
    rows = []
    for label, ds in instances:
        try:
            rhs = rhs_of(ds) if rhs_of else None
        except HypothesisNotMet as exc:
            rows.append(_skip_row(suite, opts, label, hyp_note or exc))
            continue
        try:
            rep = square_census(ctx, ds, opts.budget)
        except BudgetExceeded:
            rows.append(_skip_row(suite, opts, label, "budget"))
            continue
        rows.extend(rows_of(label, ds, rep, rhs))
    return rows


def _bound_row(suite, opts, label, observed: Fraction, rhs: float) -> Row:
    """An exact deviation against a certified float bound.

    A finite rhs is the ratio a / b of two integers, so n / d <= a / b is
    decided as n b <= a d on integers (both denominators are positive), and
    the verdict is never a rounding artifact; rhs = inf passes.
    """
    if math.isfinite(rhs):
        a, b = rhs.as_integer_ratio()
        holds = observed.numerator * b <= a * observed.denominator
    else:
        holds = rhs > 0
    return Row(suite, opts.p, opts.r, label, lhs=observed, rhs=rhs,
               slack=slack_ratio(observed, rhs), verdict="pass" if holds else "fail")


def suite_identity(opts: TaskOptions) -> list[Row]:
    """|W ∩ Q| = (|W| - [0 in W])/2 + (1/2) sum chi(x), exactly.

    count_squares raises InvariantViolation where the identity fails, so a
    row that gets here passes; its rhs cell is the identity's right side.
    """
    def rows_of(label, ds, rep, _):
        z = 1 if rep.zero_in_w else 0
        return [Row("identity", opts.p, opts.r, label, lhs=rep.count_q,
                    rhs=Fraction(rep.size_w - z + rep.char_sum, 2))]
    ctx = live_field(opts.p, opts.r)
    return _census("identity", opts, ctx, digit_instances(ctx, opts), rows_of)


def suite_est1(opts: TaskOptions) -> list[Row]:
    """Deviation of |W ∩ Q| is at most |sum chi| / 2 + 1/2, exactly.

    count_squares raises InvariantViolation where the identity fails, and
    the identity gives deviation = |sum chi - [0 in W]| / 2, which is at
    most the rhs, so a row that gets here passes.
    """
    def rows_of(label, ds, rep, _):
        rhs = Fraction(abs(rep.char_sum) + 1, 2)
        return [Row("est1", opts.p, opts.r, label,
                    lhs=rep.deviation, rhs=rhs, slack=slack_ratio(rep.deviation, rhs))]
    ctx = live_field(opts.p, opts.r)
    return _census("est1", opts, ctx, digit_instances(ctx, opts), rows_of)


def suite_thmA(opts: TaskOptions) -> list[Row]:
    """Digit sets with 2 <= |D| <= p-1; one skip row when there is none."""
    ctx = live_field(opts.p, opts.r)
    instances = [(label, ds) for label, ds in digit_instances(ctx, opts)
                 if 2 <= len(ds) <= opts.p - 1]
    if not instances:
        return [_skip_row("thmA", opts, "all", "no digit set with 2 <= |D| <= p-1")]
    return _census(
        "thmA", opts, ctx, instances,
        lambda label, ds, rep, rhs: [_bound_row("thmA", opts, label, rep.deviation_q0, rhs)],
        lambda ds: bounds.thmA_rhs(opts.p, opts.r, len(ds)))


def suite_thmB(opts: TaskOptions) -> list[Row]:
    """Initial intervals D = {0..t-1} only; t = p-1 rows are hypothesis skips."""
    ctx = live_field(opts.p, opts.r)
    instances = [(format_digit_set(range(t)), tuple(range(t))) for t in range(2, opts.p)]
    return _census(
        "thmB", opts, ctx, instances,
        lambda label, ds, rep, rhs: [_bound_row("thmB", opts, label, rep.deviation_q0, rhs)],
        lambda ds: bounds.thmB_rhs(opts.p, opts.r, len(ds)),
        hyp_note="C(p,t) undefined at t=p-1")


def suite_thm1(opts: TaskOptions) -> list[Row]:
    if not bounds.thm1_hypothesis(opts.p, opts.r):
        return [_skip_row("thm1", opts, "all", "needs 2r-1 <= sqrt(p)")]
    ctx = live_field(opts.p, opts.r)
    return _census(
        "thm1", opts, ctx, digit_instances(ctx, opts),
        lambda label, ds, rep, rhs: [_bound_row("thm1", opts, label, rep.deviation, rhs)],
        lambda ds: bounds.thm1_rhs(opts.p, opts.r, len(ds)))


def suite_thm1_existence(opts: TaskOptions) -> list[Row]:
    """Every initial interval at or above the threshold must contain a square."""
    if opts.r < 2:
        return [_skip_row("thm1-existence", opts, "all", "needs r >= 2")]
    if not bounds.thm1_hypothesis(opts.p, opts.r):
        return [_skip_row("thm1-existence", opts, "all", "needs 2r-1 <= sqrt(p)")]
    ctx = live_field(opts.p, opts.r)
    threshold = bounds.thm1_threshold(opts.p, opts.r)
    t_min = math.ceil(threshold)
    if t_min > opts.p - 1:
        return [_skip_row("thm1-existence", opts, f"threshold={threshold!r}",
                          "threshold exceeds p-1; no digit set to test")]

    def rows_of(label, ds, rep, _):
        return [Row("thm1-existence", opts.p, opts.r, f"{label};threshold={threshold!r}",
                    lhs=rep.count_q, rhs=1, verdict="pass" if rep.count_q >= 1 else "fail")]
    instances = [(f"t={t}", tuple(range(t))) for t in range(t_min, opts.p)]
    return _census("thm1-existence", opts, ctx, instances, rows_of)


def suite_thm2(opts: TaskOptions) -> list[Row]:
    """One row per split index k < r and nu <= nu_max, built after the count."""
    if opts.r < 2:
        return [_skip_row("thm2", opts, "all", "the split needs r >= 2")]

    def rows_of(label, ds, rep, _):
        return [_bound_row("thm2", opts, f"{label};k={k};nu={nu}", rep.deviation,
                           bounds.thm2_rhs(opts.p, opts.r, len(ds), k, nu))
                for k in range(1, opts.r) for nu in range(1, opts.nu_max + 1)]
    ctx = live_field(opts.p, opts.r)
    return _census("thm2", opts, ctx, digit_instances(ctx, opts), rows_of)


def suite_corC_report(opts: TaskOptions) -> list[Row]:
    """Report-only: the corollary's bound carries an unspecified constant."""
    def rows_of(label, ds, rep, rhs):
        return [Row("corC-report", opts.p, opts.r, label,
                    lhs=rep.deviation, rhs=rhs, slack=slack_ratio(rep.deviation, rhs),
                    verdict="report-only")]
    ctx = live_field(opts.p, opts.r)
    instances = [(f"t={t};eps={opts.eps!r};const={opts.const!r}", tuple(range(t)))
                 for t in range(2, opts.p + 1)]
    return _census("corC-report", opts, ctx, instances, rows_of,
                   lambda ds: bounds.corC_rhs(opts.p, opts.r, len(ds), opts.eps, opts.const),
                   hyp_note="t below p^(1/4+eps)")


# ---------------------------------------------------------------------------
# lemma suites

def _lemma_row(suite, opts, label, rep) -> Row:
    return Row(suite, opts.p, opts.r, label,
               lhs=rep.lhs, rhs=rep.rhs, slack=rep.slack,
               verdict="pass" if rep.holds else "fail")


def suite_lemmaD(opts: TaskOptions) -> list[Row]:
    """Exhaustive over ordered non-conjugate generator pairs, per character order.

    Raises BudgetExceeded when q (the degree sieve) or p G^2 (the terms of
    the G^2 pair sums) exceeds the budget; the task becomes one budget skip
    row.
    """
    ctx = live_field(opts.p, opts.r)
    check_budget(ctx.q, opts.budget, "the degree sieve over F_q")
    gens = generator_elements(ctx)
    check_budget(opts.p * len(gens) ** 2, opts.budget, "the terms of the generator-pair sums")
    orders = opts.orders or tuple(s for s in (2, 3, 4) if (ctx.q - 1) % s == 0)
    rows = []
    for s in orders:
        if (ctx.q - 1) % s != 0:
            rows.append(_skip_row("lemmaD", opts, f"s={s}", "s does not divide q-1"))
            continue
        rows.extend(_lemma_row("lemmaD", opts, f"s={s};a={alpha.idx};b={beta.idx}", rep)
                    for alpha, beta, rep in lemmaD_reports(ctx, gens, s))
    return rows


def suite_lemmaE(opts: TaskOptions) -> list[Row]:
    """Seeded shifted-product instances; raises BudgetExceeded (one budget
    skip row for the task) when q exceeds the budget, since every instance
    sums over all of F_q; one skip row above the table cap.  All trials are
    drawn first, the shifts as index arrays, and evaluated in one
    lemmaE_reports call.
    """
    _needs_seed(opts, "random shifted-product instances")
    ctx = live_field(opts.p, opts.r)
    check_budget(ctx.q, opts.budget, "complete sums over F_q")
    if not table_fits(ctx):
        return [_skip_row("lemmaE", opts, "all", "needs q <= 2^20 for orders above 2")]
    n_trials = opts.trials if opts.trials is not None else 200
    rng = np.random.default_rng([opts.seed, opts.p, opts.r, 2])
    divs = divisors(ctx.q - 1)
    big = [s for s in divs if s > 1]
    t_hi = min(5, ctx.q)  # the lemma needs t < q
    trials = []
    for _ in range(n_trials):
        t = int(rng.integers(1, t_hi))
        orders, indices = [], []
        for _ in range(t):
            s = int(divs[rng.integers(0, len(divs))])
            orders.append(s)
            indices.append(int(rng.integers(0, s)))
        if all(j % s == 0 for s, j in zip(orders, indices)):
            s = int(big[rng.integers(0, len(big))])
            orders[-1] = s
            indices[-1] = int(rng.integers(1, s))
        chars = [make_char(ctx, s, j) for s, j in zip(orders, indices)]
        trials.append((chars, rng.choice(ctx.q, size=t, replace=False)))
    return [_lemma_row("lemmaE", opts, f"trial{i};t={len(chars)}", rep)
            for i, ((chars, _), rep) in enumerate(zip(trials, lemmaE_reports(ctx, trials)))]


def suite_lemma1(opts: TaskOptions) -> list[Row]:
    """Seeded (U, V) pairs, one row per nu = 1, 2, 3 from one sum per pair;
    all pairs are drawn first, as index arrays, and counted in one call."""
    _needs_seed(opts, "random (U, V) pairs")
    ctx = live_field(opts.p, opts.r)
    n_trials = opts.trials if opts.trials is not None else 100
    rng = np.random.default_rng([opts.seed, opts.p, opts.r, 3])
    cap = min(ctx.q, 25)
    pairs = []
    for _ in range(n_trials):
        su = int(rng.integers(1, cap + 1))
        sv = int(rng.integers(1, cap + 1))
        pairs.append((rng.choice(ctx.q, size=su, replace=False),
                      rng.choice(ctx.q, size=sv, replace=False)))
    rows = []
    for i, ((U, V), reports) in enumerate(zip(pairs, lemma1_pair_reports(ctx, pairs, (1, 2, 3)))):
        rows.extend(_lemma_row("lemma1", opts, f"trial{i};|U|={U.size};|V|={V.size};"
                               f"nu={rep.parameters['nu']}", rep) for rep in reports)
    return rows


def suite_partition(opts: TaskOptions) -> list[Row]:
    """Subfield partition sizes, checked against the degree-1 rule.

    The walk visits all |D|^(r-1) tuples and vec_degrees yields only
    divisors of r, so the row's lhs always equals its rhs; what can fail is
    the degree-1 class, which is {0-tuple} exactly when 0 is a digit.
    """
    if opts.r < 2:
        return [_skip_row("partition", opts, "all", "needs r >= 2")]
    ctx = live_field(opts.p, opts.r)
    rows = []
    for label, ds in digit_instances(ctx, opts):
        try:
            part = subfield_partition(ctx, ds, budget=opts.budget)
        except BudgetExceeded:
            rows.append(_skip_row("partition", opts, label, "budget"))
            continue
        d1_ok = part.get(1, []) == ([(0,) * (opts.r - 1)] if 0 in ds else [])
        sizes = ",".join(f"{d}:{len(part[d])}" for d in sorted(part))
        rows.append(Row("partition", opts.p, opts.r, f"{label};sizes={sizes}",
                        lhs=sum(len(v) for v in part.values()),
                        rhs=len(ds) ** (opts.r - 1), verdict="pass" if d1_ok else "fail"))
    return rows


def suite_energy(opts: TaskOptions) -> list[Row]:
    """Cubic interval boxes at the origin, sides up to sqrt(p).

    The asserted fact is only the unconditional diagonal lower bound
    E >= |B|^2, which energy_count raises InvariantViolation on, so a row
    that gets here passes; the slack column carries the report-only ratio
    E / (|B|^2 log p).  Sides above p are no box sides: one skip row
    stands for all of them.
    """
    ctx = live_field(opts.p, opts.r)
    h_max = opts.h if opts.h > 0 else math.isqrt(opts.p)
    rows = []
    for h in range(1, min(h_max, opts.p) + 1):
        box = IntervalBox(ctx, (0,) * opts.r, (h,) * opts.r)
        try:
            rep = energy_count(box, opts.budget)
        except BudgetExceeded:
            rows.append(_skip_row("energy", opts, box.describe(), "budget"))
            continue
        note = "" if rep.within_lemma_hypothesis else ";outside-hypothesis"
        rows.append(Row("energy", opts.p, opts.r, f"{box.describe()}{note}",
                        lhs=rep.energy, rhs=rep.trivial_lower, slack=rep.ratio))
    if h_max > opts.p:
        rows.append(_skip_row("energy", opts, f"H={opts.p + 1}..{h_max}", "needs H <= p"))
    return rows


def suite_deltaH(opts: TaskOptions) -> list[Row]:
    """Report-only worst-case normalised box sums for the quadratic character;
    a side H above p is no box side, and gets one skip row."""
    h = opts.h if opts.h > 0 else 1
    if h > opts.p:
        return [_skip_row("deltaH", opts, f"H={h}", "needs H <= p")]
    ctx = live_field(opts.p, opts.r)
    chi = make_char(ctx, 2, 1)
    try:
        rep = delta_H(ctx, h, chi, opts.budget)
    except BudgetExceeded:
        return [_skip_row("deltaH", opts, f"H={h}", "budget")]
    return [Row("deltaH", opts.p, opts.r,
                f"H={h};best={rep.best_box.describe()};boxes={rep.n_boxes}",
                lhs=rep.delta, rhs=1.0, slack=rep.delta,
                verdict="report-only")]


SUITES = {
    "identity": suite_identity,
    "est1": suite_est1,
    "thmA": suite_thmA,
    "thmB": suite_thmB,
    "thm1": suite_thm1,
    "thm1-existence": suite_thm1_existence,
    "thm2": suite_thm2,
    "lemmaD": suite_lemmaD,
    "lemmaE": suite_lemmaE,
    "lemma1": suite_lemma1,
    "partition": suite_partition,
    "energy": suite_energy,
    "deltaH": suite_deltaH,
    "corC-report": suite_corC_report,
}
