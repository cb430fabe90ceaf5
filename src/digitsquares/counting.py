"""Exact and sampled counting of squares inside digit boxes.

An exact count of a box W = D_1 x ... x D_r returns |W ∩ Q| and the sum of
the quadratic character chi over W, and verifies the linking identity

    |W ∩ Q| = (|W| - [0 in W]) / 2 + (1/2) * sum_{x in W} chi(x)

before returning.  Under the polynomial basis (ctx.poly_basis) no element
of W is enumerated while the monic elements fit the cap (table_fits and
monic_fits pick the tier).  For q <= 2^20 chi is read as an r-way tensor
in coordinates (characters.eta_tensor, which states the axis order), and
both sums are r single-axis reductions of it, one of chi and one of
[chi = 1], so the identity checks every table row the first time a census
reads it.  The first reduction, over the rows D_r, is the only one over
p^{r-1} entries per row; it is a sum of at most p values in {-1, 0, 1}
per entry and so runs in the narrowest signed integer type that holds -p,
and the field keeps it in ctx._cache between censuses as FirstAxisSums,
so the next census reads only the rows its D_r adds or drops.  The later reductions run in int64.  For q > 2^20 with
(q-1)/(p-1) <= 2^20 the monic table alone serves: W splits by the
position k and value l of its top nonzero coordinate, and each part is
the same axis reduction on slab k of the monic table with the digit sets
scaled by l^-1 (_monic_sums).  Larger fields and other bases walk the box
once in blocks through quad_char_coords (the Legendre symbol of the norm
N(x) above 2^20).  Sampling uses quad_char_coords too.  No path
builds a discrete-log table.
Deviations from |W|/2 are kept as exact rationals (half-integers); nothing
in this module ever compares floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boxes import DigitBox, check_budget, poly_blocks, sample_coords
from .characters import (eta_tensor, inverse_table, monic_fits, monic_offsets,
                         monic_table, quad_char_coords, scalar_char, table_fits)
from .errors import InvariantViolation
from .fields import vec_from_coords

Z99 = 2.5758293035489004  # two-sided 99% normal quantile
# table entries per first-axis block: the block and its [chi = 1] mask stay
# under glibc's 128 KiB mmap threshold, so they reuse heap memory instead of
# faulting in fresh pages as a growing chain of boxes (the intervals) would
REDUCE_BLOCK = 1 << 16


@dataclass(frozen=True)
class SquareCountReport:
    size_w: int
    count_q: int           # |W ∩ Q|, nonzero squares
    count_q0: int          # |W ∩ Q_0|, squares including 0
    char_sum: int          # exact sum of the quadratic character over W
    deviation: Fraction    # |count_q - size_w / 2|
    zero_in_w: bool

    @property
    def deviation_q0(self) -> Fraction:
        """|count_q0 - size_w / 2|, the quantity the thmA/thmB bounds control."""
        return Fraction(abs(2 * self.count_q0 - self.size_w), 2)

    @property
    def count_nonsquares(self) -> int:
        return self.size_w - self.count_q - (1 if self.zero_in_w else 0)


class FirstAxisSums:
    """The first-axis reduction of a field's quad table over a set of rows.

    rows is a sorted digit tuple D; sq and chi are the (p^{r-1},) sums of
    [chi = 1] and of chi over the table rows in D, in the narrowest signed
    type that holds -p (None before the first census).  Every state is a
    sum over a subset of the p rows, so it stays within [-p, p].
    """

    __slots__ = ("rows", "sq", "chi")

    def __init__(self):
        self.clear()

    def clear(self):
        """Forget every row: the next census reads all of its own."""
        self.rows, self.sq, self.chi = (), None, None


def count_squares(box: DigitBox, budget: int | None = None) -> SquareCountReport:
    """Exact square census of a box; refuses boxes larger than the budget.

    On the table path the field's FirstAxisSums, kept in ctx._cache, carries
    the first-axis reduction from the field's previous census to this one.
    """
    ctx = box.ctx
    size = check_budget(box.size(), budget, what="exact square counting")
    zero_in = box.contains_zero()
    if ctx.poly_basis and table_fits(ctx):
        count_q, char_sum = _table_sums(box)
    elif ctx.poly_basis and monic_fits(ctx):
        count_q, char_sum = _monic_sums(box)
    else:
        count_q = 0
        char_sum = 0
        for poly in poly_blocks(box):
            vals = quad_char_coords(ctx, poly)
            count_q += int(np.count_nonzero(vals == 1))
            char_sum += int(vals.sum())
    z = 1 if zero_in else 0
    if 2 * count_q != size - z + char_sum:
        if "first_axis" in ctx._cache:
            ctx._cache["first_axis"].clear()  # the rows it holds may be the corrupted ones
        raise InvariantViolation(
            f"square-count identity violated: 2 * {count_q} != {size} - {z} + {char_sum}")
    return SquareCountReport(
        size_w=size,
        count_q=count_q,
        count_q0=count_q + z,
        char_sum=char_sum,
        deviation=Fraction(abs(2 * count_q - size), 2),
        zero_in_w=zero_in,
    )


def _table_sums(box: DigitBox) -> tuple[int, int]:
    """(count_q, char_sum) of a box, contracting eta_tensor axis by axis.

    Its .T has the last coordinate on axis 0: D_r is reduced first, then
    D_{r-1}, and so on.
    The first reduction is the only one over p^{r-1} entries per row of
    D_r, and the field's FirstAxisSums carries it from the previous census:
    the rows D_r adds are added and the rows it drops subtracted.  It
    restarts from zero when the two sets differ in more rows than D_r has,
    or in none: a repeated set is counted afresh, since a census that read
    no row would check none (square_census answers repeats from its report
    cache).  Each of its sums adds at most p values in {-1, 0, 1}, so it
    runs exactly in the narrowest signed type that holds -p (int8 up to
    p = 127, int16 below 2^15, int32 above), over at most REDUCE_BLOCK
    table entries at a time.  The identity in count_squares therefore
    checks each table row when a census of the chain reads it.  The later
    axes sum in int64.
    """
    ctx = box.ctx
    *rest, last = box.digits
    tab = eta_tensor(ctx).T.reshape(ctx.p, -1)
    running = ctx._cache.setdefault("first_axis", FirstAxisSums())
    held, want = set(running.rows), set(last)
    add = [d for d in last if d not in held]
    drop = [d for d in running.rows if d not in want]
    if running.sq is None or not 0 < len(add) + len(drop) <= len(last):
        acc = np.min_scalar_type(-ctx.p)
        running.sq = np.zeros(tab.shape[1], dtype=acc)
        running.chi = np.zeros(tab.shape[1], dtype=acc)
        add, drop = last, ()
    _add_rows(running, tab, add, np.add)
    _add_rows(running, tab, drop, np.subtract)
    running.rows = last
    sq = running.sq.reshape((ctx.p,) * (ctx.r - 1))
    chi = running.chi.reshape(sq.shape)
    for s in reversed(rest):
        s = np.asarray(s, dtype=np.intp)
        sq = np.take(sq, s, axis=0).sum(axis=0, dtype=np.int64)
        chi = np.take(chi, s, axis=0).sum(axis=0, dtype=np.int64)
    return int(sq), int(chi)


def _add_rows(running: FirstAxisSums, tab: np.ndarray, rows, op) -> None:
    """running.sq, running.chi op= the sums over the given table rows."""
    step = max(1, REDUCE_BLOCK // tab.shape[1])
    for lo in range(0, len(rows), step):
        block = np.take(tab, rows[lo:lo + step], axis=0)
        op(running.sq, (block == 1).sum(axis=0, dtype=running.sq.dtype), out=running.sq)
        op(running.chi, block.sum(axis=0, dtype=running.chi.dtype), out=running.chi)


def _monic_sums(box: DigitBox) -> tuple[int, int]:
    """(count_q, char_sum) of a box from the monic table, slab by slab.

    A nonzero x of W has its top nonzero coordinate l = x_k in D_k and
    x_j = 0 for j > k, so slab k counts only when 0 is in every D_j,
    j > k.  Then x = l m with m monic in slab k, m_j = x_j / l in
    D_j l^-1, and eta(x) = (l / p)^r eta(m):

        sum_{x in W} eta(x) = sum_k sum_{l in D_k - 0} (l / p)^r
                              sum_{m in slab k, m_j in D_j l^-1} eta(m),

    and count_q counts the m with eta(m) = (l / p)^r in a reduction of its
    own, so the identity in count_squares stays a check.  Each inner sum is
    _table_sums' axis reduction on the p^k-entry slab with the digit sets
    scaled by l^-1, run for a block of l at once: the first axis gathers
    the scaled rows of D_{k-1}, at most REDUCE_BLOCK entries at a time, in
    the narrowest signed type that holds -p, and the later axes take each
    l's scaled digits along the axis after the block's.
    """
    ctx = box.ctx
    p, r = ctx.p, ctx.r
    sets = box.digits
    mon, sign, inv = monic_table(ctx), scalar_char(ctx), inverse_table(ctx)
    offsets, acc = monic_offsets(p, r), np.min_scalar_type(-p)
    count_q = char_sum = 0
    for k in range(r - 1, -1, -1):
        ells = np.asarray([d for d in sets[k] if d], dtype=np.int64)
        slab = mon[offsets[k]:offsets[k] + p ** k]
        if k == 0:  # the monic element 1
            count_q += int(np.count_nonzero(sign[ells] == slab[0]))
            char_sum += int(slab[0]) * int(sign[ells].sum())
        elif ells.size:
            rows = slab.reshape(p, -1)
            first = np.asarray(sets[k - 1], dtype=np.int64)
            step = max(1, REDUCE_BLOCK // (first.size * rows.shape[1]))
            for lo in range(0, ells.size, step):
                scale, s = inv[ells[lo:lo + step]], sign[ells[lo:lo + step]]
                sq, chi = _scaled_first_axis(rows, first * scale[:, None] % p, s, acc)
                pick = np.arange(s.size)[:, None]
                for j in range(k - 2, -1, -1):
                    digits = np.asarray(sets[j], dtype=np.int64) * scale[:, None] % p
                    sq = sq.reshape(s.size, p, -1)[pick, digits].sum(axis=1, dtype=np.int64)
                    chi = chi.reshape(s.size, p, -1)[pick, digits].sum(axis=1, dtype=np.int64)
                count_q += int(sq.sum())
                char_sum += int((chi.sum(axis=1, dtype=np.int64) * s).sum())
        if 0 not in sets[k]:
            break
    return count_q, char_sum


def _scaled_first_axis(rows: np.ndarray, scaled: np.ndarray, s: np.ndarray, acc):
    """(L, width) sums of [eta = s_l] and of eta over the rows scaled[l] of
    a monic slab, one row per l of the block, at most REDUCE_BLOCK table
    entries at a time."""
    n, width = s.size, rows.shape[1]
    sq = np.zeros((n, width), dtype=acc)
    chi = np.zeros((n, width), dtype=acc)
    step = max(1, REDUCE_BLOCK // (n * width))
    for lo in range(0, scaled.shape[1], step):
        block = rows[scaled[:, lo:lo + step]]
        sq += (block == s[:, None, None]).sum(axis=1, dtype=acc)
        chi += block.sum(axis=1, dtype=acc)
    return sq, chi


@dataclass(frozen=True)
class FractionEstimate:
    estimate: float
    ci_low: float
    ci_high: float
    n_samples: int
    n_squares: int
    caveat_small_counts: bool  # normal approximation dubious when n*p̂ < 20


def estimate_square_fraction(box: DigitBox, n: int, seed: int) -> FractionEstimate:
    """Monte-Carlo estimate of |W ∩ Q| / |W| with a 99% normal-approximation CI."""
    if n < 100:
        raise ValueError("need at least 100 samples for the normal-approximation CI")
    ctx = box.ctx
    rng = np.random.default_rng(seed)
    hits = 0
    block = 1 << 14
    remaining = n
    while remaining > 0:
        take = min(block, remaining)
        poly = vec_from_coords(ctx, sample_coords(box, take, rng))
        hits += int(np.count_nonzero(quad_char_coords(ctx, poly) == 1))
        remaining -= take
    p_hat = hits / n
    half = Z99 * (p_hat * (1.0 - p_hat) / n) ** 0.5
    return FractionEstimate(
        estimate=p_hat,
        ci_low=max(0.0, p_hat - half),
        ci_high=min(1.0, p_hat + half),
        n_samples=n,
        n_squares=hits,
        caveat_small_counts=min(hits, n - hits) < 20,
    )
