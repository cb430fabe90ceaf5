"""Brute-force verification of the lemma-level inequalities on small fields.

Each check computes its left-hand side exactly (an integer for quadratic
characters, a CycloSum magnitude interval otherwise) and compares it with a
certified float upper bound of the right-hand side.  The Lemma 1 moment
bound and the Lemma D and Lemma E bounds are algebraic and placed exactly by
integer arithmetic (`bounds._float_above`), with no intervals and no mpmath;
a Lemma E bound at square q is an integer and is returned as it is.  Each
check reports holds / slack.  Mathematical preconditions that fail raise
HypothesisNotMet so sweep drivers can mark the row skipped rather than
failed.  lemmaD_reports proves the Lemma D hypotheses once for all its
pairs and yields only instances of the lemma, so its suite skips no pair;
a walk over the whole field that exceeds the budget is refused once per
task, before any check runs (see suites).  lemmaE_reports and
lemma1_pair_reports check all trials of a field first and then evaluate
them in vectorised chunks; lemmaE_check, lemma1_reports and lemma1_check
are one-trial calls into them.

Upper bounds that the source results state only up to unspecified constants
(the multiplicative-energy count, the normalised box sums) are reported as
slack ratios and never asserted; the only asserted energy fact is the
unconditional diagonal lower bound E >= |B|^2, counted exactly from the
field-kernel products of all pairs in B for every q, with no discrete logs.
The normalised box sums Delta(H, chi) (root order 1 or 2) are read from
wrapped prefix sums of chi along each axis of characters.eta_tensor, a
summed-area table.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .boxes import (BLOCK, DigitBox, IntervalBox, check_budget, coords_blocks,
                    poly_blocks)
from .bounds import _float_above, _memoised
from .characters import (CycloSum, MultChar, _element_indices, dlog_table, eta_tensor,
                         make_char, quad_char_coords)
from .errors import HypothesisNotMet, InvariantViolation
from .fields import (FieldCtx, FieldElem, _kernel_dtype, _mul_cm, frobenius_matrix,
                     vec_decode, vec_degrees, vec_encode, vec_from_coords)
from .reporting import slack_ratio

PAIR_CHUNK = 1 << 19  # product coefficients per kernel call in energy_count


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    parameters: dict = field(compare=False)
    lhs: float = 0.0     # exact when integral; interval midpoint otherwise
    rhs: float = 0.0     # certified upper bound
    holds: bool = True

    @property
    def slack(self) -> float:
        return slack_ratio(self.lhs, self.rhs)


def _report(lemma: str, params: dict, total: CycloSum, rhs: float) -> LemmaReport:
    lo, hi = total.magnitude_interval()
    # a violation is reported only when even the certified lower bound exceeds rhs
    return LemmaReport(lemma, params, lhs=(lo + hi) / 2.0, rhs=rhs, holds=lo <= rhs)


# ---------------------------------------------------------------------------
# two-generator Weil-type sums over the prime subfield (the lemmaD check)

def lemmaD_reports(ctx: FieldCtx, gens, s: int, index: int = 1):
    """Yield (alpha, beta, report) for every ordered non-conjugate pair of
    gens, alpha the outer loop: |sum_xi chi((xi+alpha)(xi+beta)^{s-1})| <=
    (2r - 1) sqrt(p).

    Both hypotheses are proved once, on the Frobenius orbits of gens: an
    element generates F_q exactly when no Frob^k with 0 < k < r fixes it
    (else HypothesisNotMet), and two generators are conjugate exactly when
    their orbits share their smallest index.  The character and the (G, p)
    exponent rows of xi + alpha are built once, and the certified report
    once per distinct count vector.
    """
    if s < 2 or (ctx.q - 1) % s != 0:
        raise ValueError(f"character order s = {s} must be >= 2 and divide q - 1")
    if math.gcd(index, s) != 1:
        raise ValueError(f"index {index} gives a character of order below {s}")
    idx = np.asarray([a.idx for a in gens], dtype=np.int64)
    orbit, least = vec_decode(ctx, idx), idx.copy()
    for _ in range(1, ctx.r):
        orbit = orbit @ frobenius_matrix(ctx) % ctx.p
        image = vec_encode(ctx, orbit)
        if (image == idx).any():
            raise HypothesisNotMet("alpha and beta must generate F_q over F_p")
        np.minimum(least, image, out=least)
    pairs = [(i, j) for i in range(idx.size) for j in range(idx.size)
             if least[i] != least[j]]
    if not pairs:
        return
    chi = make_char(ctx, s, index)
    shifts = _shifted_indices(ctx, idx, 1)  # xi + alpha, xi = 0..p-1
    k = chi.exponents_for_indices(shifts.ravel()).reshape(shifts.shape)
    rhs = lemmaD_rhs(ctx.p, ctx.r)
    reports = {}  # pairs with equal counts differ only in their parameters
    for i, j in pairs:
        live = (k[i] >= 0) & (k[j] >= 0)  # chi(0) = 0 kills terms with a vanished factor
        # chi(a b^{s-1}) = zeta_s^{ k_a + (s-1) k_b mod s }
        exps = (k[i][live] + (s - 1) * k[j][live]) % s
        counts = tuple(np.bincount(exps, minlength=s).tolist())
        params = {"s": s, "j": index, "alpha": int(idx[i]), "beta": int(idx[j]),
                  "p": ctx.p, "r": ctx.r}
        if counts not in reports:
            reports[counts] = _report("D", params, CycloSum(s, counts), rhs)
        rep = reports[counts]
        yield gens[i], gens[j], LemmaReport("D", params, rep.lhs, rep.rhs, rep.holds)


def lemmaD_check(ctx: FieldCtx, alpha: FieldElem, beta: FieldElem,
                 s: int, index: int = 1) -> LemmaReport:
    """|sum_xi chi((xi+alpha)(xi+beta)^{s-1})| <= (2r - 1) sqrt(p), for one pair."""
    for _, _, rep in lemmaD_reports(ctx, [alpha, beta], s, index):
        return rep
    raise HypothesisNotMet("alpha and beta must not be conjugate")


@_memoised
def lemmaD_rhs(p: int, r: int) -> float:
    """(2r - 1) sqrt(p), exactly, for a prime p."""
    p, r = operator.index(p), operator.index(r)
    if r < 1:
        raise ValueError(f"r = {r} must be >= 1")
    return _float_above(0, 2 * r - 1, p, 1)


def generator_elements(ctx: FieldCtx) -> list[FieldElem]:
    """All elements of degree r, i.e. lying in no proper subfield."""
    degrees = vec_degrees(ctx, vec_decode(ctx, np.arange(ctx.q, dtype=np.int64)))
    return [FieldElem(ctx, int(idx)) for idx in np.flatnonzero(degrees == ctx.r)]


# ---------------------------------------------------------------------------
# complete sums of shifted character products (the lemmaE check)

def lemmaE_reports(ctx: FieldCtx, trials):
    """Yield one report per (chars, shifts) trial:
    |sum_a prod_i chi_i(a + h_i)| <= (t - t0 - 1) sqrt(q) + t0 + 1.

    Shifts are FieldElems or indices.  All trials are checked first, then
    evaluated in chunks of at most BLOCK (row, element) entries.  With L
    the lcm of a trial's orders, chi_i(a + h_i) = zeta_L^(e m_i), where
    m_i = j_i L / s_i and e is the dlog (orders above 2) or the eta
    exponent (orders 1 and 2) of a + h_i, each read once per chunk.
    np.add.reduceat sums each trial's rows and one offset np.bincount
    counts every trial; the a with some a + h_i = 0 go to an extra bin.
    """
    specs = []
    for chars, shifts in trials:
        t = len(chars)
        if t != len(shifts):
            raise ValueError("need one shift per character")
        if not 1 <= t < ctx.q:
            raise ValueError(f"t = {t} outside [1, q)")
        h = tuple(_element_indices(ctx, shifts).tolist())
        if len(set(h)) != t:
            raise ValueError("shifts must be pairwise distinct")
        if min(h) < 0 or max(h) >= ctx.q:
            raise ValueError(f"a shift index lies outside [0, {ctx.q})")
        t0 = sum(1 for c in chars if c.is_principal)
        if t0 == t:
            raise HypothesisNotMet("at least one character must be non-principal")
        specs.append((tuple(chars), h, t0))
    for chunk in _chunks(specs, [(len(chars) - t0) * ctx.q for chars, _, t0 in specs]):
        for (chars, h, t0), total in zip(chunk, _lemmaE_sums(ctx, chunk)):
            params = {"t": len(chars), "t0": t0, "orders": tuple(c.order for c in chars),
                      "indices": tuple(c.index for c in chars),
                      "shifts": h, "p": ctx.p, "r": ctx.r}
            yield _report("E", params, total, lemmaE_rhs(ctx.q, len(chars), t0))


def _chunks(items: list, sizes: list[int]):
    """Consecutive slices of items whose sizes add up to at most BLOCK, or
    a single item that alone exceeds it."""
    lo = 0
    while lo < len(items):
        hi, total = lo + 1, sizes[lo]
        while hi < len(items) and total + sizes[hi] <= BLOCK:
            total += sizes[hi]
            hi += 1
        yield items[lo:hi]
        lo = hi


def _lemmaE_sums(ctx: FieldCtx, specs):
    """Yield the CycloSum of each checked (chars, shifts, t0) trial."""
    lcms, starts, shifts, mults, big, dead_rows, dead_shifts = [], [], [], [], [], [], []
    for k, (chars, h, _) in enumerate(specs):
        lcm = math.lcm(*(c.order for c in chars))
        lcms.append(lcm)
        starts.append(len(shifts))
        for c, x in zip(chars, h):
            if not c.is_principal:
                shifts.append(x)
                mults.append(c.index * (lcm // c.order))
                big.append(c.order > 2)
        dead_rows.extend([k] * len(h))
        dead_shifts.extend(h)
    idx = _shifted_indices(ctx, np.asarray(shifts, dtype=np.int64), ctx.r)
    big = np.asarray(big)
    eta = None if big.all() else make_char(ctx, 2, 1)  # the one non-principal below order 3
    if not big.any():
        exps = eta.exponents_for_indices(idx)
    else:  # every row read from the discrete logs, the eta rows then overwritten
        exps = np.take(dlog_table(ctx), idx)
        if eta is not None:
            exps[~big] = eta.exponents_for_indices(idx[~big])
    del idx
    exps *= np.asarray(mults, dtype=np.int64)[:, None]
    sums = np.add.reduceat(exps, starts, axis=0)
    del exps
    lcms = np.asarray(lcms, dtype=np.int64)
    offsets = np.cumsum(lcms) - lcms
    sums %= lcms[:, None]
    sums += offsets[:, None]
    neg = -vec_decode(ctx, np.asarray(dead_shifts, dtype=np.int64)) % ctx.p
    sums[dead_rows, vec_encode(ctx, neg)] = lcms.sum()  # the extra bin
    counts = np.bincount(sums.ravel(), minlength=int(lcms.sum()) + 1)
    del sums
    for o, n in zip(offsets.tolist(), lcms.tolist()):
        yield CycloSum(n, counts[o:o + n].tolist())


def _shifted_indices(ctx: FieldCtx, h: np.ndarray, low: int) -> np.ndarray:
    """(n, p^low) int64 indices of a + h[i], a in index order with poly
    coordinates 0 from low on (low = r: F_q, low = 1: F_p): an outer sum
    over j of ((0..p-1) + c_j(h[i]) mod p) p^j below low, and of the one
    fixed column c_j(h[i]) p^j from low on."""
    p = ctx.p
    digits = vec_decode(ctx, h)
    out = np.zeros((h.size, 1), dtype=np.int64)
    for j in range(ctx.r - 1, -1, -1):
        axis = digits[:, j, None] if j >= low else (np.arange(p) + digits[:, j, None]) % p
        out = (out[:, :, None] + ctx._ppow[j] * axis[:, None, :]).reshape(h.size, -1)
    return out


def lemmaE_check(ctx: FieldCtx, chars: list[MultChar], shifts: list[FieldElem]) -> LemmaReport:
    """|sum_a prod_i chi_i(a + h_i)| <= (t - t0 - 1) sqrt(q) + t0 + 1, for one trial."""
    return next(lemmaE_reports(ctx, [(chars, shifts)]))


@_memoised
def lemmaE_rhs(q: int, t: int, t0: int) -> float:
    """(t - t0 - 1) sqrt(q) + t0 + 1, exactly, for t0 < t.

    At square q the value is an integer, returned as the float at or
    above it (the integer itself below 2^53).
    """
    q, t, t0 = map(operator.index, (q, t, t0))
    if t0 >= t:
        raise ValueError(f"t0 = {t0} must be below t = {t}")
    s = math.isqrt(q)
    if s * s != q:
        return _float_above(0, t - t0 - 1, q, 1, shift=t0 + 1)
    n = (t - t0 - 1) * s + t0 + 1
    f = float(n)
    return f if f >= n else math.nextafter(f, math.inf)


# ---------------------------------------------------------------------------
# bilinear quadratic-character sums over U + V (the lemma1 check)

@_memoised
def lemma1_rhs(q: int, nu: int, size_u: int, size_v: int) -> float:
    """|U|^{1 - 1/2nu} ((2nu)!/nu! |V|^nu q + 4 nu |V|^{2nu} sqrt(q))^{1/2nu}, exactly.

    |U|^{2nu-1} goes under the 2nu-th root, so _float_above places the whole
    product.
    """
    q, nu, size_u, size_v = map(operator.index, (q, nu, size_u, size_v))
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if size_u < 0 or size_v < 0:
        raise ValueError(f"|U| = {size_u} and |V| = {size_v} must be >= 0")
    lead = size_u ** (2 * nu - 1)
    fac = math.factorial(2 * nu) // math.factorial(nu)
    return _float_above(lead * fac * size_v ** nu * q,
                        lead * 4 * nu * size_v ** (2 * nu), q, 2 * nu)


def lemma1_pair_reports(ctx: FieldCtx, pairs, nus):
    """Yield, per (U, V) pair, its reports for each nu in nus:
    |sum_{u in U} sum_{v in V} chi(u + v)| against the moment bound.

    U and V hold FieldElems or indices.  All pairs are checked first; then
    one quad_char_coords call per chunk of at most BLOCK sums u + v counts
    every pair of the chunk, split by np.add.reduceat.
    """
    nus = tuple(nus)
    checked = []
    for U, V in pairs:
        u, v = _element_indices(ctx, U), _element_indices(ctx, V)
        if u.size == 0 or v.size == 0:
            raise ValueError("U and V must be nonempty")
        if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= ctx.q:
            raise ValueError(f"an element index of U or V lies outside [0, {ctx.q})")
        checked.append((u, v))
    for chunk in _chunks(checked, [u.size * v.size for u, v in checked]):
        for (u, v), lhs in zip(chunk, _lemma1_sums(ctx, chunk)):
            params = {"size_u": int(u.size), "size_v": int(v.size), "p": ctx.p, "r": ctx.r}
            reports = []
            for nu in nus:
                rhs = lemma1_rhs(ctx.q, nu, u.size, v.size)
                reports.append(LemmaReport("1", {"nu": nu, **params}, lhs=float(lhs),
                                           rhs=rhs, holds=lhs <= rhs))
            yield reports


def _lemma1_sums(ctx: FieldCtx, pairs) -> list[int]:
    """|sum chi(u + v)| of each (u, v) pair of index arrays."""
    cu = vec_decode(ctx, np.concatenate([u for u, _ in pairs]))
    cv = vec_decode(ctx, np.concatenate([v for _, v in pairs]))
    sizes = [u.size * v.size for u, v in pairs]
    sums = np.empty((sum(sizes), ctx.r), dtype=np.int64)
    row = iu = iv = 0
    for (u, v), n in zip(pairs, sizes):
        np.add(cu[iu:iu + u.size, None], cv[None, iv:iv + v.size],
               out=sums[row:row + n].reshape(u.size, v.size, ctx.r))
        row, iu, iv = row + n, iu + u.size, iv + v.size
    sums %= ctx.p
    starts = np.cumsum(sizes) - sizes
    return [abs(x) for x in
            np.add.reduceat(quad_char_coords(ctx, sums), starts, dtype=np.int64).tolist()]


def lemma1_reports(ctx: FieldCtx, U, V, nus):
    """lemma1_pair_reports of the one pair (U, V)."""
    yield from next(lemma1_pair_reports(ctx, [(U, V)], nus))


def lemma1_check(ctx: FieldCtx, U, V, nu: int) -> LemmaReport:
    """|sum_{u in U} sum_{v in V} chi(u + v)| against the moment bound, for one nu."""
    return next(lemma1_reports(ctx, U, V, (nu,)))


# ---------------------------------------------------------------------------
# subfield partition of digit tuples (the mechanism behind the thm1 bound)

def subfield_partition(ctx: FieldCtx, digits, basis=None,
                       budget: int | None = None) -> dict[int, list[tuple[int, ...]]]:
    """Partition D^{r-1} by the subfield degree of c_2 b_2 + ... + c_r b_r.

    b_j = a_j / a_1 normalises the installed (or supplied) basis so that
    b_1 = 1; the keys divide r and the degree-1 class is {0-tuple} exactly
    when 0 is a digit.  A supplied basis that is linearly dependent raises
    ValueError.
    """
    if ctx.r < 2:
        raise ValueError("the partition needs r >= 2")
    ds = tuple(sorted(set(int(c) for c in digits)))
    if not ds or ds[0] < 0 or ds[-1] >= ctx.p:
        raise ValueError(f"digits {digits} invalid for F_{ctx.p}")
    nctx = (ctx if basis is None else ctx.with_basis(basis)).normalized_basis()
    box = DigitBox(nctx, ((0,),) + (ds,) * (ctx.r - 1))
    check_budget(box.size(), budget, "subfield partition of the digit tuples")
    out: dict[int, list[tuple[int, ...]]] = {}
    for coords in coords_blocks(box):
        # degrees of c_2 b_2 + ... + c_r b_r
        degrees = vec_degrees(nctx, vec_from_coords(nctx, coords))
        for row, d in zip(coords[:, 1:], degrees):
            out.setdefault(int(d), []).append(tuple(int(c) for c in row))
    return out


# ---------------------------------------------------------------------------
# multiplicative energy

@dataclass(frozen=True)
class EnergyReport:
    box: str
    size: int
    energy: int                      # exact count of x1 x2 = x3 x4 in B^4
    trivial_lower: int               # |B|^2 diagonal solutions
    ratio: float                     # energy / (|B|^2 log p), report-only
    within_lemma_hypothesis: bool    # equal-sided interval box with H <= sqrt(p)


def energy_count(box: DigitBox, budget: int | None = None) -> EnergyReport:
    """Exact multiplicative energy via the product-multiplicity histogram.

    E = sum_w f(w)^2 with f(w) = #{(x, y) in B^2 : x y = w}; collisions of
    the product map are exactly the quadruple solutions, at O(|B|^2) cost.
    The nonzero elements x are decoded once; k of them at a time meet all
    m in one broadcast kernel call (k m r <= PAIR_CHUNK), which takes its
    slab products and writes its result in the same buffer.  Each call's
    np.unique (w, count) pair waits until the waiting pairs hold as many
    entries as the held (w, f(w)) pair, and then all merge into it at once
    (_merge_counts), so each entry is merged O(1) times on average and
    memory stays O(min(q, |B|^2)).
    """
    ctx = box.ctx
    n = box.size()
    check_budget(n * n, budget, "pairwise products for the energy count")
    rows = np.concatenate([blk[blk.any(axis=1)] for blk in poly_blocks(box)])
    p, r, m = ctx.p, ctx.r, rows.shape[0]
    dt = _kernel_dtype(p, r)
    cols, red = np.array(rows.T, dtype=dt), ctx._reduction.T.astype(dt)
    k = max(1, PAIR_CHUNK // max(1, r * m))
    full, prod = np.empty((2 * r - 1, k, m), dtype=dt), np.empty((r, k, m), dtype=dt)
    pairs = [(vec_encode(ctx, rows[:0]), np.zeros(0, dtype=np.int64))]  # held pair first
    waiting = 0
    for lo in range(0, m, k):
        kk = min(k, m - lo)  # x_lo..x_{lo+kk-1} times every x: (r, kk, 1) by (r, 1, m)
        out = _mul_cm(cols[:, lo:lo + kk, None], cols[:, None], red, p, full[:, :kk],
                      out=prod[:, :kk], tmp=prod[:, :kk])
        pairs.append(np.unique(vec_encode(ctx, out.reshape(r, -1).T), return_counts=True))
        waiting += pairs[-1][0].size
        if waiting >= pairs[0][0].size:
            _merge_counts(pairs)
            waiting = 0
    if len(pairs) > 1:
        _merge_counts(pairs)
    fs = pairs[0][1]
    # f(w) <= |B| and sum_w f(w) <= |B|^2, so E <= |B|^3
    fs = fs.astype(object) if n ** 3 >= 1 << 63 else fs
    energy = int(fs @ fs)
    if m < n:
        f0 = 2 * n - 1  # pairs with x = 0 or y = 0
        energy += f0 * f0
    if energy < n * n:
        raise InvariantViolation(
            f"energy {energy} below |B|^2 = {n * n}, which the diagonal alone gives")
    hyp = (isinstance(box, IntervalBox)
           and len(set(box.lengths)) == 1
           and box.lengths[0] ** 2 <= ctx.p)
    return EnergyReport(
        box=box.describe(),
        size=n,
        energy=energy,
        trivial_lower=n * n,
        ratio=energy / (n * n * math.log(ctx.p)),
        within_lemma_hypothesis=hyp,
    )


def _merge_counts(pairs: list) -> None:
    """Replace the (w, count) pairs of the list by one sorted (w, f(w)) pair,
    the counts of equal w added in int64; w may be an object array of
    Python ints.  Each part is dropped once it is copied, so at most four
    arrays of the merged length are alive at once."""
    counts = [pc for _, pc in pairs]
    w = np.concatenate([pw for pw, _ in pairs])
    pairs.clear()
    c = np.concatenate(counts)
    del counts
    order = np.argsort(w, kind="stable")  # merges the sorted runs
    w = w[order]
    c = c[order]
    del order
    start = np.flatnonzero(np.concatenate(([True], w[1:] != w[:-1])))
    pairs.append((w[start], np.add.reduceat(c, start)))


# ---------------------------------------------------------------------------
# worst-case normalised box sums

@dataclass(frozen=True)
class DeltaReport:
    delta: float
    best_box: IntervalBox
    n_boxes: int


def delta_H(ctx: FieldCtx, H: int, chi: MultChar,
            budget: int | None = None) -> DeltaReport:
    """max over boxes with sides in [H, 2H] of |sum_B chi| / |B|, by exhaustion.

    chi, of root order 1 or 2, is read once as characters.eta_tensor, under
    the same budget.  For each side tuple hs, r prefix sums,
    each along one axis extended by its first h slices so that windows wrap
    mod p (a summed-area table), give the sums of all p^r boxes
    N + 1 .. N + hs in O(q) memory.  The first maximum in (hs, N) order wins.
    """
    if not 1 <= H <= ctx.p:
        raise ValueError(f"H = {H} outside [1, p]")
    if chi.order > 2:
        raise ValueError(f"root order {chi.order} above 2: box sums are not integers")
    p, r = ctx.p, ctx.r
    lengths = range(H, min(2 * H, p) + 1)
    n_boxes = (p * len(lengths)) ** r
    check_budget(n_boxes * (2 * H) ** r, budget, "exhaustive search over parallelepipeds")
    eta = eta_tensor(ctx, budget)
    values = (eta != 0).astype(np.int8) if chi.is_principal else eta
    best = None
    for hs in itertools.product(lengths, repeat=r):
        sums = values
        for h in hs:  # the first axis goes, its N axis comes last
            c = np.cumsum(np.concatenate([np.zeros_like(sums[:1]), sums, sums[:h]]), axis=0)
            sums = np.moveaxis(c[h + 1:h + 1 + p] - c[1:p + 1], 0, -1)
        ratios = np.abs(sums) / math.prod(hs)
        i = int(ratios.argmax())
        if best is None or ratios.flat[i] > best[0]:
            best = (float(ratios.flat[i]), hs, np.unravel_index(i, ratios.shape))
    val, hs, ns = best
    return DeltaReport(delta=val, best_box=IntervalBox(ctx, ns, hs), n_boxes=n_boxes)
