import cmath
import contextlib
import functools
import itertools
import math
import operator
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from digitsquares import (DeltaReport, HypothesisNotMet, IntervalBox, LemmaReport,
                          char_sum, make_field)
from digitsquares.bounds import IV_PREC
from digitsquares.boxes import check_budget, index_blocks, poly_blocks
from digitsquares.characters import (CycloSum, _unit_root, dlog_table, legendre_table,
                                     make_char, quad_char_coords)
from digitsquares.fields import (FieldElem, conjugates, element_degree, is_irreducible,
                                 vec_decode, vec_encode, vec_mul, vec_norm, vec_pow)
from digitsquares.oracles import lemma1_rhs, lemmaD_rhs, lemmaE_rhs


def _upper(x) -> float:
    """Float upper bound of an interval value."""
    b = x.b
    f = float(b)
    while f < b:
        f = math.nextafter(f, math.inf)
    return f


@functools.cache
def _iv():
    """A private mpmath interval context at IV_PREC bits, built once: the
    context the interval evaluators of bounds ran in before the integer
    kernel replaced them."""
    from mpmath.ctx_iv import MPIntervalContext

    ctx = MPIntervalContext()
    ctx.prec = IV_PREC
    return ctx


@pytest.fixture(scope="session")
def private_iv():
    """The private 136-bit interval context of the oracles here."""
    return _iv()


@pytest.fixture(scope="session")
def field():
    """Shared field factory so dlog/quad tables are built once per session."""
    cache = {}

    def get(p, r):
        if (p, r) not in cache:
            cache[(p, r)] = make_field(p, r)
        return cache[(p, r)]

    return get


def _euler_char(ctx, x) -> int:
    """Euler criterion x^{(q-1)/2} on one element (FieldElem or index)."""
    idx = x.idx if isinstance(x, FieldElem) else int(x)
    if idx == 0:
        return 0
    y = ctx.pow_idx(idx, (ctx.q - 1) // 2)
    if y == 1:
        return 1
    if y == ctx.p - 1:  # the embedded -1
        return -1
    raise AssertionError("x^{(q-1)/2} must land in {1, -1}")


def _euler_rows(ctx, poly) -> np.ndarray:
    """Euler criterion on reduced poly-coordinate rows, vectorised."""
    res = vec_pow(ctx, np.asarray(poly, dtype=np.int64), (ctx.q - 1) // 2)
    assert not res[:, 1:].any(), "x^{(q-1)/2} must lie in the prime field"
    out = np.full(res.shape[0], -1, dtype=np.int8)
    out[res[:, 0] == 1] = 1
    out[res[:, 0] == 0] = 0
    return out


@pytest.fixture(scope="session")
def euler():
    """Independent oracle for the quadratic character, scalar: euler(ctx, x)."""
    return _euler_char


@pytest.fixture(scope="session")
def euler_rows():
    """Independent oracle for the quadratic character on poly-coordinate rows."""
    return _euler_rows


def _scan_irreducible(p: int, r: int) -> tuple[int, ...]:
    """The lexicographically smallest monic irreducible of degree r over F_p,
    by sending every candidate, in scan order, to is_irreducible."""
    for n in range(p ** r):
        f = [(n // p ** j) % p for j in range(r)] + [1]
        if is_irreducible(f, p):
            return tuple(f)
    raise AssertionError(f"no irreducible polynomial of degree {r} over F_{p}")


@pytest.fixture(scope="session")
def scan_irreducible():
    """Oracle for fields.smallest_irreducible: the scan without the root
    sieve, memoised for the session."""
    return functools.lru_cache(maxsize=None)(_scan_irreducible)


def _squaring_table(ctx) -> np.ndarray:
    """int8 quadratic character of every index, by squaring decoded rows.

    (-x)^2 = x^2, so only the indices whose top poly coordinate lies in
    0..(p-1)/2 are squared, 2^15 at a time through vec_mul.
    """
    tab = np.full(ctx.q, -1, dtype=np.int8)
    half = (ctx.p + 1) // 2 * (ctx.q // ctx.p)
    for lo in range(1, half, 1 << 15):
        x = vec_decode(ctx, np.arange(lo, min(lo + (1 << 15), half), dtype=np.int64))
        tab[vec_encode(ctx, vec_mul(ctx, x, x))] = 1
    tab[0] = 0
    return tab


@pytest.fixture(scope="session")
def squaring_table():
    """Oracle for characters.quad_table: the blocked vec_mul squaring image,
    built once per (p, r, modulus) in the session."""
    cache = {}

    def get(ctx):
        key = (ctx.p, ctx.r, ctx.modulus)
        if key not in cache:
            cache[key] = _squaring_table(ctx)
        return cache[key]

    return get


def _root(x, k: int):
    """Interval k-th root of a positive interval value, in its own context."""
    return x.ctx.exp(x.ctx.log(x) / k)


def _interval_thmA_rhs(p, r, d) -> float:
    """thmA_rhs in 136-bit interval arithmetic, rounded up to a float."""
    iv = _iv()
    q = iv.mpf(p) ** r
    return _upper((d + p * iv.sqrt(iv.mpf(p - d))) ** r / (2 * iv.sqrt(q)))


def _interval_thm1_rhs(p, r, d) -> float:
    """thm1_rhs in 136-bit interval arithmetic, rounded up to a float."""
    iv = _iv()
    pv = iv.mpf(p)
    dv = iv.mpf(d)
    inner = (_root(pv, 4) * iv.sqrt(iv.mpf(2 * r - 1)) * dv ** (r - 1)
             + _root(pv ** 3, 4) * iv.sqrt(iv.mpf(r) ** 3) / 4
             + iv.sqrt(pv))
    return _upper(iv.sqrt(dv) * inner / 2 + iv.mpf(1) / 2)


def _interval_lemmaD_rhs(p, r) -> float:
    """lemmaD_rhs in 136-bit interval arithmetic, rounded up to a float."""
    iv = _iv()
    return _upper((2 * r - 1) * iv.sqrt(iv.mpf(p)))


def _interval_lemmaE_rhs(q, t, t0) -> float:
    """lemmaE_rhs in 136-bit interval arithmetic, rounded up to a float."""
    iv = _iv()
    return _upper((t - t0 - 1) * iv.sqrt(iv.mpf(q)) + t0 + 1)


def _interval_thm2_rhs(p, r, d, k, nu) -> float:
    """thm2_rhs in 136-bit interval arithmetic, rounded up to a float."""
    iv = _iv()
    dv = iv.mpf(d)
    q = iv.mpf(p) ** r
    lead = _root(dv ** ((r - k) * (2 * nu - 1)), 2 * nu)
    inner = (iv.mpf(2 * nu) ** nu * dv ** (k * nu) * q
             + dv ** (2 * k * nu) * 4 * nu * iv.sqrt(q))
    return _upper(lead * _root(inner, 2 * nu) / 2 + iv.mpf(1) / 2)


def _interval_lemma1_rhs(q, nu, size_u, size_v) -> float:
    """lemma1_rhs in 136-bit interval arithmetic, rounded up to a float."""
    iv = _iv()
    fac = math.factorial(2 * nu) // math.factorial(nu)
    inner = (iv.mpf(fac) * iv.mpf(size_v) ** nu * q
             + iv.mpf(size_v) ** (2 * nu) * 4 * nu * iv.sqrt(iv.mpf(q)))
    return _upper(iv.exp(iv.log(iv.mpf(size_u)) * (2 * nu - 1) / (2 * nu))
                  * _root(inner, 2 * nu))


@pytest.fixture(scope="session")
def interval_rhs():
    """Oracles for the exact algebraic right-hand sides, by evaluator name:
    the 136-bit interval evaluations they replaced."""
    return {"thmA_rhs": _interval_thmA_rhs, "thm1_rhs": _interval_thm1_rhs,
            "lemmaD_rhs": _interval_lemmaD_rhs, "lemmaE_rhs": _interval_lemmaE_rhs}


@contextlib.contextmanager
def _global_iv():
    """mpmath's global interval context at 40 digits for the block, then the
    caller's precision again: how the interval evaluators of bounds ran
    before they had a private context."""
    iv = mpmath.iv
    saved = iv.prec
    iv.dps = 40
    try:
        yield iv
    finally:
        iv.prec = saved


def _global_thmB_C(p, t) -> float:
    with _global_iv() as iv:
        if t == p - 1:
            raise HypothesisNotMet(f"C(p, t) is undefined at t = p - 1 (p = {p})")
        if not 2 <= t <= p - 2:
            raise ValueError(f"t = {t} outside [2, {p - 2}]")
        if t == p - 2:
            pv = iv.mpf(p)
            val = 2 / pv + (2 / (iv.pi * (pv - 1))) * (1 - iv.log(2 * iv.sin(iv.pi / (2 * pv))))
        else:
            tv = iv.mpf(t)
            val = iv.log(iv.mpf(p)) / tv + (iv.mpf(4) / 3 - iv.log(iv.mpf(3)) / 2) / tv + iv.mpf(1) / p
        return _upper(val)


def _global_thmB_rhs(p, r, t) -> float:
    with _global_iv() as iv:
        c = iv.mpf(_global_thmB_C(p, t))
        return _upper((c * t * iv.sqrt(iv.mpf(p))) ** r / 2)


def _global_thm1_threshold(p, r) -> float:
    with _global_iv() as iv:
        if r < 2:
            raise ValueError("the existence threshold needs r >= 2")
        base = iv.sqrt(iv.mpf(p)) * (2 * r - 1)
        delta = base ** (2 - r)
        return _upper((1 + delta) * (2 * r - 1) * iv.sqrt(iv.mpf(p)))


def _global_thm2_Cr(r) -> float:
    with _global_iv() as iv:
        rv = iv.mpf(r)
        return _upper(iv.exp((4 * iv.log(rv) + 8) / rv))


def _global_thm2_threshold(p, r) -> float:
    with _global_iv() as iv:
        if r < 20:
            raise HypothesisNotMet(f"the thm2 existence threshold needs r >= 20, got r = {r}")
        pv = iv.mpf(p)
        cr = iv.exp((4 * iv.log(iv.mpf(r)) + 8) / r)
        return _upper(cr * iv.sqrt(pv) * iv.exp((iv.log(pv) + 4 * iv.log(iv.log(pv))) / r))


def _global_corC_hypothesis(p, t, eps) -> bool:
    with _global_iv() as iv:
        bound = iv.mpf(p) ** (iv.mpf(1) / 4 + iv.mpf(eps))
        return (iv.mpf(t) >= bound) is True


def _global_corC_rhs(p, r, t, eps, constant) -> float:
    with _global_iv() as iv:
        if not 0 < eps <= 0.25:
            raise ValueError(f"eps = {eps} outside (0, 1/4]")
        if constant <= 0:
            raise ValueError("the user constant must be positive")
        if not _global_corC_hypothesis(p, t, eps):
            raise HypothesisNotMet(f"t = {t} below p^(1/4 + eps)")
        ev = iv.mpf(eps)
        size_w = iv.mpf(t) ** r
        val = (iv.mpf(constant) * (iv.mpf(r) ** 4 / ev)
               * iv.exp(-ev * ev / 2 * iv.log(iv.mpf(p))) * size_w)
        return _upper(val)


@pytest.fixture(scope="session")
def global_iv_evaluators():
    """Oracles for the interval evaluators of bounds, by name: their bodies
    as they ran in mpmath's global interval context at 40 digits, each
    saving and restoring that context's precision."""
    return {"thmB_C": _global_thmB_C, "thmB_rhs": _global_thmB_rhs,
            "thm1_threshold": _global_thm1_threshold, "thm2_Cr": _global_thm2_Cr,
            "thm2_threshold": _global_thm2_threshold,
            "corC_hypothesis": _global_corC_hypothesis, "corC_rhs": _global_corC_rhs}


@pytest.fixture(scope="session")
def interval_thm2_rhs():
    """Oracle for bounds.thm2_rhs: the 136-bit interval evaluation it replaced."""
    return _interval_thm2_rhs


@pytest.fixture(scope="session")
def interval_lemma1_rhs():
    """Oracle for oracles.lemma1_rhs: the 136-bit interval evaluation it replaced."""
    return _interval_lemma1_rhs


def _walk_census(box) -> tuple[int, int]:
    """(count_q, char_sum) of a box by walking every element in blocks."""
    count_q = char_sum = 0
    for poly in poly_blocks(box):
        vals = quad_char_coords(box.ctx, poly)
        count_q += int(np.count_nonzero(vals == 1))
        char_sum += int(vals.sum())
    return count_q, char_sum


@pytest.fixture(scope="session")
def walk_census():
    """Oracle for counting.count_squares: the element-by-element block walk."""
    return _walk_census


def _norm_census(box) -> tuple[int, int]:
    """(count_q, char_sum) of a box by walking every element in blocks
    through the Legendre symbol of the norm, on any field."""
    ctx = box.ctx
    count_q = char_sum = 0
    for poly in poly_blocks(box):
        vals = legendre_table(ctx)[vec_norm(ctx, poly)]
        count_q += int(np.count_nonzero(vals == 1))
        char_sum += int(vals.sum())
    return count_q, char_sum


@pytest.fixture(scope="session")
def norm_census():
    """Oracle for the monic tier of counting.count_squares: the norm walk."""
    return _norm_census


def _scalar_frobenius(a):
    """a -> a^p by scalar square-and-multiply."""
    return a ** a.ctx.p


def _scalar_degree(a) -> int:
    """Smallest d | r with a^{p^d} = a, by repeated scalar p-th powers."""
    ctx = a.ctx
    cur = a
    for d in range(1, ctx.r + 1):
        cur = cur ** ctx.p
        if ctx.r % d == 0 and cur == a:
            return d
    raise AssertionError("element degree must divide r")  # a^q = a always


def _scalar_conjugates(a):
    """Frobenius orbit [a, a^p, a^{p^2}, ...] by scalar p-th powers."""
    out = [a]
    cur = a ** a.ctx.p
    while cur != a:
        out.append(cur)
        cur = cur ** a.ctx.p
    return out


def _scalar_generators(ctx):
    """Every element of degree r, in index order."""
    return [a for a in ctx.elements() if _scalar_degree(a) == ctx.r]


@pytest.fixture(scope="session")
def scalar_frobenius():
    """Independent oracle for fields.frobenius: scalar a ** p."""
    return _scalar_frobenius


@pytest.fixture(scope="session")
def scalar_degree():
    """Independent oracle for the subfield degree: scalar a ** p until a returns."""
    return _scalar_degree


@pytest.fixture(scope="session")
def scalar_conjugates():
    """Independent oracle for the Frobenius orbit, in orbit order."""
    return _scalar_conjugates


@pytest.fixture(scope="session")
def scalar_generators():
    """Independent oracle for oracles.generator_elements."""
    return _scalar_generators


def _pairwise_lemmaD_check(ctx, alpha, beta, s, index=1) -> LemmaReport:
    """lemmaD_check one pair at a time: both hypotheses proved by degree and
    conjugate list, the character built and the magnitude certified per call."""
    if s < 2 or (ctx.q - 1) % s != 0:
        raise ValueError(f"character order s = {s} must be >= 2 and divide q - 1")
    if math.gcd(index, s) != 1:
        raise ValueError(f"index {index} gives a character of order below {s}")
    if element_degree(alpha) != ctx.r or element_degree(beta) != ctx.r:
        raise HypothesisNotMet("alpha and beta must generate F_q over F_p")
    if beta in conjugates(alpha):
        raise HypothesisNotMet("alpha and beta must not be conjugate")
    chi = make_char(ctx, s, index)

    def shifted(a):  # xi + a for xi = 0..p-1: only the constant digit moves
        c0 = a.idx % ctx.p
        return a.idx - c0 + (c0 + np.arange(ctx.p, dtype=np.int64)) % ctx.p

    ka = chi.exponents_for_indices(shifted(alpha))
    kb = chi.exponents_for_indices(shifted(beta))
    live = (ka >= 0) & (kb >= 0)
    exps = (ka[live] + (s - 1) * kb[live]) % s
    lo, hi = CycloSum(s, [int(c) for c in np.bincount(exps, minlength=s)]).magnitude_interval()
    rhs = lemmaD_rhs(ctx.p, ctx.r)
    params = {"s": s, "j": index, "alpha": alpha.idx, "beta": beta.idx,
              "p": ctx.p, "r": ctx.r}
    return LemmaReport("D", params, lhs=(lo + hi) / 2.0, rhs=rhs, holds=lo <= rhs)


@pytest.fixture(scope="session")
def pairwise_lemmaD_check():
    """Oracle for oracles.lemmaD_check and lemmaD_reports: the per-pair body
    they replaced."""
    return _pairwise_lemmaD_check


@functools.lru_cache(maxsize=None)
def _libmp_unit_root(s: int, k: int):
    """characters._unit_root, cached for the libmp oracles, and bound when
    the tests load, so a test that spies on the package's fallback does not
    see the oracle's calls."""
    return _unit_root(s, k)


def _sum_intervals_libmp(total: CycloSum):
    """CycloSum._sum_intervals as one libmp mpf_mul_int and mpf_add per
    endpoint and term, on the unit root of the unreduced (s, k)."""
    from mpmath.libmp import fzero, mpf_add, mpf_mul_int, round_ceiling, round_floor

    prec = IV_PREC
    re_lo = re_hi = im_lo = im_hi = fzero
    for k, c in enumerate(total.counts):
        if not c:
            continue
        c = operator.index(c)
        if abs(c) >> prec:
            raise ValueError(f"count {c} of root {k} is not below 2^{prec}")
        (cos_lo, cos_hi), (sin_lo, sin_hi) = _libmp_unit_root(total.order, k)
        if c < 0:  # c * [a, b] = [c b, c a]
            cos_lo, cos_hi = cos_hi, cos_lo
            sin_lo, sin_hi = sin_hi, sin_lo
        re_lo = mpf_add(re_lo, mpf_mul_int(cos_lo, c, prec, round_floor),
                        prec, round_floor)
        re_hi = mpf_add(re_hi, mpf_mul_int(cos_hi, c, prec, round_ceiling),
                        prec, round_ceiling)
        im_lo = mpf_add(im_lo, mpf_mul_int(sin_lo, c, prec, round_floor),
                        prec, round_floor)
        im_hi = mpf_add(im_hi, mpf_mul_int(sin_hi, c, prec, round_ceiling),
                        prec, round_ceiling)
    return (re_lo, re_hi), (im_lo, im_hi)


def _magnitude_interval_libmp(total: CycloSum):
    """CycloSum.magnitude_interval with the libmp loop of _sum_intervals_libmp."""
    if total.order <= 2:
        m = float(abs(total.value_int()))
        return m, m
    from mpmath.libmp import (mpi_add, mpi_pow_int, mpi_sqrt, round_ceiling,
                              round_floor, to_float)

    prec = IV_PREC
    re, im = _sum_intervals_libmp(total)
    # squaring (not self-multiplication) keeps each interval square nonnegative
    lo, hi = mpi_sqrt(mpi_add(mpi_pow_int(re, 2, prec),
                              mpi_pow_int(im, 2, prec), prec), prec)
    return to_float(lo, rnd=round_floor), to_float(hi, rnd=round_ceiling)


def _libmp_intervals(intervals):
    """CycloSum._sum_intervals' integer pairs ((m, e), (m, e)) per interval
    as raw libmp values, to compare with the libmp oracles."""
    from mpmath.libmp import from_man_exp

    return tuple(tuple(from_man_exp(m, e) for m, e in ends) for ends in intervals)


@pytest.fixture(scope="session")
def libmp_intervals():
    """Converter of _sum_intervals' integer pairs to raw libmp intervals."""
    return _libmp_intervals


def _libmp_root_ends(s: int, k: int):
    """characters._root_ends(s, k) folded from the libmp unit root:
    cos lo, -(cos hi), sin lo, -(sin hi), sign in the mantissa."""
    out = []
    for x, neg in zip((end for pair in _libmp_unit_root(s, k) for end in pair), (0, 1, 0, 1)):
        sign, m, e, _ = x
        out += [-m if sign != neg else m, e]
    return tuple(out)


@pytest.fixture(scope="session")
def libmp_root_ends():
    """Oracle for characters._root_ends: the folded endpoints of the libmp
    mpi_cos_sin root that the integer kernel replaced."""
    return _libmp_root_ends


def _cyclo_value(total: CycloSum) -> complex:
    """sum_k counts[k] zeta_s^k in complex floating point."""
    return sum(c * cmath.exp(2j * cmath.pi * k / total.order)
               for k, c in enumerate(total.counts) if c)


@pytest.fixture(scope="session")
def cyclo_value():
    """A CycloSum's value as a complex float, for loose checks."""
    return _cyclo_value


@pytest.fixture(scope="session")
def magnitude_interval_libmp():
    """Oracle for CycloSum.magnitude_interval: the libmp loop its integer
    sums replaced, every step rounded by mpf_mul_int and mpf_add."""
    return _magnitude_interval_libmp


@pytest.fixture(scope="session")
def sum_intervals_libmp():
    """Oracle for CycloSum._sum_intervals, endpoint for endpoint."""
    return _sum_intervals_libmp


def _fmt_value(x) -> str:
    """A report cell as reporting.fmt_value printed it before cells were
    printed by str."""
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


@pytest.fixture(scope="session")
def fmt_value():
    """Oracle for a report cell's string: the isinstance chain str replaced."""
    return _fmt_value


def _delta_H_loop(ctx, H, chi, budget=None) -> DeltaReport:
    """delta_H one box at a time: each box walked through index_blocks, its
    character sum held as a CycloSum and its magnitude certified."""
    if not 1 <= H <= ctx.p:
        raise ValueError(f"H = {H} outside [1, p]")
    lengths = range(H, min(2 * H, ctx.p) + 1)
    n_boxes = (ctx.p * len(lengths)) ** ctx.r
    check_budget(n_boxes * (2 * H) ** ctx.r, budget, "exhaustive search over parallelepipeds")
    best = None
    count = 0
    for hs in itertools.product(lengths, repeat=ctx.r):
        for ns in itertools.product(range(ctx.p), repeat=ctx.r):
            box = IntervalBox(ctx, ns, hs)
            count += 1
            total = CycloSum(chi.order)
            for idx in index_blocks(box):
                total = total + char_sum(chi, idx)
            lo, hi = total.magnitude_interval()
            val = (lo + hi) / 2.0 / box.size()
            if best is None or val > best[0]:
                best = (val, box)
    return DeltaReport(delta=best[0], best_box=best[1], n_boxes=count)


@pytest.fixture(scope="session")
def delta_H_loop():
    """Oracle for oracles.delta_H: the per-box walk its tensor contractions
    replaced."""
    return _delta_H_loop


def _eta_exponents_by_coords(ctx, idx):
    """MultChar.exponents_for_indices of eta (root order 2, index 1) as it
    read it before the quad table by index: the indices decoded to poly
    coordinates and looked up through quad_char_coords."""
    eta = quad_char_coords(ctx, vec_decode(ctx, idx))
    out = (eta == -1).astype(np.int64)
    out[eta == 0] = -1
    return out


@pytest.fixture(scope="session")
def eta_exponents_by_coords():
    """Oracle for the order-2 branch of MultChar.exponents_for_indices."""
    return _eta_exponents_by_coords


def _sum_intervals_tuples(total: CycloSum):
    """CycloSum._sum_intervals as one interleaved pass over the terms, each
    term unpacking the libmp 4-tuples of its root (looked up with the power
    of two common to s and k removed) and folding the signs itself."""
    from mpmath.libmp import from_man_exp

    prec = IV_PREC
    s = total.order
    acc = [[0, 0], [0, 0], [0, 0], [0, 0]]
    for k, c in enumerate(total.counts):
        if not c:
            continue
        c = operator.index(c)
        if abs(c) >> prec:
            raise ValueError(f"count {c} of root {k} is not below 2^{prec}")
        two = (s | k) & -(s | k)
        (cos_lo, cos_hi), (sin_lo, sin_hi) = (_libmp_unit_root(s // two, k // two) if k
                                              else _libmp_unit_root(1, 0))
        if c < 0:  # c * [a, b] = [c b, c a]
            cos_lo, cos_hi = cos_hi, cos_lo
            sin_lo, sin_hi = sin_hi, sin_lo
        for slot, (sign, m, e, _), f in zip(acc, (cos_lo, cos_hi, sin_lo, sin_hi),
                                            (c, -c, c, -c)):
            m *= -f if sign else f
            sh = m.bit_length() - prec
            if sh > 0:
                m >>= sh
                e += sh
            am, ae = slot
            if ae > e:
                am = (am << (ae - e)) + m
                ae = e
            else:
                am += m << (e - ae)
            sh = am.bit_length() - prec
            if sh > 0:
                am >>= sh
                ae += sh
            slot[0], slot[1] = am, ae
    (rl, rle), (rh, rhe), (il, ile), (ih, ihe) = acc
    return ((from_man_exp(rl, rle), from_man_exp(-rh, rhe)),
            (from_man_exp(il, ile), from_man_exp(-ih, ihe)))


@pytest.fixture(scope="session")
def sum_intervals_tuples():
    """Oracle for CycloSum._sum_intervals: the interleaved loop over libmp
    4-tuples that the slot passes over cached endpoints replaced."""
    return _sum_intervals_tuples


def _lemmaE_check_loop(ctx, chars, shifts) -> LemmaReport:
    """lemmaE_check one trial and one character at a time: every character
    reads its exponents over all q shifted elements, eta through
    quad_char_coords of decoded coordinates, the others from the dlog
    table; the product's exponents are counted in one bincount."""
    t = len(chars)
    if t != len(shifts):
        raise ValueError("need one shift per character")
    if not 1 <= t < ctx.q:
        raise ValueError(f"t = {t} outside [1, q)")
    if len({h.idx for h in shifts}) != t:
        raise ValueError("shifts must be pairwise distinct")
    t0 = sum(1 for c in chars if c.is_principal)
    if t0 == t:
        raise HypothesisNotMet("at least one character must be non-principal")
    order = math.lcm(*(c.order for c in chars))
    base = vec_decode(ctx, np.arange(ctx.q, dtype=np.int64))
    total_exp = np.zeros(ctx.q, dtype=np.int64)
    dead = np.zeros(ctx.q, dtype=bool)
    for chi, h in zip(chars, shifts):
        shifted = vec_encode(ctx, (base + np.asarray(h.poly_coords, dtype=np.int64)) % ctx.p)
        if chi.order > 2:
            dl = dlog_table(ctx)[shifted]
            exps = dl * chi.index % chi.order
            exps[dl < 0] = -1
        elif chi.is_principal:
            exps = np.where(shifted == 0, -1, 0)
        else:
            exps = _eta_exponents_by_coords(ctx, shifted)
        dead |= exps < 0
        total_exp += (order // chi.order) * np.maximum(exps, 0)
    exps = total_exp[~dead] % order
    total = CycloSum(order, [int(c) for c in np.bincount(exps, minlength=order)])
    lo, hi = total.magnitude_interval()
    rhs = lemmaE_rhs(ctx.q, t, t0)
    params = {"t": t, "t0": t0, "orders": tuple(c.order for c in chars),
              "indices": tuple(c.index for c in chars),
              "shifts": tuple(h.idx for h in shifts), "p": ctx.p, "r": ctx.r}
    return LemmaReport("E", params, lhs=(lo + hi) / 2.0, rhs=rhs, holds=lo <= rhs)


@pytest.fixture(scope="session")
def lemmaE_check_loop():
    """Oracle for oracles.lemmaE_reports and lemmaE_check: the per-trial,
    per-character body the batched pass replaced."""
    return _lemmaE_check_loop


def _lemma1_reports_loop(ctx, U, V, nus):
    """lemma1_reports for one (U, V) pair, its |U| |V| sums u + v counted
    by their own quad_char_coords call."""
    u_idx = np.asarray([x.idx for x in U], dtype=np.int64)
    v_idx = np.asarray([x.idx for x in V], dtype=np.int64)
    if u_idx.size == 0 or v_idx.size == 0:
        raise ValueError("U and V must be nonempty")
    cu, cv = vec_decode(ctx, u_idx), vec_decode(ctx, v_idx)
    sums = ((cu[:, None, :] + cv[None, :, :]) % ctx.p).reshape(-1, ctx.r)
    lhs = abs(int(quad_char_coords(ctx, sums).sum()))
    out = []
    for nu in nus:
        rhs = lemma1_rhs(ctx.q, nu, u_idx.size, v_idx.size)
        params = {"nu": nu, "size_u": int(u_idx.size), "size_v": int(v_idx.size),
                  "p": ctx.p, "r": ctx.r}
        out.append(LemmaReport("1", params, lhs=float(lhs), rhs=rhs, holds=lhs <= rhs))
    return out


@pytest.fixture(scope="session")
def lemma1_reports_loop():
    """Oracle for oracles.lemma1_pair_reports and lemma1_reports: the
    per-pair count the batched pass replaced."""
    return _lemma1_reports_loop
