"""Multiplicative characters on F_q and exact character-sum accumulation.

The quadratic character eta is multiplicative, and on F_p* it is the
Legendre symbol to the power r, since c^((q-1)/2) =
(c^((p-1)/2))^(1 + p + ... + p^(r-1)) and that exponent is odd exactly
when r is.  So eta(l m) = (l / p)^r eta(m), with l the top nonzero poly
coordinate of x = l m and m monic (top nonzero coordinate 1), and squaring
the (q-1)/(p-1) monic m fixes eta: that is the one product of squaring,
monic_table, built while the monic elements fit under DLOG_CAP
(monic_fits).  counting reads it slab by slab above the cap.  The full
tables are built while the q elements fit (table_fits); only these two
predicates read DLOG_CAP.  eta has one entry point for blocks of rows,
quad_char_coords, and MultChar reads it by element index.  Where
table_fits both look x up in the full table that quad_table expands from
the monic one.  Digit boxes read eta as one tensor over the installed
coordinates, eta_tensor, whose docstring states the axis convention.
Above the cap they evaluate eta(x) = (N(x) / p), the Legendre symbol of
the norm N(x) = x * x^p * ... * x^{p^{r-1}}, which lies in F_p.
fields.vec_norm computes the norms of a block of elements in O(log r)
field multiplications, on coefficient-major (r, n) arrays in the
narrowest integer type that holds r p^2 (int32 while r p^2 < 2^31).

A character of root order s (s | q-1) with index j sends x != 0 to
zeta_s^{j * dlog(x) mod s} and 0 to 0.  Root orders 1 and 2 are powers of
eta and need no discrete logs; only orders above 2 build the discrete-log
table, taken against a deterministic generator: the first element of
multiplicative order q-1 in lexicographic order of installed-basis
coordinates.

Sums of character values are held exactly as CycloSum: integer
multiplicities of the s-th roots of unity.  Whether a sum vanishes is
decided exactly, by rewriting it in an integral basis of Z[zeta_s], in
O(s) steps per prime factor of s.  Its magnitude is certified as mpmath's
interval context computed it at IV_PREC = 136 bits, bit for bit,
without mpmath: every step is replayed as a correctly rounded directed
operation on integer mantissa-exponent pairs, lower endpoints rounded
toward -inf and upper ones toward +inf, and the result is rounded outward
to floats, so a reported bound violation can never be a rounding artifact.
The unit roots' endpoints (mpi_cos_sin of the angle interval 2 pi k / s,
one per root, cached and shared by orders s and s / 2^j where the angles
are the same bit for bit) come from the integer kernel of bounds, guarded:
each endpoint is taken at either end of a margin that covers libmp's own
rounding, and a root where the two disagree falls back to libmp itself
(_unit_root, the one place that imports mpmath).
"""

from __future__ import annotations

import cmath
import functools
import math
import operator

import numpy as np

from .bounds import _cos_sin, _pi
from .boxes import DigitBox, check_budget, poly_blocks
from .errors import InvariantViolation
from .fields import (FieldCtx, FieldElem, _mod_p, index_dtype, prime_factors,
                     vec_decode, vec_encode, vec_mul, vec_norm)

IV_PREC = 136          # bits of mpmath's interval steps replayed here: dps_to_prec(40)
DLOG_CAP = 1 << 20
SQUARE_BLOCK = 1 << 15
ROOT_CACHE_SIZE = 1 << 13
ROOT_BITS = 400        # scale 2^-ROOT_BITS of the unit-root kernel


def _round(m: int, e: int, prec: int, up: bool) -> tuple[int, int]:
    """m 2^e rounded to prec bits toward +inf (up) or -inf, as libmp holds
    it: an odd mantissa with its sign, or (0, 0)."""
    sh = abs(m).bit_length() - prec
    if sh > 0:
        m = -(-m >> sh) if up else m >> sh
        e += sh
    if not m:
        return 0, 0
    tz = (m & -m).bit_length() - 1
    return m >> tz, e + tz


def _round_div(m: int, e: int, d: int, up: bool) -> tuple[int, int]:
    """m 2^e / d rounded to IV_PREC bits, for m, d > 0: a quotient of at
    least IV_PREC + 2 bits and a sticky bit for the remainder round as the
    exact quotient does."""
    sh = IV_PREC + 2 - m.bit_length() + d.bit_length()
    q, rem = divmod(m << sh, d)
    return _round(2 * q + (rem > 0), e - sh - 1, IV_PREC, up)


@functools.cache
def _pi_ends() -> tuple[tuple[int, int], tuple[int, int]]:
    """mpf_pi at IV_PREC bits rounded down and up: pi 2^(IV_PREC-2) floored
    and plus one, from the kernel's pi."""
    v, err = _pi(ROOT_BITS)
    sh = ROOT_BITS - IV_PREC + 2
    lo = (v - err) >> sh
    if (v + err) >> sh != lo:
        raise InvariantViolation("pi at ROOT_BITS does not fix its IV_PREC-bit floor")
    return _round(lo, 2 - IV_PREC, IV_PREC, False), _round(lo + 1, 2 - IV_PREC, IV_PREC, True)


@functools.lru_cache(maxsize=ROOT_CACHE_SIZE)
def _zeta(s: int) -> tuple[int, int, int]:
    """cos and sin of 2 pi / s times 2^ROOT_BITS, and a bound on the
    modulus of their error, for s >= 3."""
    v, err = _pi(ROOT_BITS)
    c, sn, e = _cos_sin(2 * v // s, ROOT_BITS)  # the angle within err + 1 units
    return c, sn, 2 * e + err + 1


def _zeta_power(s: int, k: int) -> tuple[int, int, int]:
    """_zeta(s) for zeta_s^k, k / s in lowest terms, by binary powering.

    Each product of unit vectors known within a and b is within a + b + 2
    (the two floors add at most sqrt(2)), so zeta^k is within k (e + 2).
    """
    g = math.gcd(s, k)
    s, k = s // g, k // g
    c, sn, e = _zeta(s)
    re, im, err = 1 << ROOT_BITS, 0, 0
    while True:
        if k & 1:
            re, im = (re * c - im * sn) >> ROOT_BITS, (re * sn + im * c) >> ROOT_BITS
            err += e + 2
        k >>= 1
        if not k:
            return re, im, err
        c, sn, e = (c * c - sn * sn) >> ROOT_BITS, (c * sn) >> (ROOT_BITS - 1), 2 * e + 2


def _margin(v: int, err: int, quarter: bool) -> int:
    """How far libmp's 156-bit cos or sin of an angle endpoint may lie from
    the kernel's value v (scale 2^-ROOT_BITS, error err): its rounding
    toward 0, under 2^-155 |v|, and at an angle away from the quarter
    points an absolute 2^-156 for its series; at the quarter points libmp
    reduces the angle to a relative error, so the margin is relative."""
    out = (abs(v) >> 154) + err + 1
    return out if quarter else out + (1 << (ROOT_BITS - 156))


def _finalize(x: int, up: bool) -> tuple[int, int]:
    """mpi_cos_sin's last step on the real x 2^-ROOT_BITS: times
    1 +- 2^-146 away from the interval, rounded to IV_PREC bits toward +inf
    (up) or -inf, and clamped to [-1, 1]."""
    m, e = _round(x * ((1 << 146) + (1 if (x < 0) != up else -1)), -ROOT_BITS - 146,
                  IV_PREC, up)
    if abs(m).bit_length() + e >= 1:
        return -1 if m < 0 else 1, 0
    return m, e


def _settle(a: int, ma: int, b: int, mb: int, up: bool):
    """_finalize of max (up) or min of two reals known as a +- ma and
    b +- mb, or None where the margins leave it open."""
    pick = max if up else min
    out = _finalize(pick(a - ma, b - mb), up)
    return out if out == _finalize(pick(a + ma, b + mb), up) else None


def _kernel_root(s: int, k: int):
    """_unit_root(s, k), 0 < k < s, as signed (m, e) pairs from the
    integer kernel; None where a margin leaves an endpoint open.

    The angle endpoints replay mpi_mul and mpi_div on mpf_pi's two ends.
    cos and sin of an endpoint a come from those of theta = 2 pi k / s,
    rotated by eps = a - theta.  At the quarter points (4k / s an integer)
    cos and sin of theta are 0 or +-1 exactly, the two ends lie in
    quadrants 4k / s - 1 and 4k / s, and mpi_cos_sin's quadrant rule sets
    the end of the extremum between them to +-1.  Elsewhere both ends
    share a quadrant, and no rule applies.  The rest is finalize, taken at
    either end of each value's margin: where both agree, so does libmp's
    value between them.
    """
    (pl, pe), (ph, phe) = _pi_ends()
    ends = (_round_div(*_round(2 * pl * k, pe, IV_PREC, False), s, False),
            _round_div(*_round(2 * ph * k, phe, IV_PREC, True), s, True))
    quarter = 4 * k % s == 0
    if quarter:  # theta = pi/2, pi or 3pi/2: cos and sin are 0 and +-1
        (c0, s0), e0 = ((0, 1), (-1, 0), (0, -1))[4 * k // s - 1], 0
    else:
        c0, s0, e0 = _zeta_power(s, k)
    v, err = _pi(ROOT_BITS)
    theta = 2 * v * k // s  # within 2 err + 1 units, as k < s
    vals = []
    for m, e in ends:
        ce, se, et = _cos_sin((m << (e + ROOT_BITS)) - theta, ROOT_BITS)
        err_eps = 2 * et + 2 * err + 1
        if quarter:
            c, sn, ve = c0 * ce - s0 * se, s0 * ce + c0 * se, err_eps
        else:
            c = (c0 * ce - s0 * se) >> ROOT_BITS
            sn = (s0 * ce + c0 * se) >> ROOT_BITS
            ve = e0 + err_eps + 2
        vals.append(((c, _margin(c, ve, quarter)), (sn, _margin(sn, ve, quarter))))
    (ca, sa), (cb, sb) = vals
    out = [_settle(*ca, *cb, False), _settle(*ca, *cb, True),
           _settle(*sa, *sb, False), _settle(*sa, *sb, True)]
    if quarter:  # the extremum inside: sin hi = 1, cos lo = -1 or sin lo = -1
        i, one = ((3, 1), (0, -1), (2, -1))[4 * k // s - 1]
        out[i] = one, 0
    return None if None in out else ((out[0], out[1]), (out[2], out[3]))


def _libmp_pair(x) -> tuple[int, int]:
    """A raw libmp value (sign, man, exp, bc) as a signed (m, e) pair."""
    sign, m, e, _ = x
    return (-m if sign else m), e


def _unit_root(s: int, k: int):
    """Raw libmp intervals (cos, sin) of 2 pi k / s at IV_PREC bits.

    The angle is built as mpmath's interval context evaluates
    2 * pi * k / s, and one mpi_cos_sin gives both intervals, so every
    endpoint equals that of iv.cos and iv.sin at 40 digits.  The fallback
    of _root_ends, and the only use of mpmath in the package.
    """
    from mpmath.libmp import (from_int, mpf_pi, mpi_cos_sin, mpi_div, mpi_mul,
                              round_ceiling, round_floor)

    prec = IV_PREC
    pi = (mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling))
    two, k, s = ((from_int(n), from_int(n)) for n in (2, k, s))
    return mpi_cos_sin(mpi_div(mpi_mul(mpi_mul(two, pi, prec), k, prec), s, prec), prec)


@functools.lru_cache(maxsize=ROOT_CACHE_SIZE)
def _root_ends(s: int, k: int):
    """cos lo, -(cos hi), sin lo, -(sin hi) of _unit_root(s, k) as flat
    integer pairs (m0, e0, ..., m3, e3), value m 2^e, sign folded into m:
    the factors of a count c > 0 in the slots of CycloSum._sum_intervals,
    whose upper sums are kept negated.  A c < 0 reads slot i ^ 1 times |c|,
    since c [a, b] = [c b, c a].

    From the integer kernel (_kernel_root); a root whose margins leave an
    endpoint open falls back to _unit_root, which imports mpmath.
    """
    if not k:
        return 1, 0, -1, 0, 0, 0, 0, 0
    ends = _kernel_root(s, k)
    if ends is None:
        ends = tuple(tuple(map(_libmp_pair, pair)) for pair in _unit_root(s, k))
    ((m0, e0), (m1, e1)), ((m2, e2), (m3, e3)) = ends
    return m0, e0, -m1, e1, m2, e2, -m3, e3


def _align(a, b) -> tuple[int, int, int]:
    """Two (m, e) pairs as mantissas at their common exponent, and it."""
    (ma, ea), (mb, eb) = a, b
    e = min(ea, eb)
    return ma << (ea - e), mb << (eb - e), e


def _add(a, b, up: bool) -> tuple[int, int]:
    """mpf_add of two (m, e) pairs at IV_PREC bits."""
    ma, mb, e = _align(a, b)
    return _round(ma + mb, e, IV_PREC, up)


def _square(lo, hi):
    """mpi_square of [lo, hi], (m, e) pairs: the squares of the ends
    rounded outward to IV_PREC bits, and 0 below an interval holding 0."""
    (ml, el), (mh, eh) = lo, hi
    if ml >= 0:
        return _round(ml * ml, 2 * el, IV_PREC, False), _round(mh * mh, 2 * eh, IV_PREC, True)
    if mh <= 0:
        return _round(mh * mh, 2 * eh, IV_PREC, False), _round(ml * ml, 2 * el, IV_PREC, True)
    a, b, _ = _align((-ml, el), hi)
    m, e = (-ml, el) if a >= b else hi
    return (0, 0), _round(m * m, 2 * e, IV_PREC, True)


def _sqrt(x, up: bool) -> tuple[int, int]:
    """mpf_sqrt of x = (m, e) >= 0 at IV_PREC bits: a root of at least
    IV_PREC + 3 bits with a sticky bit for an inexact one."""
    m, e = x
    if not m:
        return 0, 0
    if e & 1:
        m, e = m << 1, e - 1
    sh = max(0, IV_PREC + 3 - m.bit_length() // 2)
    r = math.isqrt(m << 2 * sh)
    return _round(2 * r + (r * r != m << 2 * sh), e // 2 - sh - 1, IV_PREC, up)


def _to_float(x, up: bool) -> float:
    """libmp's to_float of x = (m, e), rounded toward +inf (up) or -inf."""
    return math.ldexp(*_round(*x, 53, up))


def _root(s: int, k: int):
    """_root_ends(s, k), looked up with the power of two common to s and k
    removed, and (s, 0) as (1, 0).

    Both pairs build the same angle interval bit for bit: rounding to
    IV_PREC significant bits commutes with scaling by 2^j, in the multiply
    by k and in the divide by s, and the angle of (s, 0) is [0, 0].  An odd
    common factor does not commute with the divide, so it stays.
    """
    if not k:
        return _root_ends(1, 0)
    two = (s | k) & -(s | k)
    return _root_ends(s // two, k // two)


class CycloSum:
    """Exact sum of s-th roots of unity: value = sum_k counts[k] * zeta_s^k."""

    __slots__ = ("order", "counts")

    def __init__(self, order: int, counts=None):
        if order < 1:
            raise ValueError("root order must be >= 1")
        self.order = order
        self.counts = [0] * order if counts is None else list(counts)
        if len(self.counts) != order:
            raise ValueError("counts length must equal the root order")

    def __add__(self, other: "CycloSum") -> "CycloSum":
        if self.order != other.order:
            raise ValueError("cannot merge sums over different root orders")
        return CycloSum(self.order, [a + b for a, b in zip(self.counts, other.counts)])

    def value_int(self) -> int:
        """Exact integer value; only the real root orders 1 and 2 qualify."""
        if self.order == 1:
            return self.counts[0]
        if self.order == 2:
            return self.counts[0] - self.counts[1]
        raise ValueError(f"sum over order-{self.order} roots is not an integer")

    def is_zero(self) -> bool:
        """Exact for every root order, in O(s) steps per prime factor of s.

        Map k to its residues modulo the prime powers q = ell^e exactly
        dividing s.  This sends zeta_s^k to a Galois conjugate of the tensor
        product of the zeta_q^(k mod q), and Z[zeta_s] is the tensor product
        of the Z[zeta_q] = Z[x]/Phi_q, where x^(j + (ell-1) q/ell) =
        -sum_{i < ell-1} x^(j + i q/ell).  Rewriting the counts in the basis
        x^j, j < q - q/ell, one axis at a time leaves the coordinates of the
        sum, which vanishes iff they all do.
        """
        s = self.order
        qs = []
        for ell in prime_factors(s) if s > 1 else []:
            q = ell
            while s % (q * ell) == 0:
                q *= ell
            qs.append((ell, q))
        k = np.arange(s)
        flat = np.zeros(s, dtype=np.int64)
        for _, q in qs:
            flat = flat * q + k % q
        coords = np.empty(s, dtype=object)
        coords[flat] = self.counts
        coords = coords.reshape([q for _, q in qs])
        for ell, q in qs:  # the axis of q is first, and goes last once reduced
            rest = coords.shape[1:]
            coords = coords.reshape(ell, -1)
            coords = (coords[:-1] - coords[-1]).reshape((q - q // ell,) + rest)
            coords = np.moveaxis(coords, 0, -1)
        return not coords.any()

    def magnitude_interval(self):
        """Certified (lower, upper) float bounds on |value|.

        Orders 1 and 2 are exact.  Above them re^2 + im^2 and its square
        root are taken on the intervals of _sum_intervals, and the two
        endpoints are rounded to floats outward (floor and ceiling).  The
        operation sequence is the one mpmath's interval context runs at 40
        digits (mpi_square, mpi_add, mpi_sqrt, to_float), each step a
        correctly rounded directed operation on integer pairs, so the
        result equals it bit for bit.
        """
        if self.order <= 2:
            m = float(abs(self.value_int()))
            return m, m
        (re_lo, re_hi), (im_lo, im_hi) = self._sum_intervals()
        (re2_lo, re2_hi), (im2_lo, im2_hi) = _square(re_lo, re_hi), _square(im_lo, im_hi)
        lo = _sqrt(_add(re2_lo, im2_lo, False), False)
        hi = _sqrt(_add(re2_hi, im2_hi, True), True)
        return _to_float(lo, False), _to_float(hi, True)

    def _sum_intervals(self):
        """Intervals (re, im) of sum_k counts[k] * (cos, sin)(2 pi k / s),
        each end an integer pair (m, e) with value m 2^e.

        Evaluated at IV_PREC = 136 bits: every term and every partial sum
        has its lower endpoint rounded toward -inf and its upper one toward
        +inf (a negative c swaps the endpoints it multiplies).  The four
        sums run on plain integers, each a pair (m, e) with value m * 2^e.
        The upper sums are kept negated, since ceil(x) = -floor(-x), so
        every rounding is toward -inf.  Each step forms the exact product
        of |c| with the endpoint's signed mantissa (_root), rounds it to
        IV_PREC bits with one shift (m >> sh is floor for either sign),
        adds it to the sum exactly by aligning exponents, and rounds the
        sum the same way.  Both roundings are the correctly rounded results
        that mpf_mul_int and mpf_add return (mpf_add's shortcut for a far
        smaller addend rounds the same), so every endpoint equals theirs.
        Each sum takes its own pass over the terms, in increasing k.
        """
        prec = IV_PREC
        s = self.order
        terms = []
        for k, c in enumerate(self.counts):
            if not c:
                continue
            c = operator.index(c)
            if abs(c) >> prec:
                raise ValueError(f"count {c} of root {k} is not below 2^{prec}")
            terms.append((_root(s, k), 2 if c < 0 else 0, abs(c)))
        # re lower, -(re upper), im lower, -(im upper): the pair at ends[off]
        sums = []
        for off in (0, 2, 4, 6):
            am = ae = 0
            for ends, swap, c in terms:
                i = off ^ swap
                m = ends[i] * c
                e = ends[i + 1]
                sh = m.bit_length() - prec
                if sh > 0:
                    m >>= sh
                    e += sh
                if ae > e:
                    am = (am << (ae - e)) + m
                    ae = e
                else:
                    am += m << (e - ae)
                sh = am.bit_length() - prec
                if sh > 0:
                    am >>= sh
                    ae += sh
            sums.append((am, ae))
        (rl, rle), (rh, rhe), (il, ile), (ih, ihe) = sums
        return ((rl, rle), (-rh, rhe)), ((il, ile), (-ih, ihe))

    def __eq__(self, other):
        return (isinstance(other, CycloSum) and self.order == other.order
                and self.counts == other.counts)

    def __repr__(self):
        return f"CycloSum(order={self.order}, counts={self.counts})"


# ---------------------------------------------------------------------------
# generator and discrete-log table

def field_generator(ctx: FieldCtx) -> FieldElem:
    """Smallest element (in installed-basis coordinate lex order) of order q-1."""
    g = ctx._cache.get("generator")
    if g is not None:
        return FieldElem(ctx, g)
    n = ctx.q - 1
    checks = [(n // ell) for ell in prime_factors(n)]
    for m in range(1, ctx.q):
        # big-endian digits of m are the basis coordinates (c_1, ..., c_r)
        coords = [(m // ctx.p ** (ctx.r - 1 - i)) % ctx.p for i in range(ctx.r)]
        idx = ctx.coords_to_index(coords)
        if idx == 0:
            continue
        if all(ctx.pow_idx(idx, e) != 1 for e in checks):
            ctx._cache["generator"] = idx
            return FieldElem(ctx, idx)
    raise InvariantViolation("F_q* is cyclic, yet no element of order q - 1 was found")


def dlog_table(ctx: FieldCtx) -> np.ndarray:
    """dlog[idx] = e with g^e = element; -1 at the zero element."""
    tab = ctx._cache.get("dlog")
    if tab is not None:
        return tab
    if not table_fits(ctx):
        raise ValueError(f"q = {ctx.q} above the discrete-log table cap {DLOG_CAP}")
    g = field_generator(ctx)
    n = ctx.q - 1
    block = min(1024, n)
    pows = np.empty(n, dtype=np.int64)
    # first block sequentially, then shift whole blocks by g^block
    cur = np.zeros((block, ctx.r), dtype=np.int64)
    acc = 1
    for e in range(block):
        cur[e] = ctx.index_to_poly_coords(acc)
        acc = ctx.mul_idx(acc, g.idx)
    pows[:block] = vec_encode(ctx, cur)
    gb = np.asarray(ctx.index_to_poly_coords(ctx.pow_idx(g.idx, block)),
                    dtype=np.int64)
    filled = block
    while filled < n:
        take = min(block, n - filled)
        cur = vec_mul(ctx, cur, np.broadcast_to(gb, cur.shape))
        pows[filled:filled + take] = vec_encode(ctx, cur[:take])
        filled += take
    tab = np.full(ctx.q, -1, dtype=np.int64)
    tab[pows] = np.arange(n, dtype=np.int64)
    ctx._cache["dlog"] = tab
    return tab


def _monic_blocks(p: int, k: int, dtype):
    """The poly coordinates a_0..a_k of the monic slab [p^k, 2 p^k) in
    blocks of at most SQUARE_BLOCK elements.

    a_k = 1; the axes of a_0..a_{t-1} run in full, a_t over a slice of at
    most SQUARE_BLOCK // p^t values, and a_{t+1}..a_{k-1} are fixed ints.
    In each yielded list the arange of a_j (j <= t) is shaped to run along
    block axis t - j.
    """
    t = k - 1
    while t and p ** t > SQUARE_BLOCK:
        t -= 1
    step = SQUARE_BLOCK // p ** t
    low = [np.arange(p, dtype=dtype).reshape((p,) + (1,) * j) for j in range(t)]
    for h in range(p ** (k - 1 - t)):
        fixed = [h // p ** j % p for j in range(k - 1 - t)]  # a_{t+1}..a_{k-1}
        for s in range(0, p, step):
            top = np.arange(s, min(s + step, p), dtype=dtype).reshape((-1,) + (1,) * t)
            yield low + [top] + fixed + [1]


def _unit_powers(p: int) -> np.ndarray:
    """int64 g^i mod p, i = 0..p-2, for the smallest primitive root g mod p."""
    g = next(g for g in range(1, p)
             if all(pow(g, (p - 1) // ell, p) != 1 for ell in prime_factors(p - 1)))
    pows = np.ones(p - 1, dtype=np.int64)
    for j in range((p - 2).bit_length()):
        n = min(1 << j, p - 1 - (1 << j))
        pows[1 << j:(1 << j) + n] = pows[:n] * pow(g, 1 << j, p) % p
    return pows


def _square_dtype(p: int, r: int):
    """The narrowest signed type, int16 or wider, that holds (2r-1)(p-1)^2,
    the largest intermediate of _square_monic."""
    return np.promote_types(np.min_scalar_type(-(2 * r - 1) * (p - 1) ** 2 - 1), np.int16)


def _square_monic(ctx: FieldCtx, mon: np.ndarray, sign: np.ndarray):
    """The body of monic_table: eta(y / l) = sign[l] for the square y of
    every monic m in the slabs k = 1..r-1, l the top coordinate of y.
    Every reduction goes through fields._mod_p.
    """
    p, r = ctx.p, ctx.r
    dt = _square_dtype(p, r)
    inv = inverse_table(ctx).astype(dt)
    ppow = np.asarray(ctx._ppow, dtype=np.int64)
    # monic index minus element index of a monic element with top a_t = 1
    shift = [off - p ** t for t, off in enumerate(monic_offsets(p, r))]
    red = [[int(v) for v in row] for row in ctx._reduction]
    for k in range(1, r):
        for a in _monic_blocks(p, k, dt):
            Y = np.zeros((r,) + np.broadcast_shapes(*map(np.shape, a)), dtype=dt)
            tmp = np.empty_like(Y)
            for n in range(2 * k + 1):
                c = sum((2 if i < n - i else 1) * a[i] * a[n - i]
                        for i in range(max(0, n - k), n // 2 + 1))
                if n < r:
                    Y[n] += c
                    continue
                c = np.asarray(c, dtype=dt)  # a fresh array, or an int from int terms
                _mod_p(c, p, np.empty_like(c))
                for t in range(r):
                    if red[n - r][t]:
                        Y[t] += red[n - r][t] * c
            _mod_p(Y, p, tmp)
            lead = Y[r - 1].copy()
            idx = np.full(lead.shape, shift[r - 1], dtype=np.int64)
            for t in range(r - 2, -1, -1):
                below = lead == 0
                np.copyto(idx, shift[t], where=below)
                np.copyto(lead, Y[t], where=below)
            Y *= inv[lead]
            _mod_p(Y, p, tmp)
            for t in range(r):
                idx += ppow[t] * Y[t]
            mon[idx] = sign[lead]


def _fill_multiples(ctx: FieldCtx, tab: np.ndarray, sign: np.ndarray, pows: np.ndarray):
    """The body of quad_table: the rows [c p^k, (c+1) p^k), c = 2..p-1, of
    slabs k = 1..r-1 from the monic rows c = 1, in ceil(log2(p-1)) rounds;
    each np.take moves max(1, SQUARE_BLOCK // p^k) rows of p^k entries."""
    p, r = ctx.p, ctx.r
    filled = 1  # the rows of g^i, i < filled, are known in every slab
    while filled < p - 1:
        n = min(filled, p - 1 - filled)
        e = int(pows[filled])
        digit = np.arange(p, dtype=np.int64) * pow(e, -1, p) % p
        perm = digit  # perm[index(a)] = index(a / e) over a_0..a_{r-2}
        for j in range(1, r - 1):
            perm = ((digit * ctx._ppow[j])[:, None] + perm).ravel()
        for k in range(1, r):
            slab = tab[ctx._ppow[k]:ctx._ppow[k] * p].reshape(p - 1, -1)  # row c-1: c m
            step = max(1, SQUARE_BLOCK // ctx._ppow[k])
            for lo in range(0, n, step):
                src = pows[lo:min(lo + step, n)]
                rows = np.take(slab[src - 1], perm[:ctx._ppow[k]], axis=1)
                if sign[e] < 0:
                    np.negative(rows, out=rows)
                slab[pows[filled + lo:filled + lo + src.size] - 1] = rows
        filled += n


def monic_offsets(p: int, r: int) -> list[int]:
    """off_k = (p^k - 1) / (p - 1), k = 0..r-1: where slab k of the monic
    table starts, after the monic elements of lower degree."""
    return [(p ** k - 1) // (p - 1) for k in range(r)]


def table_fits(ctx: FieldCtx) -> bool:
    """Whether the q elements fit under DLOG_CAP: quad_table and dlog_table."""
    return ctx.q <= DLOG_CAP


def monic_fits(ctx: FieldCtx) -> bool:
    """Whether the (q-1)/(p-1) monic elements fit under DLOG_CAP, so that
    monic_table can be built."""
    return (ctx.q - 1) // (ctx.p - 1) <= DLOG_CAP


def monic_table(ctx: FieldCtx) -> np.ndarray:
    """int8 quadratic character of the (q-1)/(p-1) monic elements.

    A monic element m has top nonzero poly coordinate a_k = 1; its entry is
    at off_k + sum_{j<k} a_j p^j (monic_offsets), so slab k, the entries
    [off_k, off_k + p^k), is the row [p^k, 2 p^k) of the element indices,
    and entry 0 is eta(1) = 1.  Every x != 0 is l m with l in F_p* its top
    nonzero coordinate, and eta(l m) = (l / p)^r eta(m) (scalar_char), so
    this table fixes eta.

    m^2 is a fixed quadratic form in the poly coordinates a_0..a_k of m
    (a_k = 1): before reduction its coefficients are
    c_n = sum_{i+j=n} a_i a_j, n = 0..2k, and c_r..c_{2k}, reduced mod p,
    fold into the low r through ctx._reduction.  Each block of
    _monic_blocks broadcasts one arange per axis into each c_n, so a term
    a_i a_j costs only as many multiplies as its two axes span.  Every
    intermediate is at most (2r-1)(p-1)^2, so the narrowest integer type
    holding that is exact.  Each square y is divided by its top coordinate
    l (a p-entry inverse table), and eta(y / l) = eta(l) = (l / p)^r is
    written at the monic index of y / l.  For odd r that reaches every
    entry; for even r it reaches the lines of squares only, and the other
    entries keep -1.  Built only where monic_fits.
    """
    tab = ctx._tables.get("monic")
    if tab is not None:
        return tab
    n = (ctx.q - 1) // (ctx.p - 1)
    if not monic_fits(ctx):
        raise ValueError(f"{n} monic elements above the table cap {DLOG_CAP}; "
                         f"use quad_char_coords on element blocks instead")
    tab = np.full(n, -1, dtype=np.int8)
    tab[0] = 1
    if ctx.r > 1:
        _square_monic(ctx, tab, scalar_char(ctx))
    ctx._tables["monic"] = tab
    return tab


def quad_table(ctx: FieldCtx) -> np.ndarray:
    """int8 table of the quadratic character over all element indices.

    Built from the monic table alone.  Slab k, the index range
    [p^k, p^(k+1)), holds the x whose top nonzero poly coordinate is a_k;
    its rows [c p^k, (c+1) p^k) hold c m for the monic m of row 1, which is
    slab k of monic_table copied whole, and slab 0 is F_p, where
    eta(c) = (c / p)^r (scalar_char).

    The rows c = 2..p-1 of slabs 1..r-1 follow: the row of c e is
    (e / p)^r times the row of c, permuted by a -> a / e on each
    coordinate of a_0..a_{k-1}.  With g a primitive root mod p, the rows
    of g^i, i < 2^j, give those of g^(i + 2^j) through np.take along the
    rows, so ceil(log2(p-1)) rounds fill the table; the permutation of the
    top slab is an outer sum over its r-1 axes, and its prefixes serve the
    lower slabs.  Only for table-sized fields; larger ones read the monic
    table or the norm in quad_char_coords.
    """
    tab = ctx._tables.get("quad")
    if tab is not None:
        return tab
    if not table_fits(ctx):
        raise ValueError(f"q = {ctx.q} above the table cap {DLOG_CAP}; "
                         f"use quad_char_coords on element blocks instead")
    p, r = ctx.p, ctx.r
    sign = scalar_char(ctx)
    tab = np.full(ctx.q, -1, dtype=np.int8)
    tab[:p] = sign
    if r > 1:
        mon = monic_table(ctx)
        for k, off in enumerate(monic_offsets(p, r)):
            tab[p ** k:2 * p ** k] = mon[off:off + p ** k]
        _fill_multiples(ctx, tab, sign, _unit_powers(p))
    ctx._tables["quad"] = tab
    return tab


def legendre_table(ctx: FieldCtx) -> np.ndarray:
    """int8 Legendre symbol (a / p) for a = 0..p-1, cached on the ctx."""
    tab = ctx._tables.get("legendre")
    if tab is None:
        p = ctx.p
        tab = np.full(p, -1, dtype=np.int8)
        tab[np.arange(1, p, dtype=np.int64) ** 2 % p] = 1
        tab[0] = 0
        ctx._tables["legendre"] = tab
    return tab


def scalar_char(ctx: FieldCtx) -> np.ndarray:
    """int8 eta(c) = (c / p)^r for c = 0..p-1, cached on the ctx.

    c^((q-1)/2) = (c^((p-1)/2))^(1 + p + ... + p^(r-1)), and that exponent
    is odd exactly when r is.
    """
    tab = ctx._tables.get("scalar_char")
    if tab is None:
        tab = legendre_table(ctx) ** ctx.r
        ctx._tables["scalar_char"] = tab
    return tab


def inverse_table(ctx: FieldCtx) -> np.ndarray:
    """int64 c^-1 mod p for c = 0..p-1, and 0 at c = 0; cached on the ctx."""
    tab = ctx._tables.get("inverse")
    if tab is None:
        p = ctx.p
        pows = _unit_powers(p)
        tab = np.zeros(p, dtype=np.int64)
        tab[pows] = pows[-np.arange(p - 1) % (p - 1)]  # (g^i)^-1 = g^-i
        ctx._tables["inverse"] = tab
    return tab


# ---------------------------------------------------------------------------
# quadratic character

def quad_char_coords(ctx: FieldCtx, coords: np.ndarray) -> np.ndarray:
    """Quadratic character of reduced poly-coordinate rows; int8 in {-1, 0, 1}.

    The single entry point for coordinate rows: the quad table where
    table_fits, the Legendre symbol of the norm above it.  Blocks of rows
    never build the monic table: above the cap that build outweighed the
    norms of a sampling or lemma-oracle call (BENCH_monic_census.json).
    """
    if table_fits(ctx):
        return quad_table(ctx)[vec_encode(ctx, coords)]
    return legendre_table(ctx)[vec_norm(ctx, coords)]


def eta_tensor(ctx: FieldCtx, budget: int | None = None) -> np.ndarray:
    """eta as a read-only int8 p x ... x p tensor, axis i installed
    coordinate i: entry [c_0, ..., c_{r-1}] is eta(c_0 a_1 + ... + c_{r-1} a_r).

    The one axis convention for eta on F_p^r.  Under the polynomial basis
    the index c_0 + c_1 p + ... puts c_{r-1} on axis 0 of the quad table
    reshaped to p x ... x p, so where table_fits the tensor is that
    reshape's .T, a view whose .T is the C-contiguous table.  Otherwise,
    once q fits the budget, quad_char_coords reads F_p^r block by block
    (boxes.poly_blocks, lex order, first axis slowest).
    """
    shape = (ctx.p,) * ctx.r
    if ctx.poly_basis and table_fits(ctx):
        out = quad_table(ctx).reshape(shape).T
    else:
        check_budget(ctx.q, budget, "the quadratic character of every element")
        blocks = poly_blocks(DigitBox.uniform(ctx, range(ctx.p)))
        out = np.concatenate([quad_char_coords(ctx, poly) for poly in blocks]).reshape(shape)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# general multiplicative characters

class MultChar:
    """Multiplicative character chi(x) = zeta_s^{j * dlog(x) mod s}.

    order s and index j define chi; its exact order in the character group
    is s / gcd(s, j).  Root orders 1 and 2 are evaluated as eta^j, read
    from quad_table by index where table_fits and through quad_char_coords
    above it; higher orders read j * dlog mod s from the field's
    discrete-log table when they are evaluated, so a character holds no
    table of its own.
    """

    def __init__(self, ctx: FieldCtx, order: int, index: int):
        self.ctx = ctx
        self.order = order
        self.index = index

    @property
    def is_principal(self) -> bool:
        return self.index % self.order == 0

    def root_exponent(self, x) -> int | None:
        """k with chi(x) = zeta_s^k, or None when chi(x) = 0."""
        k = int(self.exponents_for_indices(_element_indices(self.ctx, [x]))[0])
        return None if k < 0 else k

    def value(self, x) -> complex:
        k = self.root_exponent(x)
        if k is None:
            return 0j
        return cmath.exp(2j * cmath.pi * k / self.order)

    __call__ = value

    def exponents_for_indices(self, idx: np.ndarray) -> np.ndarray:
        """Vectorised root_exponent over an element-index array (-1 at zeros)."""
        if self.order > 2:
            dl = dlog_table(self.ctx)[idx]
            out = dl * self.index % self.order
            out[dl < 0] = -1
            return out
        if self.is_principal:
            return np.where(idx == 0, -1, 0)
        # chi = eta: exponent 1 on nonsquares, 0 on squares
        if table_fits(self.ctx):
            eta = quad_table(self.ctx)[idx]
        else:
            rows = vec_decode(self.ctx, idx.ravel())
            eta = quad_char_coords(self.ctx, rows).reshape(idx.shape)
        out = (eta == -1).astype(np.int64)
        out[eta == 0] = -1
        return out

    def __repr__(self):
        return (f"MultChar(order={self.order}, index={self.index}, "
                f"ctx=F_{self.ctx.p}^{self.ctx.r})")


def make_char(ctx: FieldCtx, order: int, index: int) -> MultChar:
    """Character of root order s (s | q-1) with index j in [0, s)."""
    if order < 1 or (ctx.q - 1) % order != 0:
        raise ValueError(f"order {order} does not divide q - 1 = {ctx.q - 1}")
    if not 0 <= index < order:
        raise ValueError(f"index {index} outside [0, {order})")
    if order > 2 and not table_fits(ctx):
        raise ValueError(
            f"q = {ctx.q} above the dlog cap {DLOG_CAP}; only root orders 1 and 2 "
            f"are available for large fields")
    return MultChar(ctx, order, index)


def _element_indices(ctx: FieldCtx, elems) -> np.ndarray:
    """Indices of FieldElems or indices, an index array as it is: int64,
    or exact Python ints (an object array) where q does not fit int64, as
    in vec_encode."""
    dtype = index_dtype(ctx)
    if isinstance(elems, np.ndarray):
        return elems.astype(dtype, copy=False)
    return np.asarray([x.idx if isinstance(x, FieldElem) else int(x) for x in elems],
                      dtype=dtype)


def char_sum(chi: MultChar, elems) -> CycloSum:
    """Exact sum of chi over an index array, or FieldElems or indices."""
    exps = chi.exponents_for_indices(_element_indices(chi.ctx, elems))
    counts = np.bincount(exps[exps >= 0], minlength=chi.order)
    return CycloSum(chi.order, [int(c) for c in counts])
