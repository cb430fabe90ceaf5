"""Certified evaluators for the explicit square-count bounds.

Every right-hand side, the lemma bounds included, is returned as a float
that is an upper bound of the exact expression, so the census suites
(suites._bound_row) and the lemma checks (oracles) compare an exact integer
or rational left-hand side against it and a reported violation is never a
rounding artifact.  Two kinds of evaluation give that float:

* One exact placement for single algebraic roots.  A value
  ((A + B sqrt(q))^(1/n) + shift) / scale with integers A, B, q is placed
  by `_float_above`, by an integer root and exact integer comparisons, as
  the smallest float strictly above it.  Theorem A, (d + p sqrt(p - d))^r /
  2 sqrt(q), Theorem 1's existence threshold, the Theorem 2 moment bound,
  Theorem B's power (C(p, t) t sqrt(p))^r / 2 once C(p, t) is a float, and
  the Lemma 1 (the U + V form of the moment bound), Lemma D and Lemma E
  bounds take this form; a Lemma E bound at square q, an integer, is the
  float at or above it.
* One Ziv loop, `_ziv`, for everything else: a root sum and the values
  with pi, logarithms or real exponents.  bracket(w) places the value in
  [lo, hi] / den to within a few units of 2^-w; w starts at ZIV_BITS = 96
  and doubles until one float is the smallest float at or above every
  point of the bracket, which is then the smallest float at or above the
  exact value.  If the last precision still leaves a float inside the
  bracket, the float at or above its upper end is returned, still an
  upper bound.  The brackets are:
  - Theorem 1, a sum of fourth roots of integers, each between integer
    roots;
  - Theorem B's constant C(p, t), Corollary C and its hypothesis
    t >= p^(1/4 + eps), and the Theorem 2 threshold, on one integer
    kernel: pi by Machin's formula, log by the atanh series after
    reduction by powers of 2, exp and cos/sin by their Taylor series,
    square roots by isqrt.  Each kernel function takes a scaled integer x
    (the value x / 2^w) and returns its value times 2^w with an explicit
    error bound in units of 2^-w.  (mpmath's 136-bit interval gave the
    same float wherever no float lay inside it.)
  characters certifies the magnitudes of cyclotomic sums on the same
  kernel's pi and cos/sin.

Nothing here imports mpmath.  Each evaluator is a pure function of its
arguments and is memoised: a sweep asks for the same few hundred values
thousands of times.  Natural logarithms throughout.
"""

from __future__ import annotations

import functools
import math
import operator

from .errors import HypothesisNotMet, InvariantViolation

RHS_CACHE_SIZE = 1 << 14
ROOT_BITS = 70         # bits of the integer root that places _float_above's guess
ULP_STEPS = 8          # _float_above's guess is at most 2 ulps off
GUARD = 24             # guard bits of the cached pi and log 2
ZIV_BITS = 96          # first precision 2^-w of the Ziv loop
ZIV_DOUBLINGS = 6      # the Ziv loop tries at most this many precisions, doubling w


def _shift(v: int, err: int, g: int) -> tuple[int, int]:
    """A (value, error bound) pair scaled down by 2^g: the floor adds below
    one unit to err / 2^g."""
    return v >> g, -(-err >> g) + 1


def _atan_inv(n: int, w: int) -> tuple[int, int]:
    """atan(1/n) 2^w as (value, error bound in units), for an integer n >= 2.

    x_j = floor(2^w / n^(2j+1)) is exact (nested floors), so each term
    x_j // (2j+1) is within 2 units, and the alternating tail after the last
    nonzero x_j is below 1.
    """
    x, total, j = (1 << w) // n, 0, 0
    while x:
        total += -(x // (2 * j + 1)) if j & 1 else x // (2 * j + 1)
        x //= n * n
        j += 1
    return total, 2 * (j + 1)


def _atanh(num: int, den: int, w: int) -> tuple[int, int]:
    """atanh(z) 2^w as (value, error bound), for z = num / den in [0, 1/3].

    y_j, the floor of z^(2j+1) 2^w times z^2, is within 9/8 units, so each
    term y_j // (2j+1) is within 3, and the tail after y_j = 0 is below 2.
    """
    y, total, j = (num << w) // den, 0, 0
    while y:
        total += y // (2 * j + 1)
        y = y * num * num // (den * den)
        j += 1
    return total, 3 * (j + 1)


@functools.cache
def _pi(w: int) -> tuple[int, int]:
    """pi 2^w as (value, error bound): 16 atan(1/5) - 4 atan(1/239) (Machin)."""
    a, ea = _atan_inv(5, w + GUARD)
    b, eb = _atan_inv(239, w + GUARD)
    return _shift(16 * a - 4 * b, 16 * ea + 4 * eb, GUARD)


@functools.cache
def _ln2(w: int) -> tuple[int, int]:
    """log(2) 2^w as (value, error bound): 2 atanh(1/3)."""
    v, err = _atanh(1, 3, w + GUARD)
    return _shift(2 * v, 2 * err, GUARD)


def _log(x: int, w: int) -> tuple[int, int]:
    """log(x / 2^w) 2^w as (value, error bound), for an integer x >= 1.

    With x = m 2^(w+e), m in [1, 2): e log(2) + 2 atanh((m-1) / (m+1)).
    """
    if x < 1:
        raise ValueError(f"log of {x} / 2^{w}: the argument must be at least 2^-{w}")
    e = x.bit_length() - 1 - w
    one = 1 << (w + e)
    t, et = _atanh(x - one, x + one, w)
    l2, el2 = _ln2(w)
    return e * l2 + 2 * t, abs(e) * el2 + 2 * et


def _exp(x: int, w: int) -> tuple[int, int]:
    """exp(x / 2^w) 2^w as (value, error bound), for any integer x.

    2^n exp(r) with n = floor(x / log 2): the Taylor terms of exp(r),
    0 <= r < 0.7, are each within 4 units, and the error of r, n times that
    of log 2, moves exp(r) by at most thrice as much.
    """
    l2, el2 = _ln2(w)
    n = x // l2
    r = x - n * l2
    total, t, k = 0, 1 << w, 0
    while t:
        total += t
        k += 1
        t = t * r // (k << w)
    err = 4 * (k + 2) + 3 * abs(n) * el2
    if n >= 0:
        return total << n, err << n
    return _shift(total, err, -n)


def _cos_sin(x: int, w: int) -> tuple[int, int, int]:
    """(cos, sin) of x / 2^w, times 2^w, and one error bound for both, for
    |x| <= 2.5 2^w: the Taylor terms |x|^k / k! are each within 3 units."""
    a = abs(x)
    c = s = k = 0
    t = 1 << w
    while t:
        if k & 1:
            s += -t if k & 2 else t
        else:
            c += -t if k & 2 else t
        k += 1
        t = t * a // (k << w)
    return c, -s if x < 0 else s, 3 * (k + 2)


def _up(f, lo: int, hi: int, w: int) -> tuple[int, int]:
    """(lo, hi) bracket of an increasing kernel function f over [lo, hi] / 2^w."""
    a, ea = f(lo, w)
    b, eb = f(hi, w)
    return a - ea, b + eb


def _exp_up(lo: int, hi: int, w: int) -> tuple[int, int]:
    """_up of _exp, its lower end raised to 0, as exp is positive."""
    a, b = _up(_exp, lo, hi, w)
    return max(a, 0), b


def _ceil_float(n: int, d: int) -> float:
    """The smallest float at or above n / d, d > 0; inf beyond the float range."""
    try:
        f = n / d  # correctly rounded
    except OverflowError:
        return math.inf
    fn, fd = f.as_integer_ratio()
    return math.nextafter(f, math.inf) if fn * d < n * fd else f


def _ziv(bracket) -> float:
    """The smallest float at or above a value that bracket(w) places in
    [lo, hi] / den, to within a few units of 2^-w.

    Ziv's loop: w starts at ZIV_BITS and doubles until the smallest float at
    or above lo is the one at or above hi, so at or above every point of the
    bracket; that of hi is returned once w reaches ZIV_BITS 2^(ZIV_DOUBLINGS-1).
    """
    w = ZIV_BITS
    for _ in range(ZIV_DOUBLINGS):
        lo, hi, den = bracket(w)
        f = _ceil_float(hi, den)
        if _ceil_float(lo, den) == f:
            return f
        w *= 2
    return f


def _memoised(fn):
    """Memoise fn on its arguments, keyed with their types.

    Equal values of different types need not behave alike (math.factorial
    takes 2 but not 2.0).
    """
    return functools.lru_cache(maxsize=RHS_CACHE_SIZE, typed=True)(fn)


def _iroot(y: int, n: int) -> int:
    """floor(y^(1/n)) for integers y >= 1, n >= 1, by Newton's method.

    The start, a float estimate raised by 2^-40, lies above the root, and
    from above every integer Newton step decreases until it reaches the
    floor; from a 40-bit-accurate start that takes a few steps.
    """
    x = int(2.0 ** (math.log2(y) / n) * (1 + 2.0 ** -40)) + 2
    while x ** n <= y:
        x *= 2
    while True:
        z = ((n - 1) * x + y // x ** (n - 1)) // n
        if z >= x:
            return x
        x = z


def _float_above(A: int, B: int, q: int, n: int, scale: int = 1, shift: int = 0) -> float:
    """The smallest float strictly above ((A + B sqrt(q))^(1/n) + shift) / scale.

    Exact, for integers A, B, q >= 0, n, scale >= 1 and shift >= 0.  A float
    f lies above the value exactly when (scale f - shift)^n > A + B sqrt(q),
    which for dyadic f is a comparison of integers (squared once more when
    sqrt(q) is irrational).  An integer root of ROOT_BITS bits gives a guess
    within 2 ulps, which the comparison then settles.  At A + B sqrt(q) = 0
    the value shift / scale itself is returned; a value beyond the float
    range gives inf.
    """
    if min(A, B, q) < 0:
        raise ValueError("(A + B sqrt(q))^(1/n) needs A, B, q >= 0")
    s = math.isqrt(q)
    if s * s == q:
        A, B = A + B * s, 0
    if A == 0 and B == 0:
        return shift / scale
    b2q = B * B * q
    floor_x = A + math.isqrt(b2q)  # >= 1 here
    # root = floor(X^(1/n) 2^k) has ROOT_BITS bits; X^(1/n) in [root, root + 1) / 2^k
    k = ROOT_BITS - int(math.log2(floor_x) / n)
    if k >= 0:
        root = _iroot((A << k * n) + math.isqrt(b2q << 2 * k * n), n)
        num, den = root + (shift << k), scale << k
    else:
        root = _iroot(floor_x >> -k * n, n)
        num, den = (root << -k) + shift, scale
    try:
        f = num / den  # correctly rounded
    except OverflowError:
        return math.inf

    def above(g: float) -> bool:
        gn, gd = g.as_integer_ratio()
        t = scale * gn - shift * gd  # (scale g - shift) gd
        if t <= 0:
            return False
        dn = gd ** n
        diff = t ** n - A * dn  # compared with B sqrt(q) dn
        return diff > 0 and (B == 0 or diff * diff > b2q * dn * dn)

    if above(f):
        for _ in range(ULP_STEPS):
            g = math.nextafter(f, -math.inf)
            if not above(g):
                return f
            f = g
    else:
        for _ in range(ULP_STEPS):
            f = math.nextafter(f, math.inf)
            if f == math.inf or above(f):
                return f
    raise InvariantViolation(
        f"no float above ((A + B sqrt({q}))^(1/{n}) + {shift}) / {scale} within "
        f"{ULP_STEPS} ulps of the integer-root guess")


@_memoised
def thmA_rhs(p: int, r: int, d: int) -> float:
    """(1 / 2 sqrt(q)) * (d + p * sqrt(p - d))^r, for 2 <= d <= p-1, exactly.

    (d + p sqrt(m))^r = X + Y sqrt(m) with m = p - d.  At even r,
    sqrt(q) = p^{r/2}; at odd r the sqrt(p) left over from
    sqrt(q) = p^{(r-1)/2} sqrt(p) moves to the numerator, which is then
    placed as the square root of (X + Y sqrt(m))^2 p.
    """
    p, r, d = map(operator.index, (p, r, d))
    if r < 1:
        raise ValueError(f"r = {r} must be >= 1")
    if not 2 <= d <= p - 1:
        raise ValueError(f"|D| = {d} outside [2, {p - 1}]")
    m = p - d
    X, Y = 1, 0
    for _ in range(r):
        X, Y = d * X + p * m * Y, p * X + d * Y
    if r % 2 == 0:
        return _float_above(X, Y, m, 1, scale=2 * p ** (r // 2))
    return _float_above((X * X + Y * Y * m) * p, 2 * X * Y * p, m, 2,
                        scale=2 * p ** ((r + 1) // 2))


def thmA_heuristic_nontrivial(p: int, d: int) -> bool:
    """d >= (sqrt(5)-1)/2 * p, with the bare constant (the o_p(1) is dropped)."""
    # d >= (sqrt(5)-1)p/2  <=>  (2d + p)^2 >= 5 p^2, kept in exact integers
    return (2 * d + p) ** 2 >= 5 * p * p


@_memoised
def thmB_C(p: int, t: int) -> float:
    """The piecewise constant C(p, t); undefined at t = p-1."""
    p, t = map(operator.index, (p, t))
    if t == p - 1:
        raise HypothesisNotMet(f"C(p, t) is undefined at t = p - 1 (p = {p})")
    if not 2 <= t <= p - 2:
        raise ValueError(f"t = {t} outside [2, {p - 2}]")

    def bracket(w):
        w += p.bit_length()  # sin(pi / 2p) > 1 / p keeps w bits of its own
        one = 1 << w
        if t == p - 2:
            # 2 / p + 2 (1 - log(2 sin(pi / 2p))) / (pi (p - 1)); sin rises on [0, pi / 2]
            pi, epi = _pi(w)
            _, s_lo, e_lo = _cos_sin((pi - epi) // (2 * p), w)
            _, s_hi, e_hi = _cos_sin(-(-(pi + epi) // (2 * p)), w)
            l_lo, l_hi = _up(_log, 2 * (s_lo - e_lo), 2 * (s_hi + e_hi), w)
            lo = (2 * (one - l_hi) << w) // ((pi + epi) * (p - 1)) + (2 << w) // p
            hi = -(-(2 * (one - l_lo) << w) // ((pi - epi) * (p - 1))) - (-(2 << w) // p)
            return lo, hi, one
        # log(p) / t + (4/3 - log(3) / 2) / t + 1 / p = (6 log p - 3 log 3 + 8) / 6t + 1 / p
        lp, ep = _log(p << w, w)
        l3, e3 = _log(3 << w, w)
        num, err = 6 * lp - 3 * l3 + 8 * one, 6 * ep + 3 * e3
        return ((num - err) // (6 * t) + one // p,
                -(-(num + err) // (6 * t)) - (-one // p), one)

    return _ziv(bracket)


@_memoised
def thmB_rhs(p: int, r: int, t: int) -> float:
    """(1/2) * (C(p, t) * t * sqrt(p))^r for initial-interval digit sets.

    C(p, t) is already a float upper bound, a / 2^k, so the power is
    (a t)^r p^{r/2} / (2 2^{kr}), placed exactly by _float_above.
    """
    p, r, t = map(operator.index, (p, r, t))
    if r < 1:
        raise ValueError(f"r = {r} must be >= 1")
    a, den = thmB_C(p, t).as_integer_ratio()
    return _float_above(0, (a * t) ** r * p ** (r // 2), p ** (r % 2), 1, scale=2 * den ** r)


def thm1_hypothesis(p: int, r: int) -> bool:
    """The bound's standing assumption 2r - 1 <= sqrt(p), checked exactly."""
    return (2 * r - 1) ** 2 <= p


@_memoised
def thm1_rhs(p: int, r: int, d: int) -> float:
    """Deviation bound for |W ∩ Q| via the subfield partition of the digits.

    sqrt(d) (p^{1/4} sqrt(2r-1) d^{r-1} + p^{3/4} r^{3/2} / 4 + sqrt(p)) / 2 + 1/2
    = (4 d^{r-1} a^{1/4} + b^{1/4} + 4 c^{1/4} + 4) / 8, exactly, with
    a = d^2 p (2r-1)^2, b = d^2 p^3 r^6 and c = d^2 p^2.  Each fourth root
    lies in [L, L + 1) / 2^w with L = floor(root 2^w), an integer root, and
    _ziv refines w.  For a prime p the value is irrational (a^{1/4} =
    sqrt(d (2r-1)) p^{1/4}, and p^{1/4} lies in no multiquadratic field), so
    the float at or above it is the float strictly above it.
    """
    p, r, d = map(operator.index, (p, r, d))
    if r < 1:
        raise ValueError(f"r = {r} must be >= 1")
    if d < 1:
        raise ValueError("|D| must be positive")
    lead = 4 * d ** (r - 1)
    a, b, c = d * d * p * (2 * r - 1) ** 2, d * d * p ** 3 * r ** 6, d * d * p * p

    def bracket(w):
        lo = (lead * _iroot(a << 4 * w, 4) + _iroot(b << 4 * w, 4)
              + 4 * _iroot(c << 4 * w, 4) + (4 << w))
        return lo, lo + lead + 5, 8 << w  # each root < its floor + 1

    return _ziv(bracket)


@_memoised
def thm1_threshold(p: int, r: int) -> float:
    """|D| at or above this forces a square in W (needs 2r - 1 <= sqrt(p), r >= 2).

    (1 + delta) m sqrt(p) with m = 2r - 1 and delta = (m sqrt(p))^(2-r) is
    m sqrt(p) + (m sqrt(p))^(3-r): 6 sqrt(p) at r = 2, and beyond it
    m sqrt(p) + 1 / (m sqrt(p))^e with e = r - 3, where (m sqrt(p))^e is an
    integer n at even e and n sqrt(p) at odd e.  Placed exactly by
    _float_above.
    """
    p, r = map(operator.index, (p, r))
    if r < 2:
        raise ValueError("the existence threshold needs r >= 2")
    m, e = 2 * r - 1, r - 3
    if e < 0:
        return _float_above(0, 2 * m, p, 1)
    n = m ** e * p ** (e // 2)
    if e % 2 == 0:  # (n m sqrt(p) + 1) / n
        return _float_above(0, n * m, p, 1, scale=n, shift=1)
    return _float_above(0, n * m * p + 1, p, 1, scale=n * p)  # (n m p + 1) sqrt(p) / (n p)


@_memoised
def thm2_rhs(p: int, r: int, d: int, k: int, nu: int) -> float:
    """Deviation bound for |W ∩ Q| from the U + V split, any k, nu.

    d^{(r-k)(1 - 1/2nu)} ((2nu)^nu d^{k nu} q + 4 nu d^{2k nu} sqrt(q))^{1/2nu} / 2 + 1/2,
    with the lead factor taken under the 2nu-th root: exact, by _float_above.
    """
    p, r, d, k, nu = map(operator.index, (p, r, d, k, nu))
    if not 1 <= k <= r - 1:
        raise ValueError(f"k = {k} outside [1, {r - 1}]")
    if nu < 1:
        raise ValueError(f"nu = {nu} must be >= 1")
    if d < 0:
        raise ValueError(f"|D| = {d} must be >= 0")
    q = p ** r
    lead = d ** ((r - k) * (2 * nu - 1))
    return _float_above(lead * (2 * nu) ** nu * d ** (k * nu) * q,
                        lead * 4 * nu * d ** (2 * k * nu), q, 2 * nu, scale=2, shift=1)


def thm2_best(p: int, r: int, d: int, nu_cap: int | None = None):
    """Grid-search (k, nu) minimising thm2_rhs; nu capped near (r log p)."""
    if r < 2:
        raise ValueError("the split needs r >= 2")
    if nu_cap is None:
        nu_cap = max(1, math.ceil(r * math.log(p)))
    if nu_cap < 1:
        raise ValueError(f"nu cap {nu_cap} must be >= 1")
    best = None
    for k in range(1, r):
        for nu in range(1, nu_cap + 1):
            rhs = thm2_rhs(p, r, d, k, nu)
            if best is None or rhs < best[2]:
                best = (k, nu, rhs)
    return best


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


@_memoised
def lemmaD_rhs(p: int, r: int) -> float:
    """(2r - 1) sqrt(p), exactly, for a prime p."""
    p, r = operator.index(p), operator.index(r)
    if r < 1:
        raise ValueError(f"r = {r} must be >= 1")
    return _float_above(0, 2 * r - 1, p, 1)


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
    return _ceil_float((t - t0 - 1) * s + t0 + 1, 1)


def _cr_bracket(r: int, w: int) -> tuple[int, int]:
    """(lo, hi) bracket of C(r) 2^w = exp((4 log r + 8) / r) 2^w."""
    lr, er = _log(r << w, w)
    return _exp_up((4 * (lr - er) + (8 << w)) // r, -(-(4 * (lr + er) + (8 << w)) // r), w)


@_memoised
def thm2_Cr(r: int) -> float:
    """C(r) = exp((4 log r + 8) / r), the threshold's leading constant."""
    r = operator.index(r)
    if r < 1:
        raise ValueError(f"r = {r} must be >= 1")
    return _ziv(lambda w: (*_cr_bracket(r, w), 1 << w))


@_memoised
def thm2_threshold(p: int, r: int) -> float:
    """Existence threshold C(r) sqrt(p) exp((log p + 4 log log p) / r), r >= 20."""
    p, r = map(operator.index, (p, r))
    if r < 20:
        raise HypothesisNotMet(f"the thm2 existence threshold needs r >= 20, got r = {r}")
    if p < 2:
        raise ValueError(f"p = {p} must be >= 2")

    def bracket(w):
        c_lo, c_hi = _cr_bracket(r, w)
        lp, ep = _log(p << w, w)
        ll_lo, ll_hi = _up(_log, lp - ep, lp + ep, w)
        x_lo, x_hi = _exp_up((lp - ep + 4 * ll_lo) // r, -(-(lp + ep + 4 * ll_hi) // r), w)
        root = math.isqrt(p << 2 * w)
        return c_lo * root * x_lo, c_hi * (root + 1) * x_hi, 1 << 3 * w

    return _ziv(bracket)


@_memoised
def corC_hypothesis(p: int, t: int, eps: float) -> bool:
    """t >= p^{1/4 + eps}, certified.

    With 1/4 + eps = c / 4b, that is c log p - 4b log t <= 0: met when _ziv
    places that difference at or below 0.  At an exact tie (t equal to the
    power) every bracket holds 0, so the loop runs to its last precision
    and returns a float above 0: the hypothesis counts as not met, as it
    does where the last precision cannot decide.
    """
    p, t = map(operator.index, (p, t))
    if t < 1:
        return False
    a, b = eps.as_integer_ratio()
    c = b + 4 * a

    def bracket(w):
        lp, ep = _log(p << w, w)
        lt, et = _log(t << w, w)
        d, err = c * lp - 4 * b * lt, abs(c) * ep + 4 * b * et
        return d - err, d + err, 1 << w

    return _ziv(bracket) <= 0


@_memoised
def corC_rhs(p: int, r: int, t: int, eps: float, constant: float) -> float:
    """Report-only bound constant * (r^4 / eps) * p^{-eps^2/2} * |W|.

    The underlying estimate carries an unquantified r^{O(1)}/eps factor,
    so the caller supplies the constant and no verdict is ever asserted
    from this value.  |W| = t^r; with eps = a / b and the constant n / d,
    the value is (n r^4 b t^r / d a) exp(-a^2 log(p) / 2b^2).
    """
    p, r, t = map(operator.index, (p, r, t))
    if not 0 < eps <= 0.25:
        raise ValueError(f"eps = {eps} outside (0, 1/4]")
    if constant <= 0:
        raise ValueError("the user constant must be positive")
    if not corC_hypothesis(p, t, eps):
        raise HypothesisNotMet(f"t = {t} below p^(1/4 + eps)")
    a, b = eps.as_integer_ratio()
    n, d = constant.as_integer_ratio()
    size_w, den = (t ** r, d * a) if r >= 0 else (1, d * a * t ** -r)
    num = n * r ** 4 * b * size_w

    def bracket(w):
        lp, ep = _log(p << w, w)
        e_lo, e_hi = _exp_up((-a * a * (lp + ep)) // (2 * b * b),
                             -((a * a * (lp - ep)) // (2 * b * b)), w)
        return num * e_lo, num * e_hi, den << w

    return _ziv(bracket)
