"""Certified evaluators for the explicit square-count bounds.

Every right-hand side is returned as a float that is an upper bound of the
exact expression, so the census suites (suites._bound_row) compare an exact
integer or rational left-hand side against it and a reported violation is
never a rounding artifact.  Two kinds of evaluation give that float:

* The algebraic right-hand sides are placed exactly, by integer roots and
  exact integer comparisons, with no intervals and no mpmath; each is the
  smallest float strictly above its exact value (but a Lemma E bound at
  square q, an integer, is returned as it is).
  - Theorem A, (d + p sqrt(p - d))^r / 2 sqrt(q), Theorem 1's existence
    threshold, and the Theorem 2 moment bound (with Lemma 1, its U + V
    form, and Lemmas D and E in `oracles`) are
    ((A + B sqrt(q))^(1/n) + shift) / scale with integers A, B, q;
    `_float_above` places them.  So is Theorem B's power
    (C(p, t) t sqrt(p))^r / 2, once C(p, t) is a float.
  - Theorem 1 is a sum of fourth roots of integers; each root is bracketed
    between integer roots, more finely until no float lies in the bracket.
* The values that involve pi, logarithms or real exponents (Theorem B's
  constant C(p, t), Corollary C, the Theorem 2 threshold) are evaluated in
  interval arithmetic at IV_PREC = 136 bits (40 decimal digits), then
  rounded up.  They run in one private mpmath interval context, built at
  that precision on first use (_iv), so mpmath's global contexts are never
  read or written.  Only these evaluators import mpmath, on their first
  call.

Each evaluator is a pure function of its arguments and is memoised: a sweep
asks for the same few hundred values thousands of times.  Natural logarithms
throughout.
"""

from __future__ import annotations

import functools
import math
import operator

from .errors import HypothesisNotMet, InvariantViolation

IV_PREC = 136          # bits of every interval evaluation: mpmath's dps_to_prec(40)
RHS_CACHE_SIZE = 1 << 14
ROOT_BITS = 70         # bits of the integer root that places _float_above's guess
ULP_STEPS = 8          # _float_above's guess is at most 2 ulps off
THM1_BITS = 64         # first scale 2^K of thm1_rhs's fourth-root bracket
THM1_DOUBLINGS = 8     # thm1_rhs doubles K at most this many times


def _upper(x) -> float:
    """Float upper bound of an interval value."""
    b = x.b
    f = float(b)
    while f < b:
        f = math.nextafter(f, math.inf)
    return f


@functools.cache
def _iv():
    """The interval context of every evaluator here: private, at IV_PREC bits.

    Built on the first call, which imports mpmath; nothing sets its
    precision again.
    """
    from mpmath.ctx_iv import MPIntervalContext

    ctx = MPIntervalContext()
    ctx.prec = IV_PREC
    return ctx


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


def _float_past(lo: int, hi: int, den: int) -> float | None:
    """The smallest float strictly above hi / den, if no float lies in
    [lo / den, hi / den]; None if one does.  inf beyond the float range."""
    try:
        f = hi / den  # correctly rounded
    except OverflowError:
        return math.inf
    fn, fd = f.as_integer_ratio()
    if fn * den <= hi * fd:
        f = math.nextafter(f, math.inf)
    gn, gd = math.nextafter(f, -math.inf).as_integer_ratio()
    return f if gn * den < lo * gd else None


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
    iv = _iv()
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
    lies in [L, L + 1) / 2^K with L = floor(root 2^K), an integer root; K
    doubles from THM1_BITS until that bracket of the sum holds no float.
    """
    p, r, d = map(operator.index, (p, r, d))
    if r < 1:
        raise ValueError(f"r = {r} must be >= 1")
    if d < 1:
        raise ValueError("|D| must be positive")
    lead = 4 * d ** (r - 1)
    a, b, c = d * d * p * (2 * r - 1) ** 2, d * d * p ** 3 * r ** 6, d * d * p * p
    k = THM1_BITS
    for _ in range(THM1_DOUBLINGS):
        lo = (lead * _iroot(a << 4 * k, 4) + _iroot(b << 4 * k, 4)
              + 4 * _iroot(c << 4 * k, 4) + (4 << k))
        f = _float_past(lo, lo + lead + 1 + 4, 8 << k)  # each root < its floor + 1
        if f is not None:
            return f
        k *= 2
    raise InvariantViolation(
        f"thm1_rhs({p}, {r}, {d}): a float still lies in the bracket at 2^-{k // 2}")


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
def thm2_Cr(r: int) -> float:
    """C(r) = exp((4 log r + 8) / r), the threshold's leading constant."""
    iv = _iv()
    rv = iv.mpf(r)
    return _upper(iv.exp((4 * iv.log(rv) + 8) / rv))


@_memoised
def thm2_threshold(p: int, r: int) -> float:
    """Existence threshold C(r) sqrt(p) exp((log p + 4 log log p) / r), r >= 20."""
    iv = _iv()
    if r < 20:
        raise HypothesisNotMet(f"the thm2 existence threshold needs r >= 20, got r = {r}")
    pv = iv.mpf(p)
    cr = iv.exp((4 * iv.log(iv.mpf(r)) + 8) / r)
    val = cr * iv.sqrt(pv) * iv.exp((iv.log(pv) + 4 * iv.log(iv.log(pv))) / r)
    return _upper(val)


@_memoised
def corC_hypothesis(p: int, t: int, eps: float) -> bool:
    """t >= p^{1/4 + eps}, certified via interval arithmetic.

    False unless certified: where the intervals overlap, mpmath's `>=`
    gives None, and the hypothesis counts as not met.
    """
    iv = _iv()
    bound = iv.mpf(p) ** (iv.mpf(1) / 4 + iv.mpf(eps))
    return (iv.mpf(t) >= bound) is True


@_memoised
def corC_rhs(p: int, r: int, t: int, eps: float, constant: float) -> float:
    """Report-only bound constant * (r^4 / eps) * p^{-eps^2/2} * |W|.

    The underlying estimate carries an unquantified r^{O(1)}/eps factor,
    so the caller supplies the constant and no verdict is ever asserted
    from this value.
    """
    iv = _iv()
    if not 0 < eps <= 0.25:
        raise ValueError(f"eps = {eps} outside (0, 1/4]")
    if constant <= 0:
        raise ValueError("the user constant must be positive")
    if not corC_hypothesis(p, t, eps):
        raise HypothesisNotMet(f"t = {t} below p^(1/4 + eps)")
    ev = iv.mpf(eps)
    size_w = iv.mpf(t) ** r
    val = iv.mpf(constant) * (iv.mpf(r) ** 4 / ev) * iv.exp(-ev * ev / 2 * iv.log(iv.mpf(p))) * size_w
    return _upper(val)
