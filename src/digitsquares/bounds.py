"""High-precision evaluators for the explicit square-count bounds.

Every right-hand side is evaluated in interval arithmetic at IV_DPS = 40
decimal digits and returned as a float that is certified to be an upper
bound of the exact expression.  The precision is set for each call (never
read from mpmath's global state), so an evaluator is a pure function of its
arguments and is memoised: a sweep asks for the same few hundred values
thousands of times.  Bound checks then compare an exact integer or rational
left-hand side against that float, so a reported violation can never be a
rounding artifact.  Natural logarithms throughout.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import iv, mpf

from .errors import HypothesisNotMet

IV_DPS = 40            # decimal digits of every interval evaluation
RHS_CACHE_SIZE = 1 << 14


def _upper(x) -> float:
    """Float upper bound of an interval (or exact mpf) value."""
    b = x.b if hasattr(x, "b") else mpf(x)
    f = float(b)
    while f < b:
        f = math.nextafter(f, math.inf)
    return f


@contextlib.contextmanager
def iv_precision():
    """Run the block at IV_DPS interval digits, then restore the caller's.

    mpmath's interval context has no workdps of its own.
    """
    saved = iv.prec
    iv.dps = IV_DPS
    try:
        yield
    finally:
        iv.prec = saved


def _certified(fn):
    """Evaluate fn at IV_DPS interval digits, memoised on its arguments.

    Arguments are keyed with their types, because equal values of different
    types need not behave alike (math.factorial takes 2 but not 2.0).
    """
    @functools.wraps(fn)
    def at_iv_dps(*args, **kwargs):
        with iv_precision():
            return fn(*args, **kwargs)
    return functools.lru_cache(maxsize=RHS_CACHE_SIZE, typed=True)(at_iv_dps)


def _root(x, k: int):
    """Interval k-th root of a positive interval value."""
    return iv.exp(iv.log(x) / k)


@_certified
def thmA_rhs(p: int, r: int, d: int) -> float:
    """(1 / 2 sqrt(q)) * (d + p * sqrt(p - d))^r, for 2 <= d <= p-1."""
    if not 2 <= d <= p - 1:
        raise ValueError(f"|D| = {d} outside [2, {p - 1}]")
    q = iv.mpf(p) ** r
    val = (d + p * iv.sqrt(iv.mpf(p - d))) ** r / (2 * iv.sqrt(q))
    return _upper(val)


def thmA_heuristic_nontrivial(p: int, d: int) -> bool:
    """d >= (sqrt(5)-1)/2 * p, with the bare constant (the o_p(1) is dropped)."""
    # d >= (sqrt(5)-1)p/2  <=>  (2d + p)^2 >= 5 p^2, kept in exact integers
    return (2 * d + p) ** 2 >= 5 * p * p


@_certified
def thmB_C(p: int, t: int) -> float:
    """The piecewise constant C(p, t); undefined at t = p-1."""
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


@_certified
def thmB_rhs(p: int, r: int, t: int) -> float:
    """(1/2) * (C(p, t) * t * sqrt(p))^r for initial-interval digit sets."""
    c = iv.mpf(thmB_C(p, t))  # already an upper bound; safe to reuse
    val = (c * t * iv.sqrt(iv.mpf(p))) ** r / 2
    return _upper(val)


def thm1_hypothesis(p: int, r: int) -> bool:
    """The bound's standing assumption 2r - 1 <= sqrt(p), checked exactly."""
    return (2 * r - 1) ** 2 <= p


@_certified
def thm1_rhs(p: int, r: int, d: int) -> float:
    """Deviation bound for |W ∩ Q| via the subfield partition of the digits."""
    if d < 1:
        raise ValueError("|D| must be positive")
    pv = iv.mpf(p)
    dv = iv.mpf(d)
    inner = (_root(pv, 4) * iv.sqrt(iv.mpf(2 * r - 1)) * dv ** (r - 1)
             + _root(pv ** 3, 4) * iv.sqrt(iv.mpf(r) ** 3) / 4
             + iv.sqrt(pv))
    val = iv.sqrt(dv) * inner / 2 + iv.mpf(1) / 2
    return _upper(val)


@_certified
def thm1_threshold(p: int, r: int) -> float:
    """|D| at or above this forces a square in W (needs 2r - 1 <= sqrt(p), r >= 2)."""
    if r < 2:
        raise ValueError("the existence threshold needs r >= 2")
    base = iv.sqrt(iv.mpf(p)) * (2 * r - 1)
    delta = base ** (2 - r)  # exponent 0 at r = 2, so delta = 1 there
    val = (1 + delta) * (2 * r - 1) * iv.sqrt(iv.mpf(p))
    return _upper(val)


@_certified
def thm2_rhs(p: int, r: int, d: int, k: int, nu: int) -> float:
    """Deviation bound for |W ∩ Q| from the U + V split, any k, nu."""
    if not 1 <= k <= r - 1:
        raise ValueError(f"k = {k} outside [1, {r - 1}]")
    if nu < 1:
        raise ValueError(f"nu = {nu} must be >= 1")
    pv = iv.mpf(p)
    dv = iv.mpf(d)
    q = pv ** r
    lead = _root(dv ** ((r - k) * (2 * nu - 1)), 2 * nu)
    inner = (iv.mpf(2 * nu) ** nu * dv ** (k * nu) * q
             + dv ** (2 * k * nu) * 4 * nu * iv.sqrt(q))
    val = lead * _root(inner, 2 * nu) / 2 + iv.mpf(1) / 2
    return _upper(val)


def thm2_best(p: int, r: int, d: int, nu_cap: int | None = None):
    """Grid-search (k, nu) minimising thm2_rhs; nu capped near (r log p)."""
    if r < 2:
        raise ValueError("the split needs r >= 2")
    if nu_cap is None:
        nu_cap = max(1, math.ceil(r * math.log(p)))
    best = None
    for k in range(1, r):
        for nu in range(1, nu_cap + 1):
            rhs = thm2_rhs(p, r, d, k, nu)
            if best is None or rhs < best[2]:
                best = (k, nu, rhs)
    return best


@_certified
def thm2_Cr(r: int) -> float:
    """C(r) = exp((4 log r + 8) / r), the threshold's leading constant."""
    rv = iv.mpf(r)
    return _upper(iv.exp((4 * iv.log(rv) + 8) / rv))


@_certified
def thm2_threshold(p: int, r: int) -> float:
    """Existence threshold C(r) sqrt(p) exp((log p + 4 log log p) / r), r >= 20."""
    if r < 20:
        raise HypothesisNotMet(f"the thm2 existence threshold needs r >= 20, got r = {r}")
    pv = iv.mpf(p)
    cr = iv.exp((4 * iv.log(iv.mpf(r)) + 8) / r)
    val = cr * iv.sqrt(pv) * iv.exp((iv.log(pv) + 4 * iv.log(iv.log(pv))) / r)
    return _upper(val)


@_certified
def corC_hypothesis(p: int, t: int, eps: float) -> bool:
    """t >= p^{1/4 + eps}, certified via interval arithmetic.

    False unless certified: where the intervals overlap, mpmath's `>=`
    gives None, and the hypothesis counts as not met.
    """
    bound = iv.mpf(p) ** (iv.mpf(1) / 4 + iv.mpf(eps))
    return (iv.mpf(t) >= bound) is True


@_certified
def corC_rhs(p: int, r: int, t: int, eps: float, constant: float) -> float:
    """Report-only bound constant * (r^4 / eps) * p^{-eps^2/2} * |W|.

    The underlying estimate carries an unquantified r^{O(1)}/eps factor,
    so the caller supplies the constant and no verdict is ever asserted
    from this value.
    """
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


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound against one observed exact deviation."""

    bound_name: str              # ThmA | ThmB | Thm1 | Thm2 | CorC
    parameters: dict = field(compare=False)
    rhs_value: float = 0.0       # certified upper bound of the exact RHS
    observed: Fraction = Fraction(0)
    nontrivial: bool = False     # rhs < |W| / 2
    holds: bool = True           # observed <= rhs

    @property
    def slack(self) -> float:
        return float(self.observed) / self.rhs_value if self.rhs_value else math.inf


def check_bound(name: str, parameters: dict, rhs_value: float,
                observed: Fraction, size_w: int) -> BoundReport:
    """Exact-LHS vs upper-bounded-RHS comparison."""
    return BoundReport(
        bound_name=name,
        parameters=parameters,
        rhs_value=rhs_value,
        observed=observed,
        nontrivial=Fraction(rhs_value) < Fraction(size_w, 2),
        holds=observed <= Fraction(rhs_value),
    )
