"""Multiplicative characters on F_q and exact character-sum accumulation.

The quadratic character eta has one entry point, quad_char_coords.  For
q <= DLOG_CAP it looks up a table built from the squaring image
Q = {x^2 : x != 0}; above the cap it evaluates eta(x) = (N(x) / p), the
Legendre symbol of the norm N(x) = x * x^p * ... * x^{p^{r-1}}, which lies
in F_p.  fields.vec_norm computes the norms of a block of elements in
O(log r) field multiplications, on coefficient-major (r, n) arrays in the
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
O(s) steps per prime factor of s.  Its magnitude is certified in interval
arithmetic at IV_PREC = 136 bits (the 40 digits of bounds.IV_DPS), run
directly on mpmath.libmp endpoint pairs with the precision passed to every
call, so mpmath's interval context and its global precision are neither
read nor written; mpmath is imported by the first magnitude that needs it,
and no other function here uses it.  Lower endpoints are rounded toward
-inf and upper ones toward +inf, and the result is rounded outward to
floats, so a reported bound violation can never be a rounding artifact.
"""

from __future__ import annotations

import cmath
import functools
import operator

import numpy as np

from .errors import InvariantViolation
from .fields import (FieldCtx, FieldElem, prime_factors, vec_decode,
                     vec_encode, vec_mul, vec_norm)

DLOG_CAP = 1 << 20
SQUARE_BLOCK = 1 << 15
ROOT_CACHE_SIZE = 1 << 13
IV_PREC = 136  # bits of the 40 digits bounds.IV_DPS: mpmath's dps_to_prec(40)


def _point(n: int):
    """The interval [n, n]; exact for |n| < 2^IV_PREC."""
    from mpmath.libmp import from_int

    x = from_int(n)
    return x, x


@functools.lru_cache(maxsize=ROOT_CACHE_SIZE)
def _unit_root(s: int, k: int):
    """Raw libmp intervals (cos, sin) of 2 pi k / s at IV_PREC bits.

    The angle is built as mpmath's interval context evaluates
    2 * pi * k / s, and one mpi_cos_sin gives both intervals, so every
    endpoint equals that of iv.cos and iv.sin at 40 digits.
    """
    from mpmath.libmp import (mpf_pi, mpi_cos_sin, mpi_div, mpi_mul,
                              round_ceiling, round_floor)

    prec = IV_PREC
    pi = (mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling))
    ang = mpi_mul(mpi_mul(_point(2), pi, prec), _point(k), prec)
    return mpi_cos_sin(mpi_div(ang, _point(s), prec), prec)


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

    def add_root(self, k: int, mult: int = 1):
        self.counts[k % self.order] += mult

    def __add__(self, other: "CycloSum") -> "CycloSum":
        if self.order != other.order:
            raise ValueError("cannot merge sums over different root orders")
        return CycloSum(self.order, [a + b for a, b in zip(self.counts, other.counts)])

    def __iadd__(self, other: "CycloSum"):
        if self.order != other.order:
            raise ValueError("cannot merge sums over different root orders")
        for k, c in enumerate(other.counts):
            self.counts[k] += c
        return self

    def value(self) -> complex:
        return sum(c * cmath.exp(2j * cmath.pi * k / self.order)
                   for k, c in enumerate(self.counts) if c)

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

        Orders 1 and 2 are exact.  Above them the sum is evaluated at
        IV_PREC = 136 bits, the precision passed explicitly to each libmp
        call: every term c * (cos, sin) and every partial sum has its lower
        endpoint rounded toward -inf and its upper one toward +inf (a
        negative c swaps the endpoints it multiplies), then re^2 + im^2 and
        its square root are taken on intervals, and the two endpoints are
        rounded to floats outward (floor and ceiling).  The operation
        sequence is the one mpmath's interval context runs at 40 digits, so
        the result equals it bit for bit.
        """
        if self.order <= 2:
            m = float(abs(self.value_int()))
            return m, m
        from mpmath.libmp import (fzero, mpf_add, mpf_mul_int, mpi_add, mpi_pow_int,
                                  mpi_sqrt, round_ceiling, round_floor, to_float)

        prec = IV_PREC
        re_lo = re_hi = im_lo = im_hi = fzero
        for k, c in enumerate(self.counts):
            if not c:
                continue
            c = operator.index(c)
            if abs(c) >> prec:
                raise ValueError(f"count {c} of root {k} is not below 2^{prec}")
            (cos_lo, cos_hi), (sin_lo, sin_hi) = _unit_root(self.order, k)
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
        # squaring (not self-multiplication) keeps each interval square nonnegative
        lo, hi = mpi_sqrt(mpi_add(mpi_pow_int((re_lo, re_hi), 2, prec),
                                  mpi_pow_int((im_lo, im_hi), 2, prec), prec), prec)
        return to_float(lo, rnd=round_floor), to_float(hi, rnd=round_ceiling)

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
    if ctx.q > DLOG_CAP:
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


def quad_table(ctx: FieldCtx) -> np.ndarray:
    """int8 table of the quadratic character over all element indices.

    Built from the squaring map: Q = {x^2 : x != 0} and (-x)^2 = x^2, so
    only the x whose top poly coordinate a_{r-1} lies in 0..(p-1)/2 are
    squared.  In F_p[x]/(f), x^2 is a fixed quadratic form in the poly
    coordinates a_0..a_{r-1}: its coefficients before reduction are
    c_m = sum_{i+j=m} a_i a_j, m = 0..2r-2, and c_r..c_{2r-2} fold into the
    low r through ctx._reduction.  So the p x ... x p coordinate grid is
    squared slab by slab, max(1, SQUARE_BLOCK // p^{r-1}) values of a_{r-1}
    at a time, with one arange per axis broadcast into each c_m: a term
    a_i a_j costs only as many multiplies as its two axes span.  Every
    intermediate stays below 2^41, so int64 is exact.  Only for table-sized
    fields; larger ones go through the norm in quad_char_coords.
    """
    tab = ctx._tables.get("quad")
    if tab is not None:
        return tab
    if ctx.q > DLOG_CAP:
        raise ValueError(f"q = {ctx.q} above the table cap {DLOG_CAP}; "
                         f"use quad_char_coords on element blocks instead")
    p, r = ctx.p, ctx.r
    tab = np.full(ctx.q, -1, dtype=np.int8)
    # poly coordinate a_i on grid axis r-1-i, so C order is index order
    axes = [np.arange(p, dtype=np.int64).reshape((p,) + (1,) * i)
            for i in range(r - 1)]
    step = max(1, SQUARE_BLOCK // (ctx.q // p))
    half = (p + 1) // 2
    for lo in range(0, half, step):
        top = np.arange(lo, min(lo + step, half), dtype=np.int64)
        a = axes + [top.reshape(top.shape + (1,) * (r - 1))]
        c = [sum((2 if i < m - i else 1) * a[i] * a[m - i]
                 for i in range(max(0, m - r + 1), m // 2 + 1))
             for m in range(2 * r - 1)]
        idx = np.zeros(top.shape + (p,) * (r - 1), dtype=np.int64)
        for t in range(r):
            coef = c[t] + sum(int(ctx._reduction[s, t]) * c[r + s]
                              for s in range(r - 1) if ctx._reduction[s, t])
            idx += (coef % p) * ctx._ppow[t]
        tab[idx.ravel()] = 1
    tab[0] = 0
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


# ---------------------------------------------------------------------------
# quadratic character

def quad_char_coords(ctx: FieldCtx, coords: np.ndarray) -> np.ndarray:
    """Quadratic character of reduced poly-coordinate rows; int8 in {-1, 0, 1}.

    The single entry point: the squaring-image table for q <= DLOG_CAP,
    the Legendre symbol of the norm above it.
    """
    if ctx.q <= DLOG_CAP:
        return quad_table(ctx)[vec_encode(ctx, coords)]
    return legendre_table(ctx)[vec_norm(ctx, coords)]


# ---------------------------------------------------------------------------
# general multiplicative characters

class MultChar:
    """Multiplicative character chi(x) = zeta_s^{j * dlog(x) mod s}.

    order s and index j define chi; its exact order in the character group
    is s / gcd(s, j).  Root orders 1 and 2 are evaluated as eta^j through
    quad_char_coords; higher orders carry an exponent table built from the
    field's discrete-log table.
    """

    def __init__(self, ctx: FieldCtx, order: int, index: int, exp_table=None):
        self.ctx = ctx
        self.order = order
        self.index = index
        self._exp = exp_table  # int64 per element index: exponent k, or -1 at zero

    @property
    def is_principal(self) -> bool:
        return self.index % self.order == 0

    def root_exponent(self, x) -> int | None:
        """k with chi(x) = zeta_s^k, or None when chi(x) = 0."""
        idx = x.idx if isinstance(x, FieldElem) else int(x)
        k = int(self.exponents_for_indices(np.asarray([idx], dtype=np.int64))[0])
        return None if k < 0 else k

    def value(self, x) -> complex:
        k = self.root_exponent(x)
        if k is None:
            return 0j
        return cmath.exp(2j * cmath.pi * k / self.order)

    __call__ = value

    def exponents_for_indices(self, idx: np.ndarray) -> np.ndarray:
        """Vectorised root_exponent over an element-index array (-1 at zeros)."""
        if self._exp is not None:
            return self._exp[idx]
        if self.is_principal:
            return np.where(idx == 0, -1, 0)
        # chi = eta: exponent 1 on nonsquares, 0 on squares
        eta = quad_char_coords(self.ctx, vec_decode(self.ctx, idx))
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
    if order <= 2:
        return MultChar(ctx, order, index)
    if ctx.q > DLOG_CAP:
        raise ValueError(
            f"q = {ctx.q} above the dlog cap {DLOG_CAP}; only root orders 1 and 2 "
            f"are available for large fields")
    dl = dlog_table(ctx)
    exp = (index * (dl % order)) % order
    exp[0] = -1
    return MultChar(ctx, order, index, exp_table=exp)


def char_sum(chi: MultChar, elems) -> CycloSum:
    """Exact accumulation of chi over an iterable of elements (or an index array)."""
    if isinstance(elems, np.ndarray):
        return char_sum_indices(chi, elems)
    out = CycloSum(chi.order)
    for x in elems:
        k = chi.root_exponent(x)
        if k is not None:
            out.add_root(k)
    return out


def char_sum_indices(chi: MultChar, idx: np.ndarray) -> CycloSum:
    exps = chi.exponents_for_indices(idx)
    exps = exps[exps >= 0]
    counts = np.bincount(exps, minlength=chi.order)
    return CycloSum(chi.order, [int(c) for c in counts])
