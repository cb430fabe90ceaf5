"""Construction of and arithmetic in F_p and F_{p^r}.

Elements of F_{p^r} = F_p[x]/(f) are stored by their *index*: the integer
c_0 + c_1 p + ... + c_{r-1} p^{r-1} built from the coefficients of the
residue polynomial c_0 + c_1 x + ... + c_{r-1} x^{r-1}.  The index doubles
as a position into lookup tables, which is what makes the bulk
(numpy-vectorised) code paths cheap.

A FieldCtx also carries an installed F_p-basis a_1, ..., a_r (default: the
polynomial basis 1, x, ..., x^{r-1}) together with the change-of-coordinates
matrix and its inverse mod p.  "Coordinates" always means coordinates with
respect to the installed basis; "poly coords" means the raw residue
polynomial coefficients.  Basis indices must lie in [0, q), and the
context records once (ctx.poly_basis) whether its basis is the polynomial one.

Tables that do not depend on the basis (Frobenius matrices, quadratic and
Legendre tables) live in ctx._tables, which with_basis shares; the
generator, discrete logs and square counts live in ctx._cache, one per
context.  Frobenius, subfield degrees and conjugates all go through
the cached frobenius_matrix.

The vector kernels multiply coefficient-major (r, n) arrays in the
narrowest integer type that holds r p^2 (_kernel_dtype); the characteristic
cap of 2^20 keeps that within int64 for every r < 2^23.  They reduce mod p
with _mod_p, a floor division into scratch the caller allocates once, not
with numpy's %, which is several times slower on integer arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolation

P_CAP = 1 << 20
ROOT_CHUNK = 1 << 12  # points of F_p per root-sieve step in smallest_irreducible


def is_prime(n: int) -> bool:
    """Trial division; fine for the capped characteristic range."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p (coefficient lists, constant term first)

def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mod(a, f, p):
    """Remainder of a modulo the monic polynomial f."""
    a = list(a)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] % p
        if c:
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    return [c % p for c in a[:df]] + [0] * max(0, df - len(a))


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_gcd(a, b, p):
    a, b = _poly_trim([c % p for c in a]), _poly_trim([c % p for c in b])
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        bm = [(c * inv_lead) % p for c in b]  # monic divisor
        a, b = b, _poly_trim(_poly_mod(a, bm, p))
    return a


def is_irreducible(f, p) -> bool:
    """Monic f of degree r is irreducible iff gcd(f, x^{p^d} - x) = 1 for d <= r/2."""
    f = list(f)
    r = len(f) - 1
    if r < 1 or f[-1] != 1:
        return False
    if r == 1:
        return True
    t = [0, 1] + [0] * (r - 2)  # x
    for _ in range(r // 2):
        # t <- t^p mod f, so t holds x^{p^d} after d rounds
        acc = [1] + [0] * (r - 1)
        base = t
        e = p
        while e:
            if e & 1:
                acc = _poly_mod(_poly_mul(acc, base, p), f, p)
            base = _poly_mod(_poly_mul(base, base, p), f, p)
            e >>= 1
        t = acc
        xt = list(t)
        xt[1] = (xt[1] - 1) % p  # x^{p^d} - x
        g = _poly_gcd(f, xt, p)
        if len(g) > 1:
            return False
    return True


def smallest_irreducible(p: int, r: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree r over F_p.

    Coefficient tuples are compared constant-term-last, i.e. candidates are
    scanned in the order x^r, x^r + 1, x^r + 2, ..., x^r + x, ...: in
    groups of p that share c_1..c_{r-1}.  For r >= 2 a candidate with a
    root in F_p is reducible (x + c_0 is irreducible although it has one),
    and x^r + c_{r-1} x^{r-1} + ... + c_0 has one exactly when -c_0 lies in
    g(F_p), g(a) = a^r + c_{r-1} a^{r-1} + ... + c_1 a.  So each group
    evaluates g on F_p, ROOT_CHUNK points before each candidate not yet
    known to have a root, and sends only the candidates still not known to
    have one to is_irreducible, in order.  A group of p <= ROOT_CHUNK is
    sieved whole before its first call (for r <= 3 that call succeeds);
    a larger one costs at most one chunk per call.  The modulus is the
    scan's either way: only reducible candidates are skipped.
    """
    for n in range(p ** (r - 1)):
        upper = [(n // p ** j) % p for j in range(r - 1)]  # c_1..c_{r-1}
        rooted = np.zeros(p, dtype=bool)
        seen = 0 if r > 1 else p  # g(a) is known for a < seen
        for c0 in range(p):
            if seen < p and not rooted[c0]:
                a = np.arange(seen, min(seen + ROOT_CHUNK, p), dtype=np.int64)
                g = np.ones_like(a)
                for c in [*reversed(upper), 0]:
                    g = (g * a + c) % p
                rooted[-g % p] = True
                seen += a.size
            f = [c0] + upper + [1]
            if not rooted[c0] and is_irreducible(f, p):
                return tuple(f)
    raise RuntimeError(f"no irreducible polynomial of degree {r} over F_{p}")  # unreachable


def poly_str(coeffs) -> str:
    """Human-readable form of a coefficient list (constant term first)."""
    terms = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        if j == 0:
            terms.append(str(c))
        else:
            xj = "x" if j == 1 else f"x^{j}"
            terms.append(xj if c == 1 else f"{c}{xj}")
    return " + ".join(terms) if terms else "0"


def _matrix_inverse_mod_p(m: np.ndarray, p: int) -> np.ndarray:
    """Gauss-Jordan over F_p; raises ValueError on a singular matrix."""
    n = m.shape[0]
    a = m % p
    aug = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, n):
            if aug[i, col] % p:
                piv = i
                break
        if piv is None:
            raise ValueError("matrix is singular mod p")
        aug[[row, piv]] = aug[[piv, row]]
        inv = pow(int(aug[row, col]), p - 2, p)
        aug[row] = (aug[row] * inv) % p
        for i in range(n):
            if i != row and aug[i, col]:
                aug[i] = (aug[i] - aug[i, col] * aug[row]) % p
        row += 1
    return aug[:, n:] % p


def _check_field_params(p: int, r: int):
    """Reject a characteristic or extension degree the package cannot serve."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if p == 2:
        raise ValueError("p must be odd (p >= 3); for p = 2 every element is a square")
    if p > P_CAP:
        raise ValueError(f"p = {p} above characteristic cap {P_CAP}")
    if r < 1:
        raise ValueError(f"r = {r} must be >= 1")


class FieldCtx:
    """Immutable description of F_{p^r}: modulus, basis, and derived tables.

    Safe to share across workers; lookup tables are cached lazily but the
    mathematical content never changes after construction.
    """

    def __init__(self, p, r, modulus, basis_indices=None, _validated=False, _tables=None):
        if not _validated:
            _check_field_params(p, r)
            if len(modulus) != r + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree r (constant term first)")
            if not is_irreducible(list(modulus), p):
                raise ValueError(f"modulus {poly_str(modulus)} is reducible over F_{p}")
        self.p = p
        self.r = r
        self.q = p ** r
        self.modulus = tuple(c % p for c in modulus[:-1]) + (1,)
        self._ppow = [p ** j for j in range(r)]
        # reduction[t] = poly coords of x^{r+t} mod f, t = 0..r-2
        red = np.zeros((max(r - 1, 0), r), dtype=np.int64)
        if r > 1:
            cur = [(-c) % p for c in self.modulus[:-1]]  # x^r
            red[0] = cur
            for t in range(1, r - 1):
                top = cur[-1]
                cur = [0] + cur[:-1]
                if top:
                    cur = [(c + top * v) % p for c, v in zip(cur, red[0])]
                red[t] = cur
        self._reduction = red
        if basis_indices is None:
            basis_indices = tuple(self._ppow)  # polynomial basis 1, x, ..., x^{r-1}
        self.basis_indices = tuple(int(b) for b in basis_indices)
        if len(self.basis_indices) != r:
            raise ValueError(f"basis must have {r} elements")
        for b in self.basis_indices:
            if not 0 <= b < self.q:
                raise ValueError(f"basis index {b} outside [0, {self.q})")
        self.poly_basis = self.basis_indices == tuple(self._ppow)
        mat = np.zeros((r, r), dtype=np.int64)
        for i, idx in enumerate(self.basis_indices):
            mat[:, i] = self.index_to_poly_coords(idx)
        self.basis_matrix = mat
        self.basis_inv = _matrix_inverse_mod_p(mat, p)  # raises if not a basis
        self._tables = {} if _tables is None else _tables  # basis-independent
        self._cache = {}  # tied to the installed basis

    # -- identity ----------------------------------------------------------

    def _key(self):
        return (self.p, self.r, self.modulus, self.basis_indices)

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"FieldCtx(p={self.p}, r={self.r}, modulus={poly_str(self.modulus)})"

    # -- conversions -------------------------------------------------------

    def index_to_poly_coords(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.r):
            idx, c = divmod(idx, self.p)
            out.append(c)
        return tuple(out)

    def poly_coords_to_index(self, coords) -> int:
        return sum(int(c) % self.p * w for c, w in zip(coords, self._ppow))

    def coords_to_index(self, coords) -> int:
        """Installed-basis coordinates -> element index."""
        cv = np.asarray([int(c) % self.p for c in coords], dtype=np.int64)
        poly = (self.basis_matrix @ cv) % self.p
        return self.poly_coords_to_index(poly)

    def index_to_coords(self, idx: int) -> tuple[int, ...]:
        poly = np.asarray(self.index_to_poly_coords(idx), dtype=np.int64)
        return tuple(int(v) for v in (self.basis_inv @ poly) % self.p)

    # -- element constructors ----------------------------------------------

    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    def from_index(self, idx: int) -> "FieldElem":
        if not 0 <= idx < self.q:
            raise ValueError(f"index {idx} outside [0, {self.q})")
        return FieldElem(self, idx)

    def from_coords(self, coords) -> "FieldElem":
        return FieldElem(self, self.coords_to_index(coords))

    def from_poly_coords(self, coords) -> "FieldElem":
        return FieldElem(self, self.poly_coords_to_index(coords))

    def from_int(self, c: int) -> "FieldElem":
        """Embed an integer via the prime subfield."""
        return FieldElem(self, c % self.p)

    def elements(self):
        for idx in range(self.q):
            yield FieldElem(self, idx)

    # -- scalar arithmetic on indices ----------------------------------------

    def add_idx(self, a: int, b: int) -> int:
        ca, cb = self.index_to_poly_coords(a), self.index_to_poly_coords(b)
        return self.poly_coords_to_index([(x + y) % self.p for x, y in zip(ca, cb)])

    def sub_idx(self, a: int, b: int) -> int:
        ca, cb = self.index_to_poly_coords(a), self.index_to_poly_coords(b)
        return self.poly_coords_to_index([(x - y) % self.p for x, y in zip(ca, cb)])

    def neg_idx(self, a: int) -> int:
        return self.poly_coords_to_index([(-x) % self.p for x in self.index_to_poly_coords(a)])

    def mul_idx(self, a: int, b: int) -> int:
        p, r = self.p, self.r
        ca, cb = self.index_to_poly_coords(a), self.index_to_poly_coords(b)
        full = [0] * (2 * r - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    full[i + j] += x * y
        low = [c % p for c in full[:r]]
        for t in range(r - 1):
            h = full[r + t] % p
            if h:
                row = self._reduction[t]
                low = [(c + h * int(v)) % p for c, v in zip(low, row)]
        return self.poly_coords_to_index(low)

    def pow_idx(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_idx(self.inv_idx(a), -e)
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul_idx(result, base)
            base = self.mul_idx(base, base)
            e >>= 1
        return result

    def inv_idx(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("cannot invert zero")
        return self.pow_idx(a, self.q - 2)

    # -- basis handling ------------------------------------------------------

    def with_basis(self, basis_elems) -> "FieldCtx":
        """Same field, different installed basis (must be linearly independent):
        elements of this field or element indices."""
        idxs = tuple(self.zero()._coerce(b) if isinstance(b, FieldElem) else int(b)
                     for b in basis_elems)  # _coerce refuses another field's element
        return FieldCtx(self.p, self.r, self.modulus, idxs, _validated=True,
                        _tables=self._tables)

    def normalized_basis(self) -> "FieldCtx":
        """Install b_j = a_j / a_1 (so b_1 = 1), the square-counting normalisation."""
        a1_inv = self.inv_idx(self.basis_indices[0])
        return self.with_basis([self.mul_idx(a1_inv, b) for b in self.basis_indices])


class FieldElem:
    """An element of F_{p^r}, hashable and immutable."""

    __slots__ = ("ctx", "idx")

    def __init__(self, ctx: FieldCtx, idx: int):
        self.ctx = ctx
        self.idx = idx

    @property
    def coords(self) -> tuple[int, ...]:
        """Coordinates with respect to the installed basis."""
        return self.ctx.index_to_coords(self.idx)

    @property
    def poly_coords(self) -> tuple[int, ...]:
        return self.ctx.index_to_poly_coords(self.idx)

    def is_zero(self) -> bool:
        return self.idx == 0

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.ctx.p != self.ctx.p or other.ctx.modulus != self.ctx.modulus:
                raise ValueError("elements of different fields")
            return other.idx
        if isinstance(other, int):
            return other % self.ctx.p
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.add_idx(self.idx, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.sub_idx(self.idx, o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.sub_idx(o, self.idx))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.mul_idx(self.idx, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.mul_idx(self.idx, self.ctx.inv_idx(o)))

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx.neg_idx(self.idx))

    def __pow__(self, e: int):
        return FieldElem(self.ctx, self.ctx.pow_idx(self.idx, e))

    def inv(self) -> "FieldElem":
        return FieldElem(self.ctx, self.ctx.inv_idx(self.idx))

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return (self.idx == other.idx and self.ctx.p == other.ctx.p
                    and self.ctx.modulus == other.ctx.modulus)
        if isinstance(other, int):
            return self.idx == other % self.ctx.p if self.idx < self.ctx.p else False
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.modulus, self.idx))

    def __repr__(self):
        return f"FieldElem({poly_str(self.poly_coords)} in F_{self.ctx.p}^{self.ctx.r})"


def make_field(p: int, r: int) -> FieldCtx:
    """F_{p^r} with the lexicographically smallest irreducible modulus.

    Deterministic across runs: the modulus scan order and the polynomial
    basis are fixed, so equal (p, r) always produce identical contexts.
    """
    _check_field_params(p, r)
    modulus = smallest_irreducible(p, r)
    return FieldCtx(p, r, modulus, _validated=True)


# ---------------------------------------------------------------------------
# Frobenius, conjugates, subfield degrees (all through frobenius_matrix)

def frobenius(a: FieldElem) -> FieldElem:
    return a.ctx.from_poly_coords(np.asarray(a.poly_coords) @ frobenius_matrix(a.ctx) % a.ctx.p)


def element_degree(a: FieldElem) -> int:
    """Smallest d | r with a^{p^d} = a, i.e. a generates the subfield F_{p^d}."""
    return int(vec_degrees(a.ctx, np.asarray([a.poly_coords]))[0])


def conjugates(a: FieldElem) -> list[FieldElem]:
    """Frobenius orbit [a, a^p, ..., a^{p^{d-1}}], all distinct."""
    out = [a]
    for _ in range(1, element_degree(a)):
        out.append(frobenius(out[-1]))
    return out


def is_generator(a: FieldElem) -> bool:
    """True when a generates F_{p^r} over F_p (degree r), i.e. lies in no proper subfield."""
    return element_degree(a) == a.ctx.r


# ---------------------------------------------------------------------------
# vector kernels.  The public ones take and return poly-coordinate rows,
# int64 arrays of shape (n, r).  Field products run on coefficient-major
# (r, n) arrays in _kernel_dtype(p, r): row i holds coefficient c_i of all
# n elements, so every step is one operation on a contiguous slab.

def _kernel_dtype(p: int, r: int):
    """The narrowest integer type in which the coefficient-major kernels are exact.

    Inputs are reduced, so every coefficient lies in 0..p-1, and so do the
    rows of ctx._reduction and of every Frobenius matrix.  Each intermediate
    is a sum of nonnegative terms, so every partial sum is at most the full
    one, and each full sum is below r p^2:
    - the convolution c_m = sum_{i+j=m} a_i b_j has at most r terms, so
      c_m <= r (p-1)^2;
    - after c is reduced mod p, the fold c_t + sum_s reduction[s, t] c_{r+s}
      adds r-1 products to c_t <= p-1: at most (p-1) + (r-1)(p-1)^2;
    - a Frobenius image sum_j F[j, t] y_j has r terms: at most r (p-1)^2.
    So int32 is exact when r p^2 < 2^31 and int64 when r p^2 < 2^63, which
    P_CAP = 2^20 guarantees for every r < 2^23.  _mod_p's x // p * p never
    exceeds x, so the reductions stay within the same bound.
    """
    bound = r * p * p
    if bound < 1 << 31:
        return np.int32
    if bound < 1 << 63:
        return np.int64
    raise ValueError(f"r p^2 = {bound} overflows int64 in the field kernels")


def _mod_p(x, p, tmp):
    """x <- x mod p in place (floor semantics, as np.remainder), through
    tmp, a buffer of x's shape and type; returns x.

    x - x // p * p stands for x % p: numpy divides an integer array by a
    scalar with a multiply and a shift, but has no such loop for %, which
    took 10x as long on int16 and 4x on int32.  Writing x // p into tmp
    and subtracting in place allocates nothing.
    """
    np.floor_divide(x, p, out=tmp)
    tmp *= p
    x -= tmp
    return x


def _mul_cm(A, B, red, p, full, out, tmp):
    """out <- A * B on coefficient-major arrays of reduced coefficients.

    A and B broadcast to out's (r, ...) shape, e.g. (r, k, 1) by (r, 1, m)
    for all k m pairs; red is ctx._reduction.T, full a (2r-1, ...) buffer
    and tmp a scratch of out's shape, all in the kernel type, with full,
    out and tmp contiguous past axis 0.  r slab multiply-adds, each
    A[i] * B written into tmp, build the 2r-1 product coefficients;
    _mod_p reduces them through tmp, the fold red @ full[r:] adds
    x^r..x^{2r-2} back into the low r, and _mod_p reduces those through
    full[:r], so a call allocates nothing.  out may be A or B (both are
    read before out is written) or else tmp; tmp is neither A nor B.
    np.einsum contracts the fold and vec_norm's Frobenius images: integer
    matmul has no BLAS path and took 3.5x as long on (20, 3000) int32 slabs.
    """
    r, n = A.shape[0], out[0].size
    np.multiply(A[0], B, out=full[:r])
    full[r:] = 0
    for i in range(1, r):
        np.multiply(A[i], B, out=tmp)
        full[i:i + r] += tmp
    _mod_p(full[:r], p, tmp)
    _mod_p(full[r:], p, tmp[:r - 1])
    np.einsum("ts,sn->tn", red, full[r:].reshape(r - 1, n), out=out.reshape(r, n))
    out += full[:r]
    return _mod_p(out, p, full[:r])


def vec_mul(ctx: FieldCtx, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise product of reduced poly-coordinate rows, (n, r) -> (n, r) int64."""
    dt = _kernel_dtype(ctx.p, ctx.r)
    a = np.array(A.T, dtype=dt, order="C")
    b = np.array(B.T, dtype=dt, order="C")
    full, out = np.empty((2 * ctx.r - 1, a.shape[1]), dtype=dt), np.empty_like(a)
    _mul_cm(a, b, ctx._reduction.T.astype(dt), ctx.p, full, out=out, tmp=out)
    return np.ascontiguousarray(out.T, dtype=np.int64)


def vec_pow(ctx: FieldCtx, A: np.ndarray, e: int) -> np.ndarray:
    """Row-wise a^e for a shared non-negative integer exponent."""
    if e < 0:
        raise ValueError("negative exponents not supported in the vector kernel")
    n = A.shape[0]
    result = np.zeros((n, ctx.r), dtype=np.int64)
    result[:, 0] = 1
    base = A % ctx.p
    while e:
        if e & 1:
            result = vec_mul(ctx, result, base)
        base = vec_mul(ctx, base, base)
        e >>= 1
    return result


def frobenius_matrix(ctx: FieldCtx, k: int = 1) -> np.ndarray:
    """(r, r) matrix of a -> a^{p^k} on poly coords, cached on the ctx per k.

    Frobenius is F_p-linear, so rows A map to (A @ M) % p; row j of M holds
    the poly coords of x^{j p^k}.
    """
    mats = ctx._tables.setdefault("frobenius", {})
    if k not in mats:
        p, r = ctx.p, ctx.r
        if k == 1:
            m = np.zeros((r, r), dtype=np.int64)
            xp = ctx.pow_idx(p, p) if r > 1 else 1  # x^p; F_p is fixed pointwise
            cur = 1
            for j in range(r):
                m[j] = ctx.index_to_poly_coords(cur)
                cur = ctx.mul_idx(cur, xp)
        else:
            half = frobenius_matrix(ctx, k // 2)
            m = (half @ half) % p
            if k % 2:
                m = (m @ frobenius_matrix(ctx, 1)) % p
        mats[k] = m
    return mats[k]


def vec_degrees(ctx: FieldCtx, A: np.ndarray) -> np.ndarray:
    """Smallest d | r with a^{p^d} = a for each reduced poly-coordinate row.

    Frob^d goes over the rows still undecided, d through the divisors of r
    in increasing order.  Since a^{p^r} = a, a row left at d = r means a
    corrupted Frobenius matrix: InvariantViolation.
    """
    degrees = np.zeros(A.shape[0], dtype=np.int64)
    todo = np.arange(A.shape[0])
    for d in divisors(ctx.r):
        rows = A[todo]
        fixed = (rows @ frobenius_matrix(ctx, d) % ctx.p == rows).all(axis=1)
        degrees[todo[fixed]] = d
        todo = todo[~fixed]
    if todo.size:
        raise InvariantViolation("Frob^r moved an element: corrupted Frobenius matrix")
    return degrees


def vec_norm(ctx: FieldCtx, A: np.ndarray) -> np.ndarray:
    """Row-wise norm N(a) = a * a^p * ... * a^{p^{r-1}} of reduced
    poly-coordinate rows, an int64 in [0, p).

    Doubling along the Frobenius orbit: with y_k = a * a^p * ... * a^{p^{k-1}},
    y_{2k} = y_k * Frob^k(y_k) and y_{k+1} = a * Frob(y_k), so the product
    costs O(log r) field multiplications.  The rows are transposed and cast
    to the kernel type once; every step then runs coefficient-major, Frob^k
    as F_k.T @ y reduced by _mod_p and the product through _mul_cm, in
    four (r, n) buffers and one (2r-1, n) buffer allocated once per call,
    so no step allocates.  Raises InvariantViolation if a result leaves
    the prime field.
    """
    p, r = ctx.p, ctx.r
    dt = _kernel_dtype(p, r)
    a = np.array(A.T, dtype=dt, order="C")
    red = ctx._reduction.T.astype(dt)
    conj, out, tmp = np.empty_like(a), np.empty_like(a), np.empty_like(a)
    full = np.empty((2 * r - 1, a.shape[1]), dtype=dt)
    y = a
    k = 1
    for bit in bin(r)[3:]:
        np.einsum("ji,jn->in", frobenius_matrix(ctx, k).astype(dt), y, out=conj)
        _mod_p(conj, p, tmp)
        y = _mul_cm(y, conj, red, p, full, out=out, tmp=tmp)
        k *= 2
        if bit == "1":
            np.einsum("ji,jn->in", frobenius_matrix(ctx, 1).astype(dt), y, out=conj)
            _mod_p(conj, p, tmp)
            y = _mul_cm(a, conj, red, p, full, out=out, tmp=tmp)
            k += 1
    del conj, tmp, full  # freed before the int64 copy below, which would stack on them
    if y[1:].any():
        raise InvariantViolation("a norm N(x) landed outside the prime field F_p")
    return y[0].astype(np.int64)


def index_dtype(ctx: FieldCtx):
    """The dtype of element-index arrays: int64 while q < 2^62, object
    (exact Python ints) above."""
    return np.int64 if ctx.q < 1 << 62 else object


def vec_encode(ctx: FieldCtx, coords: np.ndarray) -> np.ndarray:
    """Poly-coordinate rows -> element indices, of index_dtype."""
    if index_dtype(ctx) is object:
        return coords.astype(object) @ np.asarray(ctx._ppow, dtype=object)
    return coords @ np.asarray(ctx._ppow, dtype=np.int64)


def vec_from_coords(ctx: FieldCtx, coords: np.ndarray, out=None) -> np.ndarray:
    """Reduced installed-basis coordinate rows -> poly-coordinate rows, int64
    (written into out when given), never a view of coords.

    Under the polynomial basis the coordinates are the poly coordinates, so
    they are copied instead of multiplied by the identity: every caller
    passes the digits of a DigitBox, which lie in [0, p).
    """
    if ctx.poly_basis:
        if out is None:
            return np.array(coords, dtype=np.int64)
        np.copyto(out, coords)
        return out
    out = np.matmul(coords, ctx.basis_matrix.T, out=out)
    out %= ctx.p
    return out


def vec_decode(ctx: FieldCtx, idx: np.ndarray) -> np.ndarray:
    """Element indices -> int64 poly-coordinate rows; indices of
    index_dtype."""
    p = ctx.p
    out = np.empty((idx.shape[0], ctx.r), dtype=np.int64)
    cur = idx.astype(index_dtype(ctx), copy=True)
    for j in range(ctx.r):
        out[:, j] = cur % p
        cur //= p
    return out
