"""Digit-restricted sets W(D_1,...,D_r) and coordinate interval boxes.

A DigitBox holds one residue set per coordinate of the installed basis; the
box is the set of field elements whose coordinates all lie in their sets.
An IntervalBox is the DigitBox whose set i is the integer window
N_i+1 .. N_i+H_i reduced mod p, so every function here takes one type.

Enumeration is always in lexicographic coordinate order (first coordinate
slowest), so that report files are diffable across runs, and is emitted in
numpy blocks internally.  Exhaustive walks refuse to run past the
enumeration budget instead of truncating.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded
from .fields import FieldCtx, FieldElem, _mod_p, vec_encode, vec_from_coords

DEFAULT_BUDGET = 10 ** 8
BUDGET_ENV_VAR = "DIGITSQUARES_BUDGET"
BLOCK = 1 << 15


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        val = int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    if val <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {val}")
    return val


def parse_digit_spec(spec: str, p: int) -> tuple[int, ...]:
    """Residue set from a compact string like "0-4,7,9"."""
    out = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            raise ValueError(f"empty item in digit spec {spec!r}")
        if "-" in part:
            lo_s, _, hi_s = part.partition("-")
            lo, hi = int(lo_s), int(hi_s)
            if lo > hi:
                raise ValueError(f"descending range {part!r} in digit spec")
            out.update(range(lo, hi + 1))
        else:
            out.add(int(part))
    if not out:
        raise ValueError(f"digit spec {spec!r} denotes the empty set")
    if min(out) < 0 or max(out) >= p:
        raise ValueError(f"digit spec {spec!r} has residues outside [0, {p})")
    return tuple(sorted(out))


def format_digit_set(digits) -> str:
    """Inverse of parse_digit_spec: shortest range/singleton rendering."""
    ds = sorted(digits)
    parts = []
    i = 0
    while i < len(ds):
        j = i
        while j + 1 < len(ds) and ds[j + 1] == ds[j] + 1:
            j += 1
        if j - i >= 2:
            parts.append(f"{ds[i]}-{ds[j]}")
        elif j == i:
            parts.append(str(ds[i]))
        else:
            parts.extend([str(ds[i]), str(ds[j])])
        i = j + 1
    return ",".join(parts)


@dataclass(frozen=True)
class DigitBox:
    """W(D_1,...,D_r): per-coordinate digit sets over the installed basis."""

    ctx: FieldCtx
    digits: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.digits) != self.ctx.r:
            raise ValueError(f"need {self.ctx.r} digit sets, got {len(self.digits)}")
        norm = {}  # id -> sorted set: each distinct object is normalised once
        for d in self.digits:
            if id(d) in norm:
                continue
            ds = norm[id(d)] = tuple(sorted(set(map(int, d))))
            if not ds:
                raise ValueError("digit sets must be nonempty")
            if ds[0] < 0 or ds[-1] >= self.ctx.p:
                raise ValueError(f"digits {ds} outside [0, {self.ctx.p})")
        object.__setattr__(self, "digits", tuple(norm[id(d)] for d in self.digits))

    @staticmethod
    def uniform(ctx: FieldCtx, digits) -> "DigitBox":
        """D^r: one digit set, sorted and deduplicated once, on every coordinate."""
        return DigitBox(ctx, (digits,) * ctx.r)

    @property
    def is_uniform(self) -> bool:
        return all(d == self.digits[0] for d in self.digits)

    def size(self) -> int:
        n = 1
        for d in self.digits:
            n *= len(d)
        return n

    def contains_zero(self) -> bool:
        return all(0 in d for d in self.digits)

    def contains(self, x: FieldElem) -> bool:
        return all(c in set(d) for c, d in zip(x.coords, self.digits))

    def describe(self) -> str:
        if self.is_uniform:
            return f"D={format_digit_set(self.digits[0])}"
        return "D=" + "|".join(format_digit_set(d) for d in self.digits)


@dataclass(frozen=True)
class IntervalBox(DigitBox):
    """Coordinate interval box: coordinate i runs over N_i+1 .. N_i+H_i mod p.
    Equality, hashing and describe go by the offsets and lengths."""

    digits: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    offsets: tuple[int, ...]
    lengths: tuple[int, ...]

    def __post_init__(self):
        if len(self.offsets) != self.ctx.r or len(self.lengths) != self.ctx.r:
            raise ValueError(f"offsets and lengths must have {self.ctx.r} entries")
        object.__setattr__(self, "offsets", tuple(int(n) for n in self.offsets))
        object.__setattr__(self, "lengths", tuple(int(h) for h in self.lengths))
        for h in self.lengths:
            if not 1 <= h <= self.ctx.p:
                raise ValueError(f"side length {h} outside [1, {self.ctx.p}]")
        p = self.ctx.p
        object.__setattr__(self, "digits", tuple(
            tuple(sorted((n + 1 + t) % p for t in range(h)))
            for n, h in zip(self.offsets, self.lengths)))

    def describe(self) -> str:
        return (f"N={','.join(map(str, self.offsets))};"
                f"H={','.join(map(str, self.lengths))}")


def check_budget(n: int, budget: int | None = None, what="enumeration of the box") -> int:
    """n, if a walk over n elements or terms fits the budget.

    The one place the budget rule lives: None means the default (the
    environment variable, else DEFAULT_BUDGET), and above the budget the
    walk is refused with BudgetExceeded.  A run resolves the default once
    and passes an int.
    """
    budget = default_budget() if budget is None else budget
    if n > budget:
        raise BudgetExceeded(n, budget, what)
    return n


def coords_blocks(box: DigitBox, block: int = BLOCK):
    """Yield (n, r) arrays of installed-basis coordinates in lex order.

    Digit positions (k // stride) mod size are reduced by fields._mod_p,
    not numpy's slower %.  The blocks and their scratch are allocated once
    per walk, so each block overwrites the previous one: consume (or copy)
    it before advancing.
    """
    sets = [np.asarray(s, dtype=np.int64) for s in box.digits]
    sizes = [len(s) for s in sets]
    total = 1
    for m in sizes:
        total *= m
    strides = [0] * len(sizes)
    acc = 1
    for i in range(len(sizes) - 1, -1, -1):
        strides[i] = acc
        acc *= sizes[i]
    r = box.ctx.r
    k = np.arange(min(block, total), dtype=np.int64)
    quot, tmp = np.empty_like(k), np.empty_like(k)
    buf = np.empty((k.shape[0], r), dtype=np.int64)
    for lo in range(0, total, block):
        n = min(block, total - lo)
        out = buf[:n]
        for i in range(r):
            np.floor_divide(k[:n], strides[i], out=quot[:n])
            _mod_p(quot[:n], sizes[i], tmp[:n])
            out[:, i] = sets[i][quot[:n]]
        yield out
        k += block


def poly_blocks(box: DigitBox, block: int = BLOCK):
    """Yield (n, r) poly-coordinate rows in lex coordinate order.

    Like coords_blocks, each block overwrites the previous one.
    """
    buf = None
    for coords in coords_blocks(box, block):
        if buf is None:
            buf = np.empty_like(coords)
        yield vec_from_coords(box.ctx, coords, out=buf[:coords.shape[0]])


def index_blocks(box: DigitBox, block: int = BLOCK):
    """Yield fresh int64 arrays of element indices in lex coordinate order."""
    for poly in poly_blocks(box, block):
        yield vec_encode(box.ctx, poly)


def enumerate_box(box: DigitBox, budget: int | None = None):
    """Stream every element of the box exactly once, lex coordinate order."""
    check_budget(box.size(), budget)
    ctx = box.ctx
    for idx in index_blocks(box):
        for i in idx:
            yield FieldElem(ctx, int(i))


def sample_coords(box: DigitBox, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, r) i.i.d. uniform installed-basis coordinates over the box."""
    sets = [np.asarray(s, dtype=np.int64) for s in box.digits]
    out = np.empty((n, box.ctx.r), dtype=np.int64)
    for i, s in enumerate(sets):
        out[:, i] = s[rng.integers(0, len(s), size=n)]
    return out


def sample_uniform(box: DigitBox, n: int, seed: int) -> list[FieldElem]:
    """n i.i.d. uniform elements of the box; deterministic under the seed."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    ctx = box.ctx
    rng = np.random.default_rng(seed)
    idx = vec_encode(ctx, vec_from_coords(ctx, sample_coords(box, n, rng)))
    return [FieldElem(ctx, int(i)) for i in idx]


def split_box(box: DigitBox, k: int) -> tuple[DigitBox, DigitBox]:
    """Split W = U + V: U on basis coords 1..r-k, V on the last k coords."""
    r = box.ctx.r
    if not 1 <= k <= r - 1:
        raise ValueError(f"split index k = {k} outside [1, {r - 1}]")
    zero = (0,)
    u_digits = box.digits[: r - k] + tuple(zero for _ in range(k))
    v_digits = tuple(zero for _ in range(r - k)) + box.digits[r - k:]
    return DigitBox(box.ctx, u_digits), DigitBox(box.ctx, v_digits)
