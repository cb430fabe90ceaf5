#!/usr/bin/env python3
"""Brute-force lemma verification: Weil-type sums, shifted products, U + V sums.

Every inequality is checked with an exact left-hand side; slack ratios show
how far the worst observed instances sit below the bounds.
"""

import numpy as np

from digitsquares import (lemma1_check, lemmaD_reports, lemmaE_check, make_char,
                          make_field, subfield_partition)
from digitsquares.oracles import generator_elements

# ── two-generator sums over the prime subfield ───────────────────────

print("Sums over xi in F_p of chi((xi + alpha)(xi + beta)^(s-1)), bound (2r-1) sqrt(p):")
for p, r, s in [(3, 2, 2), (5, 2, 2), (5, 2, 4), (3, 3, 2)]:
    ctx = make_field(p, r)
    reps = [rep for _, _, rep in lemmaD_reports(ctx, generator_elements(ctx), s)]
    n = len(reps)
    worst = max(reps, key=lambda rep: rep.slack)
    print(f"  F_{p}^{r}, s = {s}: {n} ordered non-conjugate generator pairs, "
          f"worst slack {worst.slack:.3f} (lhs {worst.lhs:.3f} vs rhs {worst.rhs:.3f})")

# ── complete sums of shifted character products ──────────────────────

print("\nShifted-product sums |Σ_a Π chi_i(a + h_i)| vs (t - t0 - 1) sqrt(q) + t0 + 1:")
rng = np.random.default_rng(7)
ctx = make_field(7, 2)
for trial in range(5):
    t = int(rng.integers(2, 5))
    orders = [int(rng.choice([2, 3, 4, 6])) for _ in range(t)]
    chars = [make_char(ctx, s, int(rng.integers(1, s))) for s in orders]
    shifts = [ctx.from_index(int(i)) for i in rng.choice(ctx.q, size=t, replace=False)]
    rep = lemmaE_check(ctx, chars, shifts)
    print(f"  t = {t}, orders {orders}: lhs = {rep.lhs:6.3f}, rhs = {rep.rhs:6.3f}, "
          f"slack = {rep.slack:.3f}")

# ── bilinear sums over U + V ─────────────────────────────────────────

print("\nBilinear quadratic sums |Σ_U Σ_V chi(u + v)| vs the nu-th moment bound:")
ctx = make_field(11, 2)
rng = np.random.default_rng(11)
U = [ctx.from_index(int(i)) for i in rng.choice(ctx.q, size=14, replace=False)]
V = [ctx.from_index(int(i)) for i in rng.choice(ctx.q, size=9, replace=False)]
for nu in (1, 2, 3, 4):
    rep = lemma1_check(ctx, U, V, nu)
    print(f"  nu = {nu}: lhs = {rep.lhs:5.1f}, rhs = {rep.rhs:9.2f}, slack = {rep.slack:.4f}")

# ── the subfield partition behind the thm1 bound ─────────────────────

print("\nSubfield partition of digit tuples (c_2, ..., c_r) by the degree of Σ c_j b_j:")
for p, r, digits in [(3, 2, (0, 1)), (5, 3, (0, 1, 4)), (3, 4, (0, 2))]:
    part = subfield_partition(make_field(p, r), digits)
    sizes = {d: len(v) for d, v in sorted(part.items())}
    print(f"  F_{p}^{r}, D = {digits}: class sizes {sizes}, "
          f"total {sum(sizes.values())} = |D|^(r-1) = {len(digits) ** (r - 1)}")

print("\nDone.")
