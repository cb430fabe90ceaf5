"""Quadratic and general multiplicative characters, exact cyclotomic sums."""

import cmath
import math
import random
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv
from mpmath.libmp import from_man_exp, mpf_neg

from digitsquares import (CycloSum, DigitBox, char_sum, characters, enumerate_box,
                          field_generator, make_char, make_field, oracles,
                          quad_char_coords)
from digitsquares.boxes import index_blocks
from digitsquares.characters import (DLOG_CAP, dlog_table, eta_tensor, legendre_table,
                                     quad_table)
from digitsquares.errors import BudgetExceeded, InvariantViolation
from digitsquares.fields import (FieldCtx, FieldElem, divisors, is_irreducible,
                                 is_prime, prime_factors, smallest_irreducible,
                                 vec_norm)

GRID_FIELDS = [(p, r) for p in (3, 5, 7, 11, 13) for r in (1, 2, 3)]
# r = 1; a tall tower; two fields just above the 2^20 table cap; large r; p near the cap
ORACLE_FIELDS = [(13, 1), (1048573, 1), (3, 13), (37, 4), (101, 20),
                 (1031, 2), (1048573, 2)]
# table-sized fields from r = 1 at the cap to r = 12 at p = 3
TABLE_FIELDS = [(1048573, 1), (3, 12), (5, 8), (7, 7), (13, 5), (31, 4),
                (101, 3), (1021, 2)]
# edges of the monic build: r = 1 (the sign table alone), p = 3 (one round
# of step 2), even r with p = 3 mod 4 (every (c / p)^r is 1)
BUILD_EDGE_FIELDS = [(3, 1), (65537, 1), (3, 2), (3, 3), (3, 5), (7, 2), (11, 2),
                     (19, 2), (7, 4), (3, 6)]


def random_basis(ctx, seed):
    """ctx under a seeded random basis; most draws are independent."""
    rng = np.random.default_rng(seed)
    while True:
        try:
            return ctx.with_basis([ctx.from_index(int(i))
                                   for i in rng.integers(1, ctx.q, size=ctx.r)])
        except ValueError:
            continue


def basis_combination(ctx, c):
    """c_0 a_1 + ... + c_{r-1} a_r in field arithmetic."""
    return sum((ctx.from_index(a) * int(ci) for a, ci in zip(ctx.basis_indices, c)),
               ctx.zero())


def brute_square_set(ctx):
    """Independent oracle: square every element."""
    return {(a * a).idx for a in ctx.elements() if not a.is_zero()}


def magnitude_interval_uncached(total: CycloSum):
    """CycloSum.magnitude_interval in mpmath's interval context, kept as its
    oracle: every root's interval cos/sin recomputed, at 40 digits."""
    if total.order <= 2:
        m = float(abs(total.value_int()))
        return m, m
    saved = iv.prec
    iv.dps = 40
    try:
        re = iv.mpf(0)
        im = iv.mpf(0)
        for k, c in enumerate(total.counts):
            if c:
                ang = 2 * iv.pi * k / total.order
                re += c * iv.cos(ang)
                im += c * iv.sin(ang)
        mag = iv.sqrt(re ** 2 + im ** 2)
        lo = float(iv.mpf(mag).a)
        hi = float(iv.mpf(mag).b)
        while lo > mag.a:
            lo = math.nextafter(lo, -math.inf)
        while hi < mag.b:
            hi = math.nextafter(hi, math.inf)
    finally:
        iv.prec = saved
    return max(lo, 0.0), hi


def coset_count(s: int) -> int:
    """Number of coset indicator vectors of root order s, one per (ell, j)."""
    return sum(s // ell for ell in prime_factors(s)) if s > 1 else 0


def coset_relation(s: int, weights) -> list[int]:
    """sum over prime ell | s and j < s/ell of w * [k = j mod s/ell]: each
    indicator is zeta_s^j times the sum of the ell-th roots of unity, so 0."""
    counts = [0] * s
    weights = iter(weights)
    for ell in (prime_factors(s) if s > 1 else []):
        step = s // ell
        for j in range(step):
            w = next(weights)
            for m in range(ell):
                counts[j + m * step] += w
    return counts


def assert_zero_exactly_here(counts):
    """A Z-relation among the s-th roots of unity is zero; moving any one
    count by +-1 adds +-zeta_s^k, which is not."""
    s = len(counts)
    assert CycloSum(s, counts).is_zero()
    for k in range(s):
        for d in (1, -1):
            moved = list(counts)
            moved[k] += d
            assert not CycloSum(s, moved).is_zero()


def squared_magnitude(total: CycloSum) -> CycloSum:
    """|sum|^2 = sum_{j,k} c_j c_k zeta^{j-k}, exactly."""
    out = CycloSum(total.order)
    for j, a in enumerate(total.counts):
        for k, b in enumerate(total.counts):
            if a and b:
                out.counts[(j - k) % total.order] += a * b
    return out


def quad_char(ctx, x) -> int:
    """quad_char_coords on a single element."""
    return int(quad_char_coords(ctx, np.asarray([x.poly_coords], dtype=np.int64))[0])


def norm_char(ctx, poly):
    """The above-cap path, forced on any field: Legendre symbol of the norm."""
    return legendre_table(ctx)[vec_norm(ctx, poly)]


ODD_PRIMES_16 = [p for p in range(3, 1 << 16, 2) if is_prime(p)]


def largest_irreducible(p, r):
    """Lexicographically largest monic irreducible of degree r over F_p,
    so a modulus other than make_field's for r >= 2."""
    for n in range(p ** r - 1, -1, -1):
        f = [(n // p ** j) % p for j in range(r)] + [1]
        if is_irreducible(f, p):
            return tuple(f)
    raise AssertionError(f"no irreducible polynomial of degree {r} over F_{p}")


def oracle_rows(ctx, n, seed):
    """Seeded random rows plus 0, 1, -1 and a prime-subfield element."""
    rng = np.random.default_rng([seed, ctx.p, ctx.r])
    rows = rng.integers(0, ctx.p, size=(n, ctx.r), dtype=np.int64)
    rows[:4] = 0
    rows[1, 0], rows[2, 0], rows[3, 0] = 1, ctx.p - 1, min(2, ctx.p - 1)
    return rows


@pytest.fixture(scope="session")
def assert_same_as_libmp(magnitude_interval_libmp, sum_intervals_libmp, libmp_intervals):
    """Every 136-bit endpoint of the re and im sums, and the float magnitude,
    equal those of the libmp loop."""
    def check(total):
        assert libmp_intervals(total._sum_intervals()) == sum_intervals_libmp(total)
        assert total.magnitude_interval() == magnitude_interval_libmp(total)
    return check


@pytest.fixture(scope="module")
def artefact_sums(field):
    """Sums whose printed magnitude is an artefact of the interval width."""
    cases = []
    # exact zeros, printed as the midpoint of the interval width
    for c in (1, 7, 4096, 999983, 10 ** 6):
        cases += [CycloSum(s, [c] * s) for s in (3, 4, 6, 12, 13, 30, 60, 168)]
        cases += [CycloSum(s, [-c] * s) for s in (3, 12, 60)]
        cases += [CycloSum(4, [c, 0, c, 0]), CycloSum(6, [c, 0, 0, c, 0, 0]),
                  CycloSum(6, [0, c, 0, c, 0, c]), CycloSum(12, [c, 0] * 6)]
    # zeros with counts of either sign: coset relations up to 2^20
    rng = np.random.default_rng(41)
    for s in (4, 6, 12, 30, 60, 84, 168):
        weights = rng.integers(-(1 << 20), (1 << 20) + 1, size=coset_count(s))
        cases.append(CycloSum(s, coset_relation(s, [int(w) for w in weights])))
    # |sum|^2 = q from seeded Lemma E instances on F_13^2
    ctx = field(13, 2)
    sums = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(oracles, "_report",
                            lambda lemma, params, total, rhs: sums.append(total))
        rng = np.random.default_rng(13)
        divs = [s for s in divisors(ctx.q - 1) if s > 2]
        for _ in range(40):
            t = int(rng.integers(1, 4))
            chars = [make_char(ctx, int(s), int(rng.integers(1, s)))
                     for s in rng.choice(divs, size=t)]
            shifts = [FieldElem(ctx, int(ix))
                      for ix in rng.choice(ctx.q, size=t, replace=False)]
            oracles.lemmaE_check(ctx, chars, shifts)
    root_q = [total for total in sums
              if (squared_magnitude(total)
                  + CycloSum(total.order, [-ctx.q] + [0] * (total.order - 1))).is_zero()]
    assert len(root_q) >= 10
    cases += root_q
    # counts of either sign up to 2^20
    rng = np.random.default_rng(20)
    for _ in range(40):
        order = int(rng.integers(3, 121))
        counts = rng.integers(-(1 << 20), (1 << 20) + 1, size=order)
        cases.append(CycloSum(order, [int(c) for c in counts * (rng.random(order) < 0.5)]))
    return cases


class TestQuadChar:
    def test_prime_field_values(self, field):
        F5 = field(5, 1)
        assert quad_char(F5, F5.from_int(4)) == 1
        assert quad_char(F5, F5.from_int(2)) == -1

    def test_zero_maps_to_zero(self, field):
        for p, r in [(3, 1), (3, 2), (5, 2)]:
            assert quad_char(field(p, r), field(p, r).zero()) == 0

    def test_f9_examples(self, field):
        F9 = field(3, 2)
        x = F9.from_poly_coords((0, 1))
        assert quad_char(F9, x) == 1
        assert quad_char(F9, F9.one() + x) == -1

    @pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (3, 3), (7, 2)])
    def test_matches_exhaustive_squaring(self, field, p, r):
        ctx = field(p, r)
        squares = brute_square_set(ctx)
        for a in ctx.elements():
            expected = 0 if a.is_zero() else (1 if a.idx in squares else -1)
            assert quad_char(ctx, a) == expected

    @pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (11, 1), (3, 3)])
    def test_half_the_units_are_squares(self, field, p, r):
        ctx = field(p, r)
        vals = [quad_char(ctx, a) for a in ctx.elements()]
        assert vals.count(1) == (ctx.q - 1) // 2
        assert vals.count(-1) == (ctx.q - 1) // 2


class TestQuadCharOracle:
    """The norm-based character and the squaring-image table against
    independent oracles: the Euler criterion and the dlog parity."""

    @pytest.mark.parametrize("p,r", ORACLE_FIELDS)
    def test_entry_point_matches_euler_seeded(self, field, euler_rows, p, r):
        ctx = field(p, r)
        rows = oracle_rows(ctx, 200, seed=41)
        expected = euler_rows(ctx, rows)
        assert quad_char_coords(ctx, rows).tolist() == expected.tolist()
        assert norm_char(ctx, rows).tolist() == expected.tolist()

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_entry_point_matches_euler_generated(self, field, euler_rows, data):
        p, r = data.draw(st.sampled_from(ORACLE_FIELDS))
        ctx = field(p, r)
        row = st.lists(st.integers(0, p - 1), min_size=r, max_size=r)
        rows = np.asarray(data.draw(st.lists(row, min_size=1, max_size=8)),
                          dtype=np.int64)
        expected = euler_rows(ctx, rows).tolist()
        assert quad_char_coords(ctx, rows).tolist() == expected
        assert norm_char(ctx, rows).tolist() == expected

    @pytest.mark.parametrize("p,r", GRID_FIELDS)
    def test_norm_matches_table_exhaustively(self, field, p, r):
        ctx = field(p, r)
        every = np.asarray([a.poly_coords for a in ctx.elements()], dtype=np.int64)
        assert norm_char(ctx, every).tolist() == quad_table(ctx).tolist()

    @pytest.mark.parametrize("p,r", GRID_FIELDS + [(101, 3), (1009, 2)])
    def test_quad_table_matches_dlog_parity(self, p, r):
        ctx = make_field(p, r)  # fresh: the dlog table stays out of the shared fields
        assert ctx.q <= DLOG_CAP
        dl = dlog_table(ctx)
        expected = np.where(dl % 2 == 0, 1, -1)
        expected[0] = 0
        assert np.array_equal(quad_table(ctx), expected)

    def test_norm_outside_prime_field_raises(self):
        ctx = make_field(37, 4)  # above the cap: the norm path
        rows = oracle_rows(ctx, 50, seed=3)
        quad_char_coords(ctx, rows)
        ctx._tables["frobenius"][2] = np.eye(4, dtype=np.int64)  # corrupt Frob^2
        with pytest.raises(InvariantViolation):
            quad_char_coords(ctx, rows)


class TestMonicTable:
    """monic_table, the one product of squaring, against the squaring
    oracle, and its cap."""

    @pytest.mark.parametrize("p,r", BUILD_EDGE_FIELDS + [(101, 3), (13, 5), (5, 8)])
    def test_table_is_row_one_of_each_slab(self, field, squaring_table, p, r):
        ctx = field(p, r)
        mon, full = characters.monic_table(ctx), squaring_table(ctx)
        offsets = characters.monic_offsets(p, r)
        assert mon.dtype == np.int8 and mon.size == (ctx.q - 1) // (p - 1)
        assert mon[0] == 1
        for k, off in enumerate(offsets):
            assert np.array_equal(mon[off:off + p ** k], full[p ** k:2 * p ** k]), k

    def test_table_refuses_above_the_cap(self):
        ctx = make_field(37, 5)
        assert (ctx.q - 1) // (ctx.p - 1) > DLOG_CAP
        with pytest.raises(ValueError, match="monic elements above the table cap"):
            characters.monic_table(ctx)


class TestQuadTableBuild:
    """The monic-slab build against the blocked vec_mul squaring."""

    @pytest.mark.parametrize("p,r", TABLE_FIELDS + BUILD_EDGE_FIELDS)
    def test_matches_vec_mul_squaring(self, field, squaring_table, p, r):
        ctx = field(p, r)
        assert np.array_equal(quad_table(ctx), squaring_table(ctx))

    @pytest.mark.parametrize("p", [3, 13, 65537, 1048573])
    def test_prime_field_is_legendre(self, field, p):
        assert np.array_equal(quad_table(field(p, 1)), legendre_table(field(p, 1)))

    @pytest.mark.parametrize("p,r", [(5, 4), (101, 3), (7, 2), (1021, 2), (13, 3),
                                     (7, 4), (5, 5)])
    def test_non_default_modulus(self, squaring_table, p, r):
        # the fold of c_r..c_{2k} goes through the modulus's reduction rows
        modulus = largest_irreducible(p, r)
        assert modulus != smallest_irreducible(p, r)
        ctx = FieldCtx(p, r, modulus)
        assert ctx._reduction.all()
        assert np.array_equal(quad_table(ctx), squaring_table(ctx))

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_generated_fields(self, squaring_table, data):
        r = data.draw(st.integers(1, 10))
        p = data.draw(st.sampled_from([p for p in ODD_PRIMES_16 if p ** r <= 1 << 16]))
        ctx = make_field(p, r)
        assert np.array_equal(quad_table(ctx), squaring_table(ctx))

    def test_build_squares_no_decoded_rows(self, squaring_table, monkeypatch):
        def refuse(*args):
            raise AssertionError("quad_table went through row-wise field arithmetic")

        for name in ("vec_mul", "vec_decode", "vec_encode"):
            monkeypatch.setattr(characters, name, refuse)
        for p, r in ((13, 1), (32771, 1), (7, 2), (13, 3), (101, 3), (3, 12)):
            ctx = make_field(p, r)  # fresh: no cached table
            assert np.array_equal(quad_table(ctx), squaring_table(ctx))

    @pytest.mark.parametrize("p,r", [(101, 3), (1021, 2), (31, 4), (3, 12)])
    def test_build_peak_memory(self, p, r):
        # the table itself is q <= 1 MB of int8; the blocks of step 1 and the
        # rows and permutation of step 2 add about as much again
        ctx = make_field(p, r)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            quad_table(ctx)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 3_000_000


class TestMakeChar:
    def test_principal_character(self, field):
        F7 = field(7, 1)
        chi = make_char(F7, 1, 0)
        assert chi.is_principal
        assert all(chi.root_exponent(F7.from_int(c)) == 0 for c in range(1, 7))

    def test_f7_cubic_character(self, field):
        F7 = field(7, 1)
        assert field_generator(F7).idx == 3  # smallest primitive root mod 7
        chi = make_char(F7, 3, 1)
        assert chi.root_exponent(F7.from_int(3)) == 1  # chi(g) = zeta_3

    def test_quadratic_agrees_with_quad_char(self, field, euler):
        F9 = field(3, 2)
        chi = make_char(F9, 2, 1)
        for a in F9.elements():
            qc = euler(F9, a)
            k = chi.root_exponent(a)
            assert (k is None and qc == 0) or (k == 0 and qc == 1) or (k == 1 and qc == -1)

    def test_tableless_quadratic_above_dlog_cap(self, field, euler):
        ctx = field(1031, 2)  # q = 1062961 > 2^20: no dlog table available
        chi = make_char(ctx, 2, 1)
        rng = np.random.default_rng(8)
        idx = rng.integers(0, ctx.q, size=50, dtype=np.int64)
        idx[0] = 0
        exps = chi.exponents_for_indices(idx)
        assert "dlog" not in ctx._cache
        for i, k in zip(idx, exps):
            qc = euler(ctx, int(i))
            assert (k == -1 and qc == 0) or (k == 0 and qc == 1) or (k == 1 and qc == -1)
        principal = make_char(ctx, 1, 0).exponents_for_indices(idx)
        assert principal.tolist() == [-1 if i == 0 else 0 for i in idx]
        with pytest.raises(ValueError):
            make_char(ctx, 5, 1)  # orders above 2 need the dlog table

    @pytest.mark.parametrize("p,r", [(3, 2), (13, 2), (5, 3)])
    def test_eta_exponents_by_index_match_the_coordinate_path(self, field, monkeypatch,
                                                               eta_exponents_by_coords, p, r):
        """Every index, read from the quad table by index, against the old
        decode-and-encode path; and as a 2-D array, which the table keeps
        and the norm path above the cap reshapes."""
        ctx = field(p, r)
        eta = make_char(ctx, 2, 1)
        idx = np.arange(ctx.q, dtype=np.int64)
        want = eta_exponents_by_coords(ctx, idx)
        calls = []
        monkeypatch.setattr(characters, "quad_char_coords",
                            lambda *a: calls.append(a) or quad_char_coords(*a))
        assert np.array_equal(eta.exponents_for_indices(idx), want)
        assert not calls  # the table, by index
        q = ctx.q
        rows = np.random.default_rng(q).integers(0, q, size=(3, q))
        assert np.array_equal(eta.exponents_for_indices(rows),
                              want[rows.ravel()].reshape(rows.shape))
        monkeypatch.setattr(characters, "DLOG_CAP", q - 1)  # the norm path
        assert np.array_equal(eta.exponents_for_indices(rows),
                              want[rows.ravel()].reshape(rows.shape))
        assert len(calls) == 1

    @pytest.mark.parametrize("p,r", [(7, 2), (5, 3), (13, 2)])
    def test_exponents_follow_the_exponent_table_rule(self, field, p, r):
        """Every character above order 2 against the q-entry exponent table
        make_char built for it when characters still carried one."""
        ctx = field(p, r)
        dl = dlog_table(ctx)
        idx = np.arange(ctx.q, dtype=np.int64)
        for s in divisors(ctx.q - 1):
            if s <= 2:
                continue
            for j in range(s):
                want = (j * (dl % s)) % s
                want[0] = -1
                got = make_char(ctx, s, j).exponents_for_indices(idx)
                assert np.array_equal(got, want), (s, j)

    def test_order_must_divide_group_order(self, field):
        with pytest.raises(ValueError):
            make_char(field(3, 2), 3, 1)  # 3 does not divide 8

    def test_index_range(self, field):
        with pytest.raises(ValueError):
            make_char(field(3, 2), 2, 2)

    def test_generator_is_lex_smallest(self, field):
        F9 = field(3, 2)
        g = field_generator(F9)
        assert g.coords == (1, 1)  # 1 + x, the first primitive element in lex order

    @pytest.mark.parametrize("p,r", [(3, 2), (5, 2)])
    def test_multiplicativity_exhaustive(self, field, p, r):
        ctx = field(p, r)
        for s in divisors(ctx.q - 1):
            if s == 1 or s > 8:
                continue
            chi = make_char(ctx, s, 1)
            for a in ctx.elements():
                if a.is_zero():
                    continue
                for b in ctx.elements():
                    if b.is_zero():
                        continue
                    ka, kb, kab = (chi.root_exponent(a), chi.root_exponent(b),
                                   chi.root_exponent(a * b))
                    assert kab == (ka + kb) % s


class TestCharSum:
    def test_nontrivial_full_field_sum_vanishes(self, field):
        ctx = field(5, 2)
        for s in (2, 3, 4, 6, 8):
            if (ctx.q - 1) % s:
                continue
            total = char_sum(make_char(ctx, s, 1), ctx.elements())
            assert total.is_zero()

    def test_principal_full_field(self, field):
        ctx = field(3, 2)
        total = char_sum(make_char(ctx, 1, 0), ctx.elements())
        assert total.value_int() == ctx.q - 1

    def test_quad_sum_over_digit_box(self, field):
        F9 = field(3, 2)
        box = DigitBox.uniform(F9, (1, 2))
        total = char_sum(make_char(F9, 2, 1), enumerate_box(box))
        assert total.value_int() == -4

    def test_index_array_path_matches_iterable_path(self, field):
        ctx = field(7, 2)
        chi = make_char(ctx, 3, 1)
        idx = np.arange(ctx.q, dtype=np.int64)
        a = char_sum(chi, idx)
        b = char_sum(chi, ctx.elements())
        assert a == b

    @staticmethod
    def assert_every_input_form_agrees(chi, box, elems):
        """FieldElems, a list of ints and enumerate_box each give the index
        array's sum."""
        idx = np.asarray([x.idx for x in elems], dtype=np.int64)
        assert char_sum(chi, iter(elems)) == char_sum(chi, idx)
        assert char_sum(chi, idx.tolist()) == char_sum(chi, idx)
        walked = np.concatenate(list(index_blocks(box)))
        assert char_sum(chi, enumerate_box(box)) == char_sum(chi, walked)

    @pytest.mark.parametrize("p,r", [(7, 2), (5, 3), (13, 2)])
    def test_every_input_form_matches_the_index_array(self, field, p, r):
        ctx = field(p, r)
        box = DigitBox(ctx, ((0, 1, 3),) + ((1, 2),) * (r - 1))
        big = [s for s in divisors(ctx.q - 1) if 2 < s <= 8]
        assert big
        elems = list(ctx.elements())
        for s, j in [(1, 0), (2, 0), (2, 1)] + [(s, 1) for s in big] + [(big[-1], 3)]:
            self.assert_every_input_form_agrees(make_char(ctx, s, j), box, elems)

    def test_every_input_form_above_the_table_cap(self, field, euler):
        ctx = field(1031, 2)
        assert ctx.q > DLOG_CAP
        rng = np.random.default_rng(7)
        elems = [ctx.from_index(int(i)) for i in rng.choice(ctx.q, size=300, replace=False)]
        elems.append(ctx.zero())
        box = DigitBox(ctx, (tuple(range(0, 1031, 61)), tuple(range(5, 1031, 97))))
        chi = make_char(ctx, 2, 1)
        self.assert_every_input_form_agrees(chi, box, elems)
        assert char_sum(chi, elems).value_int() == sum(euler(ctx, x) for x in elems)


    def test_indices_beyond_int64(self, field):
        """F_101^20 has q > 2^63: indices stay exact Python ints through
        char_sum, chi(x) and root_exponent, and eta matches quad_char_coords
        of the element's coordinates."""
        ctx = field(101, 20)
        rng = np.random.default_rng(63)
        elems = [ctx.from_index(2 ** 70 + 5), ctx.from_index(ctx.q - 1), ctx.zero(),
                 ctx.one()] + [ctx.from_index(int(i) << 70) for i in rng.integers(1, 99, 6)]
        chi = make_char(ctx, 2, 1)
        rows = np.asarray([x.poly_coords for x in elems], dtype=np.int64)
        want = [int(v) for v in quad_char_coords(ctx, rows)]
        assert [chi.root_exponent(x) for x in elems] == [None if v == 0 else (v < 0) + 0
                                                         for v in want]
        assert [chi(x).real for x in elems] == pytest.approx(want)
        assert char_sum(chi, elems).value_int() == sum(want)
        assert char_sum(chi, [x.idx for x in elems]).value_int() == sum(want)
        principal = make_char(ctx, 1, 0)
        assert char_sum(principal, elems).value_int() == len(elems) - 1


class TestEtaTensor:
    FIELDS = [(3, 2), (7, 2), (13, 2), (5, 3), (3, 4)]

    @pytest.mark.parametrize("p,r", FIELDS)
    @pytest.mark.parametrize("seed", [None, 3, 4])
    def test_entry_c_is_euler_at_the_basis_combination(self, field, euler, p, r, seed):
        ctx = field(p, r) if seed is None else random_basis(field(p, r), seed)
        eta = eta_tensor(ctx)
        assert eta.shape == (p,) * r and eta.dtype == np.int8
        for c in np.ndindex(eta.shape):
            assert eta[c] == euler(ctx, basis_combination(ctx, c)), c

    @pytest.mark.parametrize("seed", [None, 3])
    def test_norm_branch_above_the_cap(self, field, seed):
        ctx = field(1031, 2) if seed is None else random_basis(field(1031, 2), seed)
        assert ctx.q > DLOG_CAP
        eta = eta_tensor(ctx)
        assert eta.shape == (1031, 1031) and not eta.flags.writeable
        rng = np.random.default_rng(11)
        cs = [tuple(int(v) for v in c) for c in rng.integers(0, 1031, size=(300, 2))]
        cs += [(0, 0), (1, 0), (0, 1), (1030, 1030)]
        rows = np.asarray([basis_combination(ctx, c).poly_coords for c in cs], dtype=np.int64)
        assert [int(eta[c]) for c in cs] == quad_char_coords(ctx, rows).tolist()

    @pytest.mark.parametrize("p,r", FIELDS + [(13, 1)])
    def test_polynomial_basis_is_a_read_only_view_of_the_table(self, field, p, r):
        ctx = field(p, r)
        eta, tab = eta_tensor(ctx), quad_table(ctx)
        assert not eta.flags.writeable and tab.flags.writeable
        assert np.shares_memory(eta, tab)
        assert eta.T.flags.c_contiguous
        assert np.array_equal(eta.T.ravel(), tab)
        with pytest.raises(ValueError):
            eta[(0,) * r] = 1

    def test_other_bases_are_read_only_and_budgeted(self, field):
        ctx = random_basis(field(5, 3), 3)
        eta = eta_tensor(ctx)
        assert not eta.flags.writeable
        assert not np.shares_memory(eta, quad_table(ctx))
        assert eta_tensor(ctx, budget=125).shape == (5, 5, 5)
        with pytest.raises(BudgetExceeded):
            eta_tensor(ctx, budget=124)


class TestCycloSum:
    def test_value_int_orders(self):
        assert CycloSum(1, [5]).value_int() == 5
        assert CycloSum(2, [3, 7]).value_int() == -4
        with pytest.raises(ValueError):
            CycloSum(3, [1, 0, 0]).value_int()

    def test_is_zero_prime_order_exact(self):
        assert CycloSum(3, [4, 4, 4]).is_zero()
        assert not CycloSum(3, [4, 4, 5]).is_zero()

    def test_is_zero_coset_relations_seeded(self):
        assert_zero_exactly_here([1, 1, 1, 1])  # 1 + i - 1 - i
        rng = np.random.default_rng(29)
        for s in range(1, 61):
            for _ in range(3):
                counts = coset_relation(s, [int(w) for w in rng.integers(
                    -9, 10, size=coset_count(s))])
                assert_zero_exactly_here(counts)

    def test_is_zero_linear_at_large_composite_order(self):
        # s = 3 * 5^2 * 11 * 31 * 41; a quadratic reduction would take hours
        s = (1 << 20) - 1
        counts = coset_relation(s, [1] * coset_count(s))
        start = time.perf_counter()
        assert CycloSum(s, counts).is_zero()
        counts[12345] -= 1
        assert not CycloSum(s, counts).is_zero()
        assert time.perf_counter() - start < 20

    @given(st.integers(1, 60).flatmap(lambda s: st.tuples(st.just(s), st.lists(
        st.integers(-1000, 1000), min_size=coset_count(s), max_size=coset_count(s)))))
    @settings(max_examples=60, deadline=None)
    def test_is_zero_coset_relations_generated(self, case):
        s, weights = case
        assert_zero_exactly_here(coset_relation(s, weights))

    def test_magnitude_interval_brackets_float_value(self, cyclo_value):
        s = CycloSum(5, [3, 0, 2, 0, 1])
        lo, hi = s.magnitude_interval()
        assert lo <= abs(cyclo_value(s)) <= hi
        assert hi - lo <= 4 * math.ulp(hi)  # tight up to float outward rounding

    def test_magnitude_interval_matches_uncached_seeded(self):
        rng = np.random.default_rng(91)
        for _ in range(40):
            order = int(rng.integers(1, 201))
            counts = rng.integers(-6, 7, size=order) * (rng.random(order) < 0.3)
            total = CycloSum(order, [int(c) for c in counts])
            assert total.magnitude_interval() == magnitude_interval_uncached(total)

    @given(st.integers(1, 200).flatmap(
        lambda s: st.lists(st.integers(-20, 20), min_size=s, max_size=s)))
    @settings(max_examples=40, deadline=None)
    def test_magnitude_interval_matches_uncached_generated(self, counts):
        total = CycloSum(len(counts), counts)
        assert total.magnitude_interval() == magnitude_interval_uncached(total)

    def test_unit_root_matches_iv_cos_sin(self):
        saved = iv.prec
        iv.dps = 40
        try:
            for s in range(1, 201):
                for k in range(s):
                    ang = 2 * iv.pi * k / s
                    assert characters._unit_root(s, k) == (iv.cos(ang)._mpi_,
                                                           iv.sin(ang)._mpi_)
        finally:
            iv.prec = saved

    def test_magnitude_interval_matches_uncached_on_artefact_classes(self, artefact_sums):
        for total in artefact_sums:
            assert total.magnitude_interval() == magnitude_interval_uncached(total)

    def test_sum_intervals_match_libmp_on_artefact_classes(self, artefact_sums,
                                                           assert_same_as_libmp):
        for total in artefact_sums:
            assert_same_as_libmp(total)

    def test_sum_intervals_match_libmp_at_the_refusal_edge(self, assert_same_as_libmp):
        big = (1 << characters.IV_PREC) - 1
        cases = []
        for s in (3, 4, 5, 8, 12, 24, 60, 168, 400):
            cases += [CycloSum(s, [big] * s), CycloSum(s, [-big] * s),
                      CycloSum(s, [big, -big] * (s // 2) + [big] * (s % 2))]
            # a term 2^136 (at s / 4: 2^272) times smaller than the sum it joins
            for k in {1, s // 4, s // 2}:
                counts = [0] * s
                counts[0], counts[k] = big, 1
                cases += [CycloSum(s, counts), CycloSum(s, [-c for c in counts])]
        for total in cases:
            assert_same_as_libmp(total)

    def test_sum_intervals_match_libmp_seeded_up_to_order_400(self, assert_same_as_libmp):
        rnd = random.Random(400)
        for _ in range(30):
            order = rnd.randrange(3, 401)
            counts = [0] * order
            for k in rnd.sample(range(order), min(order, rnd.randrange(1, 25))):
                bound = 1 << rnd.randrange(1, characters.IV_PREC + 1)
                counts[k] = rnd.randrange(-bound + 1, bound)
            assert_same_as_libmp(CycloSum(order, counts))

    @given(st.integers(3, 400).flatmap(lambda s: st.tuples(st.just(s), st.dictionaries(
        st.integers(0, s - 1),
        st.one_of(st.integers(-20, 20),
                  st.integers(-(1 << characters.IV_PREC) + 1, (1 << characters.IV_PREC) - 1)),
        max_size=12))))
    @settings(max_examples=60, deadline=None)
    def test_sum_intervals_match_libmp_generated(self, assert_same_as_libmp, case):
        s, entries = case
        counts = [0] * s
        for k, c in entries.items():
            counts[k] = c
        assert_same_as_libmp(CycloSum(s, counts))

    def test_magnitude_interval_calls_no_mpf_add_or_mul_int(self, monkeypatch, artefact_sums,
                                                            magnitude_interval_libmp):
        """Spied where the code imports them from; mpmath's own interval
        functions (comparisons in mpi_sqrt) bind their own names."""
        import mpmath.libmp

        calls = Counter()
        for name in ("mpf_add", "mpf_mul_int"):
            def spy(*args, _real=getattr(mpmath.libmp, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(mpmath.libmp, name, spy)
        for total in artefact_sums:
            total.magnitude_interval()
        assert not calls
        magnitude_interval_libmp(CycloSum(5, [3, 0, 2, 0, 1]))  # the spy sees the old loop
        assert calls == {"mpf_add": 12, "mpf_mul_int": 12}

    @pytest.mark.parametrize("seed", [0, 17])
    def test_sum_intervals_match_tuple_loop_on_lemma_sums(self, sum_intervals_tuples,
                                                          libmp_intervals, seed):
        """Every sum above order 2 of the lemmaE half of a cert_grid round."""
        from digitsquares import suites

        sums = []
        real = oracles._report
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(oracles, "_report", lambda lemma, params, total, rhs:
                                sums.append(total) or real(lemma, params, total, rhs))
            for p in (3, 5, 7, 11, 13):
                suites.live_field.cache_clear()
                suites.suite_lemmaE(suites.TaskOptions(p=p, r=2, seed=seed, trials=40))
        suites.live_field.cache_clear()
        big = [total for total in sums if total.order > 2]
        assert len(big) > 150
        for total in big:
            assert libmp_intervals(total._sum_intervals()) == sum_intervals_tuples(total)
            negated = CycloSum(total.order, [-c for c in total.counts])
            assert libmp_intervals(negated._sum_intervals()) == sum_intervals_tuples(negated)

    @given(st.integers(3, 200).flatmap(lambda s: st.tuples(st.just(s), st.dictionaries(
        st.integers(0, s - 1), st.integers(-(1 << 20), 1 << 20), max_size=16))))
    @settings(max_examples=60, deadline=None)
    def test_sum_intervals_match_tuple_loop_generated(self, sum_intervals_tuples,
                                                      libmp_intervals, case):
        s, entries = case
        counts = [0] * s
        for k, c in entries.items():
            counts[k] = c
        total = CycloSum(s, counts)
        assert libmp_intervals(total._sum_intervals()) == sum_intervals_tuples(total)

    def test_root_matches_iv_of_the_unreduced_pair(self):
        """(s 2^j, k 2^j) is looked up as the pair with no common power of
        two, and its endpoints (the upper ones stored negated) are those iv
        gives the unreduced pair."""
        saved = iv.prec
        iv.dps = 40
        cos_sin = {}  # iv.cos and iv.sin depend on the angle interval alone
        try:
            for s in range(1, 201):
                for k in range(s):
                    for j in range(4):
                        ang = 2 * iv.pi * (k << j) / (s << j)
                        if ang._mpi_ not in cos_sin:
                            cos_sin[ang._mpi_] = (iv.cos(ang)._mpi_, iv.sin(ang)._mpi_)
                        ends = characters._root(s << j, k << j)
                        got = [from_man_exp(ends[2 * i], ends[2 * i + 1]) for i in range(4)]
                        got[1], got[3] = mpf_neg(got[1]), mpf_neg(got[3])
                        assert ((got[0], got[1]), (got[2], got[3])) == cos_sin[ang._mpi_]
        finally:
            iv.prec = saved

    def test_cold_lemma_round_evaluates_one_cos_sin_per_reduced_root(self, monkeypatch):
        """The lemmaE half of a cert_grid round at seed 0, from a cold cache:
        one kernel evaluation per reduced root, and no libmp fallback."""
        import mpmath.libmp

        from digitsquares import suites

        real_kernel, real_root = characters._kernel_root, characters._root
        evaluated, asked, fallbacks = [], set(), []

        def kernel_root(s, k):
            evaluated.append((s, k))
            return real_kernel(s, k)

        def root(s, k):
            asked.add((s, k))
            return real_root(s, k)

        characters._root_ends.cache_clear()
        monkeypatch.setattr(mpmath.libmp, "mpi_cos_sin", lambda *a: fallbacks.append(a))
        monkeypatch.setattr(characters, "_kernel_root", kernel_root)
        monkeypatch.setattr(characters, "_root", root)
        for p in (3, 5, 7, 11, 13):
            suites.suite_lemmaE(suites.TaskOptions(p=p, r=2, seed=0, trials=40))
        characters._root_ends.cache_clear()
        assert all((s | k) & 1 for s, k in evaluated)
        assert len(set(evaluated)) == len(evaluated) < len(asked)
        assert not fallbacks

    @pytest.mark.parametrize("dps", [15, 100])
    def test_magnitude_interval_ignores_caller_precision(self, dps):
        totals = [CycloSum(7, [5, 0, -3, 1, 0, 0, 2]), CycloSum(8, [9, 0, 0, 0, 9, 0, 0, 0])]
        expected = [magnitude_interval_uncached(total) for total in totals]
        saved = iv.prec
        iv.dps = dps
        prec = iv.prec
        try:
            characters._root_ends.cache_clear()
            assert [total.magnitude_interval() for total in totals] == expected
            assert iv.prec == prec
        finally:
            iv.prec = saved

    def test_raw_path_builds_no_interval_objects(self, monkeypatch):
        def untouchable(*args):
            raise AssertionError("mpmath's interval context was used")
        monkeypatch.setattr(type(iv), "prec", property(untouchable, untouchable))
        monkeypatch.setattr(type(iv), "dps", property(untouchable, untouchable))
        monkeypatch.setattr(iv, "make_mpf", untouchable)
        characters._root_ends.cache_clear()
        lo, hi = CycloSum(9, [1, 0, 4, 0, 0, -2, 0, 0, 1]).magnitude_interval()
        assert 0 < lo <= hi

    def test_iv_prec_is_the_bits_of_iv_dps(self, private_iv):
        # one precision for every interval: the magnitude path replays
        # mpmath's interval context at the bits of 40 decimal digits
        from mpmath.libmp import dps_to_prec

        from digitsquares import bounds
        assert private_iv.prec == bounds.IV_PREC == characters.IV_PREC == dps_to_prec(40)

    def test_magnitude_interval_refuses_counts_beyond_the_precision(self):
        with pytest.raises(ValueError):
            CycloSum(3, [1 << characters.IV_PREC, 0, 0]).magnitude_interval()

    def test_value_matches_complex_sum(self, cyclo_value):
        s = CycloSum(6, [1, 2, 0, 4, 0, 1])
        direct = sum(c * cmath.exp(2j * cmath.pi * k / 6) for k, c in enumerate(s.counts))
        assert abs(cyclo_value(s) - direct) < 1e-12
        lo, hi = s.magnitude_interval()
        assert lo <= abs(direct) <= hi

    @given(st.lists(st.integers(-50, 50), min_size=4, max_size=4),
           st.lists(st.integers(-50, 50), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_merge_is_componentwise(self, a, b):
        sa, sb = CycloSum(4, a), CycloSum(4, b)
        merged = sa + sb
        assert merged.counts == [x + y for x, y in zip(a, b)]
        assert (sa + sb) == (sb + sa)

    def test_mismatched_orders_refuse_to_merge(self):
        with pytest.raises(ValueError):
            CycloSum(2) + CycloSum(4)


def cert_grid_roots() -> set:
    """The reduced (s, k) of every unit root a cert_grid round reads at
    seeds 0-31: the lemmaE suites, the only magnitudes above order 2."""
    from digitsquares import suites

    asked = set()
    real = characters._root
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(characters, "_root", lambda s, k: asked.add((s, k)) or real(s, k))
        for seed in range(32):
            for p in (3, 5, 7, 11, 13):
                suites.live_field.cache_clear()
                suites.suite_lemmaE(suites.TaskOptions(p=p, r=2, seed=seed, trials=40))
    suites.live_field.cache_clear()
    return {(1, 0) if not k else (s // ((s | k) & -(s | k)), k // ((s | k) & -(s | k)))
            for s, k in asked}


# roots whose kernel margin leaves an endpoint open: found by scanning every
# reduced (s, k) with s < 2500; a zero margin decides the first three wrongly
OPEN_ROOTS = [(1169, 459), (1907, 1720), (1923, 410), (107, 18), (404, 401), (2362, 1)]


class TestUnitRootKernel:
    """characters._root_ends from the integer kernel against the folded
    libmp mpi_cos_sin root it replaced (conftest libmp_root_ends)."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        """The (s, k) sent to the libmp fallback, _unit_root."""
        seen = []
        real = characters._unit_root
        monkeypatch.setattr(characters, "_unit_root",
                            lambda s, k: seen.append((s, k)) or real(s, k))
        return seen

    @staticmethod
    def assert_roots_match(pairs, libmp_root_ends):
        wrong = [(s, k) for s, k in pairs
                 if characters._root_ends.__wrapped__(s, k) != libmp_root_ends(s, k)]
        assert not wrong

    def test_every_root_below_order_300(self, libmp_root_ends, fallbacks):
        self.assert_roots_match([(s, k) for s in range(1, 300) for k in range(s)],
                                libmp_root_ends)
        assert fallbacks == [(107, 18), (214, 36)]  # one root, reduced and not

    def test_every_quarter_root_below_order_2000(self, libmp_root_ends, fallbacks):
        pairs = [(s, k) for s in range(1, 2000) for k in range(1, s) if 4 * k % s == 0]
        assert len(pairs) == 1997
        self.assert_roots_match(pairs, libmp_root_ends)
        assert not fallbacks

    def test_seeded_random_roots_below_order_10000(self, libmp_root_ends, fallbacks):
        rnd = random.Random(10 ** 4)
        pairs = []
        for _ in range(2000):
            s = rnd.randrange(3, 10 ** 4)
            pairs.append((s, rnd.randrange(s)))
        self.assert_roots_match(pairs, libmp_root_ends)
        assert len(fallbacks) == 1

    def test_cert_grid_roots_need_no_fallback(self, libmp_root_ends, fallbacks):
        roots = cert_grid_roots()
        assert len(roots) == 443
        assert sum(1 for s, k in roots if k and 4 * k % s == 0) == 18
        self.assert_roots_match(sorted(roots), libmp_root_ends)
        assert len(fallbacks) == 0

    def test_open_roots_fall_back(self, libmp_root_ends, fallbacks):
        assert all(characters._kernel_root(s, k) is None for s, k in OPEN_ROOTS)
        self.assert_roots_match(OPEN_ROOTS, libmp_root_ends)
        assert fallbacks == OPEN_ROOTS

    def test_zero_margin_gets_roots_wrong(self, monkeypatch, libmp_root_ends):
        """The margin is what makes the guard exact: without it every root
        is decided, and some endpoint differs from libmp's."""
        monkeypatch.setattr(characters, "_margin", lambda v, err, quarter: 0)
        decided = [characters._kernel_root(s, k) for s, k in OPEN_ROOTS]
        assert None not in decided
        folded = [libmp_root_ends(s, k) for s, k in OPEN_ROOTS]
        got = [(c0[0], c0[1], -c1[0], c1[1], s0[0], s0[1], -s1[0], s1[1])
               for (c0, c1), (s0, s1) in decided]
        assert sum(g != f for g, f in zip(got, folded)) == 3

    @given(st.integers(3, 1 << 20).flatmap(
        lambda s: st.tuples(st.just(s), st.integers(1, s - 1))))
    @settings(max_examples=200, deadline=None)
    def test_generated_roots(self, libmp_root_ends, case):
        s, k = case
        assert characters._root_ends.__wrapped__(s, k) == libmp_root_ends(s, k)

