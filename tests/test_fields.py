"""Field construction, arithmetic, Frobenius machinery."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsquares import (InvariantViolation, conjugates, element_degree,
                          field_generator, fields, frobenius, is_generator,
                          make_field)
from digitsquares.characters import _square_dtype, dlog_table, legendre_table, quad_table
from digitsquares.fields import (FieldCtx, _kernel_dtype, _mod_p, divisors, frobenius_matrix,
                                 is_irreducible, is_prime, poly_str, smallest_irreducible,
                                 vec_decode, vec_degrees, vec_encode, vec_from_coords,
                                 vec_mul, vec_norm, vec_pow)
from digitsquares.oracles import generator_elements
from digitsquares.suites import square_census

# every element of these fields is checked against the scalar oracles
ORACLE_FIELDS = [(3, 2), (5, 2), (3, 3), (3, 4), (7, 2), (3, 6)]
# the kernels' integer type switches at r p^2 = 2^31: 2 144 994 002 below it
# at F_32749^2, 2 147 876 882 above it at F_32771^2
SWITCH_FIELDS = [(32749, 2), (32771, 2)]
ODD_PRIMES_16 = [p for p in range(3, 1 << 16, 2) if is_prime(p)]


def brute_irreducible(coeffs, p):
    """Independent oracle: no monic factor of degree 1..deg-1 divides f."""
    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    deg = len(coeffs) - 1
    if deg == 1:
        return True
    # enumerate all monic polynomials g of degree 1..deg//2 and trial-divide
    for dg in range(1, deg // 2 + 1):
        for n in range(p ** dg):
            g = [(n // p ** j) % p for j in range(dg)] + [1]
            # long division remainder
            rem = list(coeffs)
            for i in range(len(rem) - 1, dg - 1, -1):
                c = rem[i]
                if c:
                    for j in range(dg + 1):
                        rem[i - dg + j] = (rem[i - dg + j] - c * g[j]) % p
            if all(c == 0 for c in rem[:dg]):
                return False
    return True


# smallest_irreducible(p, r) for r = 1..6, recorded before _poly_gcd took
# its remainders from _poly_mod
SMALLEST_IRREDUCIBLE = {
    3: [(0, 1), (1, 0, 1), (1, 2, 0, 1), (2, 1, 0, 0, 1), (1, 2, 0, 0, 0, 1),
        (2, 1, 0, 0, 0, 0, 1)],
    5: [(0, 1), (2, 0, 1), (1, 1, 0, 1), (2, 0, 0, 0, 1), (1, 4, 0, 0, 0, 1),
        (2, 1, 0, 0, 0, 0, 1)],
    7: [(0, 1), (1, 0, 1), (2, 0, 0, 1), (1, 1, 0, 0, 1), (3, 1, 0, 0, 0, 1),
        (2, 0, 0, 0, 0, 0, 1)],
    11: [(0, 1), (1, 0, 1), (4, 1, 0, 1), (2, 1, 0, 0, 1), (2, 0, 0, 0, 0, 1),
         (2, 1, 0, 0, 0, 0, 1)],
    13: [(0, 1), (2, 0, 1), (2, 0, 0, 1), (2, 0, 0, 0, 1), (2, 4, 0, 0, 0, 1),
         (2, 0, 0, 0, 0, 0, 1)],
    101: [(0, 1), (2, 0, 1), (1, 1, 0, 1), (2, 0, 0, 0, 1), (2, 0, 0, 0, 0, 1),
          (3, 1, 0, 0, 0, 0, 1)],
}


def low_degree_irreducible(f, p):
    """Independent oracle for monic f of degree <= 4: a unit is not
    irreducible, a linear f is; otherwise f has no root in F_p and, at
    degree 4, is not a product of two monic quadratics."""
    deg = len(f) - 1
    if deg < 2:
        return deg == 1
    if any(sum(c * x ** j for j, c in enumerate(f)) % p == 0 for x in range(p)):
        return False
    if deg == 4:
        quadratics = [(a, b, 1) for a in range(p) for b in range(p)]
        for (a0, a1, _), (b0, b1, _) in itertools.product(quadratics, repeat=2):
            product = [a0 * b0, a0 * b1 + a1 * b0, a0 + a1 * b1 + b0, a1 + b1, 1]
            if [c % p for c in product] == list(f):
                return False
    return True


class TestMakeField:
    def test_prime_field_modulus_is_x(self):
        assert make_field(3, 1).modulus == (0, 1)

    def test_f9_modulus(self):
        ctx = make_field(3, 2)
        assert ctx.modulus == (1, 0, 1)  # x^2 + 1

    def test_f25_modulus(self):
        ctx = make_field(5, 2)
        assert ctx.modulus == (2, 0, 1)  # x^2 + 2
        # the scan order is x^2, x^2+1, x^2+2: the two predecessors are reducible
        assert not brute_irreducible([0, 0, 1], 5)
        assert not brute_irreducible([1, 0, 1], 5)
        assert brute_irreducible([2, 0, 1], 5)

    @pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (13, 2)])
    def test_modulus_agrees_with_brute_oracle(self, p, r):
        f = smallest_irreducible(p, r)
        assert brute_irreducible(list(f), p)
        assert is_irreducible(list(f), p)
        # nothing earlier in the scan order is irreducible
        n_chosen = sum(c * p ** j for j, c in enumerate(f[:-1]))
        for n in range(n_chosen):
            g = [(n // p ** j) % p for j in range(r)] + [1]
            assert not brute_irreducible(g, p)

    @pytest.mark.parametrize("p", sorted(SMALLEST_IRREDUCIBLE))
    def test_smallest_irreducible_pinned(self, p):
        assert [smallest_irreducible(p, r) for r in range(1, 7)] == SMALLEST_IRREDUCIBLE[p]

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 1031])
    def test_smallest_irreducible_matches_scan(self, scan_irreducible, p):
        for r in range(1, 5):
            assert smallest_irreducible(p, r) == scan_irreducible(p, r), r

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_smallest_irreducible_generated(self, scan_irreducible, data):
        r = data.draw(st.integers(1, 6))
        p = data.draw(st.sampled_from([p for p in ODD_PRIMES_16 if p ** r <= 1 << 20]))
        assert smallest_irreducible(p, r) == scan_irreducible(p, r)

    @pytest.mark.parametrize("r", [2, 3])
    def test_root_sieve_in_chunks(self, scan_irreducible, r):
        # p above ROOT_CHUNK: g(F_p) is evaluated a chunk per candidate; with
        # p = 2 mod 3 every x^3 + c has a root, one of them past the first chunk
        p = next(p for p in range(fields.ROOT_CHUNK + 1, 1 << 20, 2)
                 if is_prime(p) and p % 3 == 2)
        assert smallest_irreducible(p, r) == scan_irreducible(p, r)

    def test_root_sieve_leaves_one_candidate(self, monkeypatch):
        # x^3 + c is never irreducible over F_101 (3 does not divide 100) and
        # x^3 + x has the root 0; x^3 + x + 1 is the first rootless candidate
        calls = []

        def counting(f, p):
            calls.append(tuple(f))
            return is_irreducible(f, p)

        monkeypatch.setattr(fields, "is_irreducible", counting)
        assert smallest_irreducible(101, 3) == (1, 1, 0, 1)
        assert calls == [(1, 1, 0, 1)]

    @pytest.mark.parametrize("p", [3, 5])
    def test_is_irreducible_matches_root_oracle(self, p):
        for deg in range(5):
            for n in range(p ** deg):
                f = [(n // p ** j) % p for j in range(deg)] + [1]
                assert is_irreducible(f, p) == low_degree_irreducible(f, p), f

    def test_rejections(self):
        with pytest.raises(ValueError):
            make_field(4, 1)
        with pytest.raises(ValueError):
            make_field(2, 3)
        with pytest.raises(ValueError):
            make_field(5, 0)

    @pytest.mark.parametrize("p,r", [(4, 1), (2, 3), (5, 0), ((1 << 20) + 7, 1)])
    def test_both_constructors_reject_alike(self, p, r):
        with pytest.raises(ValueError) as via_make:
            make_field(p, r)
        with pytest.raises(ValueError) as via_ctx:
            FieldCtx(p, r, (0,) * r + (1,))
        assert str(via_make.value) == str(via_ctx.value)

    def test_determinism(self):
        a, b = make_field(7, 3), make_field(7, 3)
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("p,max_deg", [(3, 5), (5, 4), (7, 3), (11, 2)])
    def test_is_irreducible_matches_sympy(self, p, max_deg):
        galoistools = pytest.importorskip("sympy.polys.galoistools")
        from sympy.polys.domains import ZZ
        for deg in range(1, max_deg + 1):
            for n in range(p ** deg):
                f = [(n // p ** j) % p for j in range(deg)] + [1]
                # sympy lists coefficients leading term first
                assert is_irreducible(f, p) == galoistools.gf_irreducible_p(f[::-1], p, ZZ), f


class TestArithmetic:
    def test_f9_squares(self, field):
        F9 = field(3, 2)
        x = F9.from_poly_coords((0, 1))
        assert (x * x) == F9.from_int(2)
        assert ((F9.one() + x) ** 2) == F9.from_poly_coords((0, 2))

    @pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (3, 3)])
    def test_inverse_axiom_exhaustive(self, field, p, r):
        ctx = field(p, r)
        one = ctx.one()
        for a in ctx.elements():
            if not a.is_zero():
                assert a * a.inv() == one

    def test_zero_inversion_raises(self, field):
        with pytest.raises(ZeroDivisionError):
            field(3, 2).zero().inv()

    def test_pow_matches_repeated_multiplication(self, field):
        ctx = field(5, 2)
        a = ctx.from_poly_coords((2, 3))
        acc = ctx.one()
        for e in range(12):
            assert a ** e == acc
            acc = acc * a

    def test_negative_power_is_inverse_power(self, field):
        ctx = field(7, 2)
        a = ctx.from_poly_coords((3, 1))
        assert a ** -3 == (a.inv()) ** 3

    @pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 6)])
    def test_fermat_a_pow_q_is_a(self, field, p, r):
        ctx = field(p, r)
        for a in ctx.elements():
            assert a ** ctx.q == a

    def test_field_axioms_spot(self, field):
        ctx = field(5, 3)
        a = ctx.from_poly_coords((1, 2, 3))
        b = ctx.from_poly_coords((4, 0, 2))
        c = ctx.from_poly_coords((2, 2, 1))
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        assert -(-a) == a


class TestFrobenius:
    def test_frobenius_of_x_in_f9(self, field):
        F9 = field(3, 2)
        x = F9.from_poly_coords((0, 1))
        assert frobenius(x) == F9.from_poly_coords((0, 2))

    def test_prime_subfield_fixed(self, field):
        ctx = field(7, 2)
        for c in range(7):
            assert frobenius(ctx.from_int(c)) == ctx.from_int(c)

    def test_conjugates_of_one_plus_x(self, field):
        F9 = field(3, 2)
        x = F9.from_poly_coords((0, 1))
        got = {e.poly_coords for e in conjugates(F9.one() + x)}
        assert got == {(1, 1), (1, 2)}

    @pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (3, 3), (3, 4)])
    def test_orbit_size_and_cyclicity(self, field, p, r):
        ctx = field(p, r)
        for a in ctx.elements():
            orbit = conjugates(a)
            assert len(orbit) == element_degree(a)
            assert len(set(e.idx for e in orbit)) == len(orbit)
            assert frobenius(orbit[-1]) == orbit[0]


class TestFrobeniusOracles:
    """The Frobenius-matrix path against scalar a ** p."""

    @pytest.mark.parametrize("p,r", ORACLE_FIELDS)
    def test_every_element(self, field, scalar_frobenius, scalar_degree,
                           scalar_conjugates, p, r):
        ctx = field(p, r)
        degrees = vec_degrees(ctx, vec_decode(ctx, np.arange(ctx.q)))
        for a in ctx.elements():
            orbit = scalar_conjugates(a)
            assert conjugates(a) == orbit  # same elements in the same orbit order
            assert element_degree(a) == scalar_degree(a) == len(orbit) == degrees[a.idx]
            assert frobenius(a) == scalar_frobenius(a)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_hypothesis_fields(self, field, scalar_frobenius, scalar_degree,
                               scalar_conjugates, data):
        p = data.draw(st.sampled_from([3, 5, 7, 11, 13]), label="p")
        r = data.draw(st.integers(1, 6), label="r")
        ctx = field(p, r)
        idxs = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=1, max_size=6))
        d = data.draw(st.sampled_from(divisors(r)), label="d")
        # a^{(q-1)/(p^d-1)} lies in F_{p^d}, so the draws reach the subfields too
        sub = [ctx.pow_idx(i, (ctx.q - 1) // (p ** d - 1)) for i in idxs]
        elems = [ctx.from_index(i) for i in idxs + sub]
        rows = np.asarray([a.poly_coords for a in elems], dtype=np.int64)
        assert vec_degrees(ctx, rows).tolist() == [scalar_degree(a) for a in elems]
        for a in elems:
            assert conjugates(a) == scalar_conjugates(a)
            assert frobenius(a) == scalar_frobenius(a)

    def test_zeroed_frobenius_matrix_raises(self):
        ctx = make_field(3, 4)  # fresh: the corruption must not reach shared fields
        frobenius_matrix(ctx)
        ctx._tables["frobenius"][1] = np.zeros((4, 4), dtype=np.int64)
        with pytest.raises(InvariantViolation):
            vec_degrees(ctx, vec_decode(ctx, np.arange(ctx.q)))
        x = ctx.from_poly_coords((0, 1, 0, 0))
        for check in (element_degree, conjugates, is_generator):
            with pytest.raises(InvariantViolation):
                check(x)
        with pytest.raises(InvariantViolation):
            generator_elements(ctx)


class TestElementDegree:
    def test_zero_has_degree_one(self, field):
        assert element_degree(field(3, 2).zero()) == 1

    def test_x_in_f9(self, field):
        F9 = field(3, 2)
        assert element_degree(F9.from_poly_coords((0, 1))) == 2
        assert is_generator(F9.from_poly_coords((0, 1)))

    def test_embedded_quadratic_in_f81(self, field):
        from digitsquares import field_generator
        F81 = field(3, 4)
        g = field_generator(F81)
        b = g ** 10  # order 8 = |F_9*|, so b generates F_9 inside F_81
        assert element_degree(b) == 2
        assert element_degree(g) == 4

    @pytest.mark.parametrize("p,r", [(3, 2), (3, 4), (5, 2), (3, 6)])
    def test_degree_census(self, field, p, r):
        ctx = field(p, r)
        by_deg = {}
        for a in ctx.elements():
            by_deg.setdefault(element_degree(a), 0)
            by_deg[element_degree(a)] += 1
        assert sum(by_deg.values()) == ctx.q
        for d in divisors(r):
            assert sum(by_deg.get(e, 0) for e in divisors(d)) == p ** d


class TestBases:
    def test_coords_round_trip_default_basis(self, field):
        ctx = field(5, 2)
        for a in ctx.elements():
            assert ctx.from_coords(a.coords) == a

    def test_coords_round_trip_custom_basis(self, field):
        ctx = field(3, 2)
        x = ctx.from_poly_coords((0, 1))
        custom = ctx.with_basis([ctx.one() + x, x])
        for idx in range(custom.q):
            a = custom.from_index(idx)
            assert custom.from_coords(a.coords) == a

    def test_dependent_basis_rejected(self, field):
        ctx = field(3, 2)
        with pytest.raises(ValueError):
            ctx.with_basis([ctx.one(), ctx.from_int(2)])

    @pytest.mark.parametrize("bad", [25, 30, -1])
    def test_basis_index_outside_the_field_rejected(self, field, bad):
        # 30 = 1 + 1*5 + 1*25 once read digit by digit: the poly coords of x
        ctx = field(5, 2)
        with pytest.raises(ValueError, match="outside"):
            ctx.with_basis([1, bad])
        with pytest.raises(ValueError, match="outside"):
            FieldCtx(5, 2, ctx.modulus, (bad, 1))

    def test_basis_element_of_another_field_rejected(self, field):
        ctx, other = field(5, 2), field(5, 3)
        x = ctx.from_poly_coords((0, 1))
        with pytest.raises(ValueError, match="different fields"):
            ctx.with_basis([ctx.one(), other.from_poly_coords((0, 1, 0))])
        with pytest.raises(ValueError, match="different fields"):
            ctx.with_basis([field(7, 2).one(), x])
        assert ctx.with_basis([ctx.one(), x]).poly_basis

    @pytest.mark.parametrize("p,r", [(3, 1), (5, 2), (7, 3)])
    def test_poly_basis_is_recorded_once(self, field, p, r):
        ctx = field(p, r)
        assert ctx.poly_basis
        assert ctx.with_basis([p ** j for j in range(r)]).poly_basis
        assert ctx.normalized_basis().poly_basis
        if r > 1:
            swapped = [p ** j for j in range(r)][::-1]
            assert not ctx.with_basis(swapped).poly_basis
            assert not ctx.with_basis([1 + p] + [p ** j for j in range(1, r)]).poly_basis

    def test_normalized_basis_starts_at_one(self, field):
        ctx = field(5, 2)
        x = ctx.from_poly_coords((0, 1))
        shifted = ctx.with_basis([x, ctx.one() + x])
        norm = shifted.normalized_basis()
        assert norm.basis_indices[0] == 1

    def test_rebased_contexts_share_basis_free_tables(self):
        ctx = make_field(5, 3)
        x = ctx.from_poly_coords((0, 1, 0))
        rebased = ctx.with_basis([x + 2, x * x, ctx.from_int(3)]).normalized_basis()
        assert quad_table(ctx) is quad_table(ctx.normalized_basis())
        assert quad_table(ctx) is quad_table(rebased)
        assert legendre_table(ctx) is legendre_table(rebased)
        assert frobenius_matrix(ctx, 2) is frobenius_matrix(rebased, 2)
        assert rebased._cache is not ctx._cache

    def test_rebased_context_keeps_its_own_generator_and_counts(self):
        ctx = make_field(7, 2)
        x = ctx.from_poly_coords((0, 1))
        digit_sets = [(0, 1), (1, 2, 4), (0, 3, 5, 6)]
        field_generator(ctx)
        dlog_table(ctx)
        before = [square_census(ctx, ds, None) for ds in digit_sets]
        rebased = ctx.with_basis([x + 3, ctx.from_int(2)])
        fresh = FieldCtx(7, 2, ctx.modulus, rebased.basis_indices)
        assert field_generator(rebased) == field_generator(fresh) != field_generator(ctx)
        assert np.array_equal(dlog_table(rebased), dlog_table(fresh))
        after = [square_census(rebased, ds, None) for ds in digit_sets]
        assert after == [square_census(fresh, ds, None) for ds in digit_sets]
        assert after != before  # the counts depend on the basis


class TestVectorKernels:
    @pytest.mark.parametrize("p,r", [(3, 2), (5, 3), (13, 2)])
    def test_vec_mul_matches_scalar(self, field, p, r):
        ctx = field(p, r)
        rng = np.random.default_rng(5)
        A = rng.integers(0, p, size=(64, r)).astype(np.int64)
        B = rng.integers(0, p, size=(64, r)).astype(np.int64)
        got = vec_mul(ctx, A, B)
        for i in range(A.shape[0]):
            a = ctx.from_poly_coords(tuple(A[i]))
            b = ctx.from_poly_coords(tuple(B[i]))
            assert tuple(got[i]) == (a * b).poly_coords

    def test_vec_pow_matches_scalar(self, field):
        ctx = field(7, 2)
        rng = np.random.default_rng(6)
        A = rng.integers(0, 7, size=(32, 2)).astype(np.int64)
        got = vec_pow(ctx, A, 25)
        for i in range(A.shape[0]):
            a = ctx.from_poly_coords(tuple(A[i]))
            assert tuple(got[i]) == (a ** 25).poly_coords

    @pytest.mark.parametrize("p,r", [(7, 1), (3, 4), (5, 3), (13, 5)])
    def test_frobenius_matrix_matches_scalar(self, field, p, r):
        ctx = field(p, r)
        rng = np.random.default_rng(7)
        A = rng.integers(0, p, size=(16, r)).astype(np.int64)
        for k in range(1, r + 2):
            got = (A @ frobenius_matrix(ctx, k)) % p
            for i in range(A.shape[0]):
                a = ctx.from_poly_coords(tuple(A[i]))
                assert tuple(got[i]) == (a ** (p ** k)).poly_coords

    @pytest.mark.parametrize("p,r", [(7, 1), (3, 2), (3, 5), (5, 6), (13, 7)])
    def test_vec_norm_is_the_conjugate_product(self, field, p, r):
        ctx = field(p, r)
        rng = np.random.default_rng(8)
        A = rng.integers(0, p, size=(16, r)).astype(np.int64)
        got = vec_norm(ctx, A)
        for i in range(A.shape[0]):
            a = ctx.from_poly_coords(tuple(A[i]))
            prod = ctx.one()
            for b in [a ** (p ** j) for j in range(r)]:
                prod = prod * b
            assert prod.poly_coords == (int(got[i]),) + (0,) * (r - 1)

    def test_kernel_dtype_switches_at_2_31(self):
        assert [_kernel_dtype(p, r) for p, r in SWITCH_FIELDS] == [np.int32, np.int64]
        assert _kernel_dtype(101, 20) is np.int32
        assert _kernel_dtype((1 << 20) - 3, (1 << 23) - 1) is np.int64
        with pytest.raises(ValueError):
            _kernel_dtype(3, 1 << 60)

    def test_vec_from_coords_matches_scalar(self, field):
        ctx = field(7, 3)
        x = ctx.from_poly_coords((0, 1, 0))
        basis = [x + 3, x * x + x, ctx.from_int(2)]
        bctx = ctx.with_basis(basis)
        coords = np.random.default_rng(4).integers(0, 7, size=(50, 3))
        want = basis_combinations(ctx, basis, coords)
        assert (vec_from_coords(bctx, coords) == np.asarray(want)).all()
        out = np.empty_like(coords)
        assert vec_from_coords(bctx, coords, out=out) is out
        assert (out == np.asarray(want)).all()

    def test_fold_takes_reduced_products(self):
        # x^3 + x^2 + 2x + 10 over F_26731: x^3 and x^4 both reduce with x^2
        # coefficient p - 1, and 3 p^2 < 2^31, so the kernel runs in int32.
        # For a = (p-1, p-1, u), b = (p-1, p-1, v) with u + v = p + 1 and
        # u v = -1 mod p, c_2 = (p-1)(p+1) + (p-1)^2 and c_3 = c_4 = p - 1
        # mod p: folding c_3, c_4 into c_2 before reducing it passes 2^31.
        p = 26731
        ctx = FieldCtx(p, 3, (10, 2, 1, 1))
        assert _kernel_dtype(p, 3) is np.int32
        s = next(s for s in range(p) if s * s % p == 5)
        u, v = (1 + s) * (p + 1) // 2 % p, (1 - s) * (p + 1) // 2 % p
        A, B = np.array([[p - 1, p - 1, u]]), np.array([[p - 1, p - 1, v]])
        c2, c3, c4 = (p - 1) * (u + v) + (p - 1) ** 2, (p - 1) * (u + v), u * v
        red = ctx._reduction
        assert c2 + red[0, 2] * (c3 % p) + red[1, 2] * (c4 % p) >= 1 << 31
        got = ctx.poly_coords_to_index(vec_mul(ctx, A, B)[0])
        assert got == ctx.mul_idx(ctx.poly_coords_to_index(A[0]), ctx.poly_coords_to_index(B[0]))

    @pytest.mark.parametrize("p,r", [(7, 3), (101, 20)])
    def test_vec_from_coords_polynomial_basis(self, field, p, r):
        ctx = field(p, r)
        assert ctx.poly_basis
        basis = [ctx.from_index(b) for b in ctx.basis_indices]
        coords = np.random.default_rng(9).integers(0, p, size=(40, r))
        coords[0], coords[1] = 0, p - 1
        want = np.asarray(basis_combinations(ctx, basis, coords))
        before = coords.copy()
        got = vec_from_coords(ctx, coords)
        assert got.dtype == np.int64 and (got == want).all()
        got += 1  # a copy, never a view of the coordinates
        assert (coords == before).all()
        out = np.empty_like(coords)
        assert vec_from_coords(ctx, coords, out=out) is out
        assert (out == want).all()
        out[:] = 0
        assert (coords == before).all()

    def test_vec_encode_exact_above_int64(self, field):
        ctx = field(101, 20)  # q > 2^62: indices are Python ints
        poly = np.random.default_rng(8).integers(0, 101, size=(20, 20))
        got = [int(i) for i in vec_encode(ctx, poly)]
        assert got == [ctx.poly_coords_to_index(row) for row in poly]
        assert max(got) >= 1 << 62

    def test_vec_encode_round_trip(self, field):
        ctx = field(5, 3)
        idx = np.arange(ctx.q, dtype=np.int64)
        assert (vec_encode(ctx, vec_decode(ctx, idx)) == idx).all()


def basis_combinations(ctx, basis, coords):
    """Poly coords of sum_i c_i b_i for each coordinate row, by scalar
    field arithmetic."""
    want = []
    for row in coords:
        y = ctx.zero()
        for c, b in zip(row, basis):
            y = y + int(c) * b
        want.append(y.poly_coords)
    return want


def kernel_rows(ctx, n, seed):
    """n seeded random reduced poly-coordinate rows, then the all-(p-1) row,
    whose square drives the convolution sums to their largest value."""
    rows = np.random.default_rng(seed).integers(0, ctx.p, size=(n, ctx.r))
    return np.vstack([rows, np.full((1, ctx.r), ctx.p - 1)]).astype(np.int64)


def conjugate_product(ctx, idx):
    """N(a) by scalar arithmetic alone: a * a^p * ... * a^{p^{r-1}}."""
    prod, conj = 1, idx
    for _ in range(ctx.r):
        prod = ctx.mul_idx(prod, conj)
        conj = ctx.pow_idx(conj, ctx.p)
    return prod


def check_kernels(ctx, euler, n, seed):
    """vec_mul against mul_idx, vec_norm against the conjugate product and
    its Legendre symbol against the Euler criterion, row by row."""
    A, B = kernel_rows(ctx, n, seed), kernel_rows(ctx, n, seed + 1)
    prod = vec_mul(ctx, A, B)
    norm = vec_norm(ctx, A)
    assert prod.dtype == norm.dtype == np.int64
    assert prod.shape == A.shape and norm.shape == (A.shape[0],)
    legendre = legendre_table(ctx)
    for a, b, ab, na in zip(A, B, prod, norm):
        ia, ib = ctx.poly_coords_to_index(a), ctx.poly_coords_to_index(b)
        assert ctx.poly_coords_to_index(ab) == ctx.mul_idx(ia, ib)
        assert conjugate_product(ctx, ia) == na
        assert legendre[na] == euler(ctx, ia)


class TestKernelOracles:
    """The coefficient-major kernels against scalar field arithmetic."""

    @pytest.mark.parametrize("p,r", SWITCH_FIELDS)
    def test_both_sides_of_the_int32_switch(self, field, euler, p, r):
        check_kernels(field(p, r), euler, 64, seed=20)

    def test_f101_20(self, field, euler):
        check_kernels(field(101, 20), euler, 6, seed=21)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_generated_fields(self, euler, data):
        # a random irreducible modulus: dense reduction rows, and no slow
        # smallest-modulus scan at large p
        r = data.draw(st.integers(1, 6))
        p = data.draw(st.sampled_from([p for p in ODD_PRIMES_16 if p ** r < 1 << 64]))
        seed = data.draw(st.integers(0, 2 ** 16))
        rng = np.random.default_rng(seed)
        modulus = [int(c) for c in rng.integers(0, p, size=r)] + [1]
        while not is_irreducible(modulus, p):
            modulus[:r] = [int(c) for c in rng.integers(0, p, size=r)]
        check_kernels(FieldCtx(p, r, tuple(modulus)), euler, 8, seed)


class TestKernelSafety:
    @pytest.mark.parametrize("p,r", [(101, 20), (32771, 2)])
    def test_inputs_not_mutated(self, field, p, r):
        ctx = field(p, r)
        A, B = kernel_rows(ctx, 100, seed=22), kernel_rows(ctx, 100, seed=23)
        A0, B0 = A.copy(), B.copy()
        vec_mul(ctx, A, B)
        vec_norm(ctx, A)
        vec_mul(ctx, A, np.broadcast_to(B[0], A.shape))  # read-only, as in dlog_table
        assert np.array_equal(A, A0) and np.array_equal(B, B0)

    @pytest.mark.parametrize("p,r", [(101, 20), (32771, 2)])
    def test_norm_peak_memory(self, field, p, r):
        # the cast rows, two (r, n) buffers, the (2r-1, n) product and one
        # slab temporary: 6r-1 rows of n, under 6 copies of the block in the
        # kernel type (the int64 column loop peaked near 6 int64 copies)
        ctx = field(p, r)
        A = np.random.default_rng(24).integers(0, p, size=(1 << 15, r))
        limit = 6.5 * A.size * np.dtype(_kernel_dtype(p, r)).itemsize
        vec_norm(ctx, A[:8])  # Frobenius matrices cached outside the window
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            vec_norm(ctx, A)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < limit <= 6.5 * A.nbytes


def mod_p_edges(dtype, p):
    """0, p-1, multiples of p and the ends of _mod_p's domain [min + p, max]
    of the type: below min + p, x // p * p may wrap."""
    info = np.iinfo(dtype)
    lo, hi = info.min + p, info.max
    return [0, 1, p - 1, p, p + 1, 2 * p, -1, -p, -p - 1, -2 * p,
            hi // p * p, hi // p * p - 1, hi, -(-lo // p) * p, lo, lo + 1]


class TestModP:
    """_mod_p against np.remainder, floor semantics included."""

    def check(self, values, dtype, p):
        x = np.asarray(values, dtype=dtype)
        want = np.remainder(x, p)
        got = _mod_p(x, p, np.empty_like(x))
        assert got is x and got.dtype == dtype
        assert np.array_equal(got, want)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_remainder(self, data):
        dtype = data.draw(st.sampled_from([np.int16, np.int32, np.int64]))
        info = np.iinfo(dtype)
        p = data.draw(st.sampled_from([q for q in ODD_PRIMES_16 if q < info.max // 2]))
        values = data.draw(st.lists(st.integers(info.min + p, info.max), max_size=64))
        self.check(values + mod_p_edges(dtype, p), dtype, p)

    @pytest.mark.parametrize("p,r", SWITCH_FIELDS + [(101, 20)])
    def test_kernel_maxima(self, p, r):
        # the largest value _kernel_dtype proves, r p^2 - 1, and the sums
        # its docstring bounds, in the kernel type on both sides of 2^31
        dtype = _kernel_dtype(p, r)
        top = r * p * p - 1
        assert top <= np.iinfo(dtype).max
        values = [top, top - p, r * (p - 1) ** 2, (p - 1) + (r - 1) * (p - 1) ** 2]
        self.check(values + mod_p_edges(dtype, p), dtype, p)

    @pytest.mark.parametrize("p,r", [(101, 3), (37, 4), (37, 5), (3, 13), (1021, 2),
                                     (32749, 2)])
    def test_monic_square_bound(self, p, r):
        # monic_table's squares reach (2r-1)(p-1)^2 in int16, int32, int64
        dtype = _square_dtype(p, r)
        top = (2 * r - 1) * (p - 1) ** 2
        self.check([top, top - 1, top - p] + mod_p_edges(dtype, p), dtype, p)

    def test_monic_square_types(self):
        types = {_square_dtype(p, r) for p, r in [(37, 4), (101, 3), (32749, 2)]}
        assert types == {np.dtype(np.int16), np.dtype(np.int32), np.dtype(np.int64)}


def test_poly_str():
    assert poly_str((1, 0, 1)) == "1 + x^2"
    assert poly_str((0, 1)) == "x"
    assert poly_str((0,)) == "0"


def test_is_prime_small():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
