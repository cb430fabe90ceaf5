"""Bound evaluators against independent high-precision evaluation.

The oracle here is mpmath.mp at 60 digits, evaluated directly from the
formulas; the implementation must sit within a hair above (never below) the
oracle value, because its contract is a certified upper bound.  The exact
algebraic evaluators (thmA_rhs, thmB_rhs, thm1_rhs, thm1_threshold,
thm2_rhs, lemma1_rhs, lemmaD_rhs, lemmaE_rhs) must moreover equal, float for
float, the 40-digit interval evaluation they replaced, and the interval
evaluators in their private context must equal their bodies in mpmath's
global interval context (conftest oracles).
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath
from mpmath import iv, mp, mpf

from digitsquares import (CycloSum, HypothesisNotMet, corC_rhs,
                          thm1_hypothesis, thm1_rhs, thm1_threshold, thm2_Cr,
                          thm2_best, thm2_rhs, thm2_threshold,
                          thmA_heuristic_nontrivial, thmA_rhs, thmB_C, thmB_rhs)
from digitsquares import bounds, oracles
from digitsquares.bounds import _float_above, _float_past, _iroot, corC_hypothesis
from digitsquares.errors import InvariantViolation
from digitsquares.oracles import lemma1_rhs, lemmaD_rhs, lemmaE_rhs

mp.dps = 60

GRID_PRIMES = (3, 5, 7, 11, 13)
PRIMES_BELOW_1100 = [n for n in range(2, 1100) if all(n % k for k in range(2, math.isqrt(n) + 1))]


def mp_thmA(p, r, d):
    return (d + p * mp.sqrt(mpf(p - d))) ** r / (2 * mp.sqrt(mpf(p) ** r))


def mp_thmB_C(p, t):
    if t == p - 2:
        return 2 / mpf(p) + (2 / (mp.pi * (p - 1))) * (1 - mp.log(2 * mp.sin(mp.pi / (2 * p))))
    return mp.log(p) / t + (mpf(4) / 3 - mp.log(3) / 2) / t + mpf(1) / p


def mp_thmB(p, r, t):
    return (mp_thmB_C(p, t) * t * mp.sqrt(mpf(p))) ** r / 2


def mp_thm1(p, r, d):
    return (mp.sqrt(mpf(d)) * (mpf(p) ** mpf("0.25") * mp.sqrt(mpf(2 * r - 1)) * mpf(d) ** (r - 1)
            + mpf(p) ** mpf("0.75") * mpf(r) ** mpf("1.5") / 4 + mp.sqrt(mpf(p)))) / 2 + mpf("0.5")


def mp_thm2(p, r, d, k, nu):
    q = mpf(p) ** r
    lead = mpf(d) ** (mpf((r - k) * (2 * nu - 1)) / (2 * nu))
    inner = mpf(2 * nu) ** nu * mpf(d) ** (k * nu) * q + mpf(d) ** (2 * k * nu) * 4 * nu * mp.sqrt(q)
    return lead * inner ** (mpf(1) / (2 * nu)) / 2 + mpf("0.5")


def assert_certified_upper(value: float, oracle, rel=1e-13):
    assert mpf(value) >= oracle, "certified upper bound fell below the exact value"
    assert mpf(value) <= oracle * (1 + mpf(rel)), "upper bound is needlessly loose"


class TestThmA:
    def test_spot_values(self):
        assert thmA_rhs(5, 1, 4) == pytest.approx(2.012461179749811, rel=1e-14)
        assert thmA_rhs(29, 2, 20) == pytest.approx(11449 / 58, rel=1e-14)

    def test_full_digit_branch(self):
        # d = p - 1 collapses sqrt(p - d) to 1
        for p, r in [(5, 1), (7, 2), (13, 3)]:
            assert_certified_upper(thmA_rhs(p, r, p - 1), mp_thmA(p, r, p - 1))

    @pytest.mark.parametrize("p,r,d", [(5, 1, 2), (5, 1, 4), (11, 2, 7), (29, 2, 20),
                                       (13, 3, 12), (101, 2, 60)])
    def test_certified_upper_bound(self, p, r, d):
        assert_certified_upper(thmA_rhs(p, r, d), mp_thmA(p, r, d))

    def test_range_check(self):
        with pytest.raises(ValueError):
            thmA_rhs(5, 1, 1)
        with pytest.raises(ValueError):
            thmA_rhs(5, 1, 5)

    def test_heuristic_nontriviality_cut(self):
        # (sqrt(5)-1)/2 * 100 = 61.80...
        assert not thmA_heuristic_nontrivial(100, 61)
        assert thmA_heuristic_nontrivial(100, 62)


class TestThmB:
    def test_constant_spot_values(self):
        assert thmB_C(11, 4) == pytest.approx(0.8863897063585032, rel=1e-14)
        assert thmB_C(7, 5) == pytest.approx(0.4777174208095755, rel=1e-14)

    def test_rhs_spot_value(self):
        assert thmB_rhs(11, 1, 4) == pytest.approx(5.87964414804891, rel=1e-14)

    @pytest.mark.parametrize("p,t", [(11, 4), (7, 5), (13, 2), (13, 11), (101, 37)])
    def test_certified_upper_bound(self, p, t):
        for r in (1, 2, 3):
            assert_certified_upper(thmB_rhs(p, r, t), mp_thmB(p, r, t))

    def test_degree_scaling(self):
        # r -> r + 1 multiplies the bound by C * t * sqrt(p)
        ratio = thmB_rhs(11, 3, 4) / thmB_rhs(11, 2, 4)
        assert ratio == pytest.approx(thmB_C(11, 4) * 4 * math.sqrt(11), rel=1e-12)

    def test_constant_at_a_large_prime(self):
        # sin(pi / 2p) is about 2^-107 here, below the Ziv loop's first 2^-96
        # bracket unless the precision grows with p
        p = 2 ** 107 - 1
        with mp.workdps(80):
            for t in (2, p - 2):
                assert_certified_upper(thmB_C(p, t), mp_thmB_C(p, t))

    def test_t_equal_p_minus_1_refused(self):
        with pytest.raises(HypothesisNotMet):
            thmB_rhs(7, 1, 6)
        with pytest.raises(HypothesisNotMet):
            thmB_C(3, 2)

    def test_t_out_of_range(self):
        with pytest.raises(ValueError):
            thmB_rhs(7, 1, 1)
        with pytest.raises(ValueError):
            thmB_rhs(7, 1, 7)


class TestThm1:
    def test_spot_value(self):
        assert thm1_rhs(29, 2, 10) == pytest.approx(86.53866298022854, rel=1e-14)

    @pytest.mark.parametrize("p,r,d", [(29, 2, 10), (11, 2, 3), (101, 2, 61),
                                       (29, 3, 5), (13, 2, 12)])
    def test_certified_upper_bound(self, p, r, d):
        assert_certified_upper(thm1_rhs(p, r, d), mp_thm1(p, r, d))

    def test_hypothesis_flag(self):
        assert thm1_hypothesis(11, 2)      # 3^2 = 9 <= 11
        assert not thm1_hypothesis(7, 2)   # 9 > 7
        assert thm1_hypothesis(29, 3)      # 25 <= 29
        assert not thm1_hypothesis(23, 3)

    def test_threshold_r2_is_six_root_p(self):
        for p in (11, 101, 9973):
            assert thm1_threshold(p, 2) == pytest.approx(6 * math.sqrt(p), rel=1e-14)

    def test_threshold_spot_value(self):
        assert thm1_threshold(101, 2) == pytest.approx(60.29925372672534, rel=1e-13)

    def test_threshold_needs_r_at_least_2(self):
        with pytest.raises(ValueError):
            thm1_threshold(101, 1)


class TestThm2:
    def test_spot_value(self):
        assert thm2_rhs(5, 2, 3, 1, 1) == pytest.approx(16.232132722552273, rel=1e-14)

    @pytest.mark.parametrize("p,r,d,k,nu", [
        (5, 2, 3, 1, 1), (13, 3, 7, 2, 4), (101, 2, 50, 1, 3), (7, 4, 3, 2, 2)])
    def test_certified_upper_bound(self, p, r, d, k, nu):
        assert_certified_upper(thm2_rhs(p, r, d, k, nu), mp_thm2(p, r, d, k, nu))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            thm2_rhs(5, 2, 3, 0, 1)
        with pytest.raises(ValueError):
            thm2_rhs(5, 2, 3, 2, 1)
        with pytest.raises(ValueError):
            thm2_rhs(5, 2, 3, 1, 0)

    def test_lead_exponent_grows_with_nu(self):
        # the d-exponent (r - k)(1 - 1/(2 nu)) climbs monotonically to r - k
        r, k = 5, 2
        exps = [Fraction(r - k) * (1 - Fraction(1, 2 * nu)) for nu in range(1, 12)]
        assert exps == sorted(exps) and all(e < r - k for e in exps)

    def test_best_matches_brute_grid(self):
        p, r, d = 13, 3, 7
        k, nu, rhs = thm2_best(p, r, d, nu_cap=8)
        brute = min(((kk, nn, thm2_rhs(p, r, d, kk, nn))
                     for kk in (1, 2) for nn in range(1, 9)), key=lambda t: t[2])
        assert (k, nu) == brute[:2] and rhs == brute[2]

    @pytest.mark.parametrize("nu_cap", [0, -3])
    def test_best_rejects_a_cap_below_one(self, nu_cap):
        with pytest.raises(ValueError, match="nu cap"):
            thm2_best(5, 2, 3, nu_cap=nu_cap)

    def test_Cr_value(self):
        assert abs(thm2_Cr(20) - 2.716) <= 1e-3
        assert thm2_Cr(20) == pytest.approx(2.7159626417159024, rel=1e-13)

    def test_threshold(self):
        assert thm2_threshold(101, 20) == pytest.approx(46.680678167746085, rel=1e-13)
        with pytest.raises(HypothesisNotMet):
            thm2_threshold(101, 19)


class TestExactMomentBounds:
    """thm2_rhs and lemma1_rhs by integer roots, against their interval oracles."""

    LARGE_NU = [(101, 20, 50, 10, 93), (101, 21, 77, 20, 50), (13, 7, 12, 3, 20)]

    def test_thm2_matches_interval_oracle_on_cli_domain(self, interval_thm2_rhs):
        for p in (3, 5, 7, 11, 13):
            for r in (2, 3):
                for d in range(1, p + 1):
                    for k in range(1, r):
                        for nu in range(1, 5):
                            args = (p, r, d, k, nu)
                            assert thm2_rhs.__wrapped__(*args) == interval_thm2_rhs(*args), args

    def test_lemma1_matches_interval_oracle_on_cli_domain(self, interval_lemma1_rhs):
        # every (q, nu, |U|, |V|) that `verify --suite lemma1 --r 2` can ask for
        n = 0
        for p in (3, 5, 7, 11, 13):
            q = p * p
            sizes = range(1, min(q, 25) + 1)
            for nu in (1, 2, 3):
                for su in sizes:
                    for sv in sizes:
                        args = (q, nu, su, sv)
                        assert lemma1_rhs.__wrapped__(*args) == interval_lemma1_rhs(*args), args
                        n += 1
        assert n == 7743

    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from([2, 3, 5, 7, 11, 13, 29, 101, 1009]), half_r=st.integers(1, 2),
           d=st.integers(0, 60), k=st.integers(1, 4), nu=st.integers(1, 8))
    def test_thm2_matches_interval_oracle_irrational_sqrt_q(self, interval_thm2_rhs,
                                                            p, half_r, d, k, nu):
        r = 2 * half_r + 1  # odd r: sqrt(q) is irrational
        args = (p, r, d, min(k, r - 1), nu)
        assert thm2_rhs.__wrapped__(*args) == interval_thm2_rhs(*args)

    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from([2, 3, 5, 7, 11, 13, 29, 101, 1009]), half_r=st.integers(0, 2),
           nu=st.integers(1, 8), su=st.integers(0, 200), sv=st.integers(0, 200))
    def test_lemma1_matches_interval_oracle_irrational_sqrt_q(self, interval_lemma1_rhs,
                                                              p, half_r, nu, su, sv):
        args = (p ** (2 * half_r + 1), nu, su, sv)
        assert lemma1_rhs.__wrapped__(*args) == interval_lemma1_rhs(*args)

    @pytest.mark.parametrize("args", LARGE_NU)
    def test_thm2_large_nu_matches_interval_oracle(self, interval_thm2_rhs, args):
        assert thm2_rhs.__wrapped__(*args) == interval_thm2_rhs(*args)

    def test_exact_integer_value_lies_strictly_below(self):
        # 1^{1/2} (2 * 3 * 9 + 4 * 9 * 3)^{1/2} = 18 exactly; the bound is the next float
        assert lemma1_rhs(9, 1, 2, 3) == 18.000000000000004 == math.nextafter(18.0, math.inf)

    def test_no_interval_arithmetic(self, monkeypatch, interval_thm2_rhs, interval_lemma1_rhs,
                                    interval_rhs):
        calls = ([(thm2_rhs, interval_thm2_rhs, a)
                  for a in self.LARGE_NU[2:] + [(5, 2, 3, 1, 1)]]
                 + [(lemma1_rhs, interval_lemma1_rhs, a) for a in [(9, 1, 2, 3), (10007, 2, 13, 17)]]
                 + [(fn, interval_rhs[fn.__name__], a) for fn, a in [
                     (thmA_rhs, (101, 3, 60)), (thmA_rhs, (29, 2, 20)), (thm1_rhs, (29, 3, 5)),
                     (lemmaD_rhs, (101, 3)), (lemmaE_rhs, (101 ** 3, 4, 1)),
                     (lemmaE_rhs, (101 ** 2, 4, 1))]])
        want = [oracle(*a) for _, oracle, a in calls]

        class NoIntervals:
            def __getattr__(self, name):
                raise AssertionError(f"interval arithmetic used: iv.{name}")

        # no interval context is held at module level, nor built on a call
        assert not hasattr(bounds, "iv") and not hasattr(oracles, "iv")
        assert not hasattr(bounds, "_iv")
        monkeypatch.setattr(mpmath, "iv", NoIntervals())
        got = [fn.__wrapped__(*a) for fn, _, a in calls]
        assert got == want

    def test_zero_sizes_are_exact(self):
        assert thm2_rhs(5, 2, 0, 1, 1) == 0.5
        assert thm2_rhs(7, 3, 0, 2, 4) == 0.5
        assert lemma1_rhs(9, 1, 0, 3) == 0.0
        assert lemma1_rhs(9, 2, 3, 0) == 0.0

    def test_negative_sizes_raise(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            thm2_rhs(5, 3, -2, 1, 1)
        with pytest.raises(ValueError, match="must be >= 0"):
            lemma1_rhs(9, 1, -1, 3)
        with pytest.raises(ValueError, match="must be >= 0"):
            lemma1_rhs(9, 2, 3, -1)
        with pytest.raises(ValueError, match="needs A, B, q >= 0"):
            _float_above(-1, 0, 4, 2)

    def test_nu_messages(self):
        with pytest.raises(ValueError, match=r"^nu = 0 must be >= 1$"):
            thm2_rhs(5, 2, 3, 1, 0)
        with pytest.raises(ValueError, match=r"^nu must be >= 1$"):
            lemma1_rhs(9, 0, 2, 3)

    def test_non_integer_arguments_raise_type_error(self):
        # exact integer arithmetic: a float size is refused, not rounded
        with pytest.raises(TypeError):
            thm2_rhs(5, 2, 3.0, 1, 1)
        with pytest.raises(TypeError):
            lemma1_rhs(9, 1, 2.5, 3)

    def test_float_above_edges(self):
        assert _float_above(0, 0, 7, 3, scale=2, shift=1) == 0.5
        assert _float_above(4, 0, 1, 2) == math.nextafter(2.0, math.inf)
        assert _float_above(0, 1, 4, 1) == math.nextafter(2.0, math.inf)  # sqrt(4) folded
        for f in (_float_above(2, 0, 1, 2), _float_above(0, 1, 2, 1)):  # sqrt(2), both ways
            assert Fraction(math.nextafter(f, -math.inf)) ** 2 < 2 < Fraction(f) ** 2
        assert _float_above(10 ** 400, 0, 1, 1) == math.inf
        assert _float_above(2 ** 1000, 0, 1, 1) == math.nextafter(2.0 ** 1000, math.inf)

    def test_ulp_walk_is_bounded(self, monkeypatch):
        monkeypatch.setattr(bounds, "ROOT_BITS", 8)  # a guess many ulps off
        with pytest.raises(InvariantViolation, match="within 8 ulps"):
            _float_above(3, 5, 7, 4, scale=2, shift=1)

    @settings(max_examples=200, deadline=None)
    @given(y=st.integers(1, 10 ** 200), n=st.integers(1, 40))
    def test_iroot_is_the_floor_root(self, y, n):
        x = _iroot(y, n)
        assert x ** n <= y < (x + 1) ** n


class TestExactAlgebraicBounds:
    """thmA_rhs, thm1_rhs, lemmaD_rhs and lemmaE_rhs by integer roots, against
    their interval oracles."""

    def test_match_interval_oracle_on_acceptance_grid(self, interval_rhs):
        # every argument the acceptance grid and the benchmark census fields ask for
        fields = [(p, r) for p in GRID_PRIMES for r in (1, 2, 3)] + [(101, 2), (101, 3), (37, 4)]
        calls = []
        for p, r in fields:
            calls += [(thmA_rhs, (p, r, d)) for d in range(2, p)]
            calls += [(thm1_rhs, (p, r, d)) for d in range(1, p + 1)]
            calls += [(lemmaD_rhs, (p, r))]
            calls += [(lemmaE_rhs, (p ** r, t, t0)) for t in range(1, 5) for t0 in range(t)]
        for fn, args in calls:
            assert fn.__wrapped__(*args) == interval_rhs[fn.__name__](*args), (fn.__name__, args)
        assert len(calls) == 874

    @settings(max_examples=300, deadline=None)
    @given(p=st.sampled_from(PRIMES_BELOW_1100), r=st.integers(1, 24), data=st.data())
    def test_match_interval_oracle_generated(self, interval_rhs, p, r, data):
        d = data.draw(st.integers(1, p), label="d")
        t = data.draw(st.integers(1, 8), label="t")
        t0 = data.draw(st.integers(0, t - 1), label="t0")
        calls = [(thm1_rhs, (p, r, d)), (lemmaD_rhs, (p, r)), (lemmaE_rhs, (p ** r, t, t0))]
        if 2 <= d <= p - 1:
            calls.append((thmA_rhs, (p, r, d)))
        for fn, args in calls:
            assert fn.__wrapped__(*args) == interval_rhs[fn.__name__](*args), (fn.__name__, args)

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from([p for p in PRIMES_BELOW_1100 if p >= 5]),
           r=st.integers(2, 16), data=st.data())
    def test_thmB_and_thm1_threshold_match_global_interval_oracle(
            self, global_iv_evaluators, p, r, data):
        assert (thm1_threshold.__wrapped__(p, r)
                == global_iv_evaluators["thm1_threshold"](p, r)), (p, r)
        t = data.draw(st.integers(2, p - 2), label="t")
        rb = data.draw(st.integers(1, 8), label="r_B")
        assert (thmB_rhs.__wrapped__(p, rb, t)
                == global_iv_evaluators["thmB_rhs"](p, rb, t)), (p, rb, t)

    def test_lemmaE_at_square_q_is_the_integer(self):
        # (t - t0 - 1) sqrt(q) + t0 + 1 = 2 * 5 + 1 + 1 at q = 25: no ulp above
        assert lemmaE_rhs(25, 4, 1) == 12.0
        assert lemmaE_rhs(13 ** 4, 1, 0) == 1.0
        assert lemmaE_rhs(13 ** 3, 1, 0) == 1.0  # t = t0 + 1: the shift alone
        f = lemmaE_rhs(13 ** 3, 2, 0)  # sqrt(13^3) + 1, irrational: the float just above
        assert (Fraction(math.nextafter(f, -math.inf)) - 1) ** 2 < 13 ** 3 < (Fraction(f) - 1) ** 2

    @pytest.mark.parametrize("fn,args", [
        (thmA_rhs, (5, 0, 3)), (thmA_rhs, (5, -1, 3)), (thm1_rhs, (29, 0, 5)),
        (lemmaD_rhs, (5, 0)), (lemmaD_rhs, (5, -2)), (lemmaE_rhs, (25, 2, 2)),
        (lemmaE_rhs, (25, 1, 3))])
    def test_outside_the_domain_raises(self, fn, args):
        with pytest.raises(ValueError, match="must be"):
            fn.__wrapped__(*args)

    def test_float_past(self):
        # [1/3, 1/3]: no float inside, so the float above 1/3
        assert _float_past(1, 1, 3) == math.nextafter(1 / 3, math.inf)
        assert _float_past(1, 2, 3) is None            # [1/3, 2/3] holds floats
        assert _float_past(2, 2, 2) is None            # [1, 1] holds the float 1
        assert _float_past(6, 6, 5) == math.nextafter(1.2, math.inf)  # 6/5 is no float
        assert _float_past(10 ** 400, 10 ** 400, 1) == math.inf

    def test_thm1_bracket_refinement_is_bounded(self, monkeypatch):
        monkeypatch.setattr(bounds, "THM1_BITS", 1)
        monkeypatch.setattr(bounds, "THM1_DOUBLINGS", 2)
        with pytest.raises(InvariantViolation, match="bracket"):
            thm1_rhs.__wrapped__(29, 2, 10)
        monkeypatch.setattr(bounds, "THM1_DOUBLINGS", 8)  # K = 1, 2, ..., 128
        assert thm1_rhs.__wrapped__(29, 2, 10) == thm1_rhs(29, 2, 10)


class TestCorollaryC:
    def test_scaling_in_constant(self):
        a = corC_rhs(101, 2, 40, 0.25, 1.0)
        b = corC_rhs(101, 2, 40, 0.25, 2.5)
        assert b == pytest.approx(2.5 * a, rel=1e-12)

    def test_p_exponent_scaling(self):
        # the bound scales as p^{-eps^2/2} for fixed |W| r eps
        p = 10 ** 6 + 3
        val = corC_rhs(p, 2, p, 0.25, 1.0)
        factor = val / (2 ** 4 / 0.25 * float(p) ** 2)
        assert factor == pytest.approx(float(mpf(p) ** (-mpf(1) / 32)), rel=1e-10)

    def test_eps_range(self):
        with pytest.raises(ValueError):
            corC_rhs(101, 2, 40, 0.3, 1.0)
        with pytest.raises(ValueError):
            corC_rhs(101, 2, 40, 0.0, 1.0)

    def test_hypothesis_on_t(self):
        with pytest.raises(HypothesisNotMet):
            corC_rhs(101, 2, 3, 0.25, 1.0)  # 3 < 101^{1/2}

    def test_undecided_hypothesis_is_not_met(self):
        # 16^{1/4 + 0} = 2 and 81^{1/4 + 1/4} = 9 exactly: every bracket of
        # the comparison holds 0, so it is undecided at the last precision
        # (mpmath's interval >= gave None); the hypothesis must read False
        assert corC_hypothesis.__wrapped__(16, 2, 0.0) is False
        assert corC_hypothesis.__wrapped__(81, 9, 0.25) is False
        assert corC_hypothesis.__wrapped__(16, 3, 0.0) is True
        assert corC_hypothesis.__wrapped__(16, 1, 0.0) is False
        assert corC_hypothesis.__wrapped__(81, 10, 0.25) is True


class TestPrivateIntervalContext:
    """Each evaluator of the integer kernel against its body as it ran in
    mpmath's global interval context at 40 digits: the kernel returns the
    smallest float at or above the exact value, which is the float above
    the 136-bit interval wherever no float lies inside that interval."""

    PRIMES_BELOW_60 = [p for p in PRIMES_BELOW_1100 if p < 60]

    @staticmethod
    def assert_same(fn, oracle, *args):
        try:
            want = ("value", oracle(*args))
        except (ValueError, HypothesisNotMet) as exc:
            want = ("raises", type(exc))
        try:
            got = ("value", fn.__wrapped__(*args))
        except (ValueError, HypothesisNotMet) as exc:
            got = ("raises", type(exc))
        assert got == want, (fn.__name__, args)

    def test_thmB_below_60(self, global_iv_evaluators):
        for p in self.PRIMES_BELOW_60:
            for t in range(2, p - 1):
                self.assert_same(thmB_C, global_iv_evaluators["thmB_C"], p, t)
                for r in (1, 2, 3):
                    self.assert_same(thmB_rhs, global_iv_evaluators["thmB_rhs"], p, r, t)

    def test_thmB_C_below_200(self, global_iv_evaluators):
        for p in PRIMES_BELOW_1100:
            if p < 200:
                for t in range(2, p - 1):
                    self.assert_same(thmB_C, global_iv_evaluators["thmB_C"], p, t)

    def test_thm2_Cr_below_120(self, global_iv_evaluators):
        for r in range(1, 120):
            self.assert_same(thm2_Cr, global_iv_evaluators["thm2_Cr"], r)

    def test_thmB_C_branches_below_1100(self, global_iv_evaluators):
        # the log branch (t = 2), the p - 2 branch, and the undefined t = p - 1
        for p in PRIMES_BELOW_1100:
            for t in {2, p - 2, p - 1}:
                self.assert_same(thmB_C, global_iv_evaluators["thmB_C"], p, t)

    def test_thresholds(self, global_iv_evaluators):
        for r in list(range(1, 7)) + list(range(20, 27)):
            self.assert_same(thm2_Cr, global_iv_evaluators["thm2_Cr"], r)
            for p in self.PRIMES_BELOW_60 + [101, 1009, 1097]:
                self.assert_same(thm1_threshold, global_iv_evaluators["thm1_threshold"], p, r)
                self.assert_same(thm2_threshold, global_iv_evaluators["thm2_threshold"], p, r)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.25])
    def test_corC(self, global_iv_evaluators, eps):
        for p in self.PRIMES_BELOW_60 + [101, 1009]:
            for t in range(2, min(p, 60) + 1):
                self.assert_same(corC_hypothesis, global_iv_evaluators["corC_hypothesis"],
                                 p, t, eps)
                for r in (1, 2, 3, 4):
                    for const in (1.0, 2.5):
                        self.assert_same(corC_rhs, global_iv_evaluators["corC_rhs"],
                                         p, r, t, eps, const)


# ---------------------------------------------------------------------------
# the integer kernel: each (value, error) pair against mpmath, 50 digits
# finer than the kernel's scale

def assert_within(pair, exact, w):
    """value - err <= exact 2^w <= value + err for a kernel (value, err)."""
    value, err = pair
    with mp.workdps(w * 3 // 10 + 50):
        scaled = exact * mpf(2) ** w
        assert value - err <= scaled <= value + err


class TestKernel:
    @pytest.mark.parametrize("w", [1, 20, 96, 136, 400, 1000])
    def test_pi_and_log2(self, w):
        with mp.workdps(w * 3 // 10 + 50):
            assert_within(bounds._pi(w), +mp.pi, w)
            assert_within(bounds._ln2(w), mp.log(2), w)
        assert bounds._pi(w)[1] <= 2 and bounds._ln2(w)[1] <= 2

    @settings(max_examples=150, deadline=None)
    @given(x=st.integers(1, 1 << 300), w=st.sampled_from([40, 96, 192, 400]))
    def test_log(self, x, w):
        with mp.workdps(150):
            assert_within(bounds._log(x, w), mp.log(mpf(x) / mpf(2) ** w), w)

    @settings(max_examples=150, deadline=None)
    @given(frac=st.fractions(-40, 40), w=st.sampled_from([60, 96, 192]))
    def test_exp(self, frac, w):
        x = (frac.numerator << w) // frac.denominator
        with mp.workdps(150):
            assert_within(bounds._exp(x, w), mp.exp(mpf(x) / mpf(2) ** w), w)

    @settings(max_examples=150, deadline=None)
    @given(frac=st.fractions(-Fraction(5, 2), Fraction(5, 2)),
           w=st.sampled_from([60, 136, 400]))
    def test_cos_sin(self, frac, w):
        x = (frac.numerator << w) // frac.denominator
        c, s, err = bounds._cos_sin(x, w)
        with mp.workdps(150):
            angle = mpf(x) / mpf(2) ** w
            assert_within((c, err), mp.cos(angle), w)
            assert_within((s, err), mp.sin(angle), w)

    def test_log_refuses_arguments_below_one_unit(self):
        # the atanh series would never end on a negative z
        for x in (0, -1, -(1 << 100)):
            with pytest.raises(ValueError, match="must be at least"):
                bounds._log(x, 96)
        with pytest.raises(ValueError, match="p = 1 must be >= 2"):
            thm2_threshold.__wrapped__(1, 20)
        with pytest.raises(ValueError, match="r = 0 must be >= 1"):
            thm2_Cr.__wrapped__(0)

    def test_ceil_float(self):
        assert bounds._ceil_float(1, 3) == math.nextafter(1 / 3, math.inf)
        assert bounds._ceil_float(2, 2) == 1.0  # an exact float is its own
        assert bounds._ceil_float(0, 5) == 0.0
        assert bounds._ceil_float(10 ** 400, 1) == math.inf

    def test_ziv_doubles_until_one_float(self):
        widths = []

        def bracket(w):  # 1/3 within one unit of 2^-w
            widths.append(w)
            third = (1 << w) // 3
            return third - 1, third + 1, 1 << w
        assert bounds._ziv(bracket) == math.nextafter(1 / 3, math.inf)
        assert widths == [96]

        widths.clear()
        assert bounds._ziv(lambda w: widths.append(w) or (1 << w, (1 << w) + 1, 1 << w)) \
            == math.nextafter(1.0, math.inf)
        assert widths == [bounds.ZIV_BITS << i for i in range(bounds.ZIV_DOUBLINGS)]

    def test_capped_ziv_loop_still_bounds_from_above(self, monkeypatch):
        monkeypatch.setattr(bounds, "ZIV_BITS", 16)
        monkeypatch.setattr(bounds, "ZIV_DOUBLINGS", 1)
        for fn, args, exact in [(thmB_C, (101, 37), mp_thmB_C(101, 37)),
                                (thmB_C, (11, 9), mp_thmB_C(11, 9)),
                                (thm2_Cr, (5,), mp.exp((4 * mp.log(5) + 8) / 5))]:
            value = fn.__wrapped__(*args)
            assert exact <= mpf(value) <= exact * (1 + mpf(2) ** -4)


# ---------------------------------------------------------------------------
# memoised evaluators and their interval precision

def _evaluator_calls(p, r, d, k, nu):
    """(memoised evaluator, arguments) pairs built from one (p, r, d, k, nu)."""
    q = p ** r
    return [
        (thmA_rhs, (p, r, d)),
        (thmB_C, (p, d)),
        (thmB_rhs, (p, r, d)),
        (thm1_rhs, (p, r, d)),
        (thm1_threshold, (p, r)),
        (thm2_rhs, (p, r, d, k, nu)),
        (thm2_Cr, (r,)),
        (thm2_threshold, (p, r)),
        (corC_hypothesis, (p, d, 0.25)),
        (corC_rhs, (p, r, d, 0.25, 1.5)),
        (lemma1_rhs, (q, nu, d, k)),
        (lemmaD_rhs, (p, r)),
        (lemmaE_rhs, (q, k, nu - 1)),
    ]


def _outcome(fn, args):
    try:
        return "value", fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return "raises", type(exc)


def assert_memo_matches_uncached(p, r, d, k, nu):
    for fn, args in _evaluator_calls(p, r, d, k, nu):
        uncached = _outcome(fn.__wrapped__, args)
        # the second call is answered from the cache when the first returned
        assert _outcome(fn, args) == uncached, (fn.__name__, args)
        assert _outcome(fn, args) == uncached, (fn.__name__, args)


class TestMemoisedEvaluators:
    def test_seeded_inputs_match_uncached(self):
        rng = random.Random(20240)
        for _ in range(60):
            p = rng.choice([3, 5, 7, 11, 13, 101, 1009])
            r = rng.randint(1, 22)
            assert_memo_matches_uncached(p, r, rng.randint(1, p), rng.randint(1, max(1, r - 1)),
                                         rng.randint(1, 6))

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([3, 5, 7, 11, 13, 29, 101, 1009]), r=st.integers(0, 22),
           d=st.integers(0, 40), k=st.integers(0, 22), nu=st.integers(0, 6))
    def test_generated_inputs_match_uncached(self, p, r, d, k, nu):
        assert_memo_matches_uncached(p, r, d, k, nu)

    def test_precision_is_scoped_per_call(self):
        # a caller's global iv.dps must not reach a certified value, or a
        # memoised value would depend on who asked first
        total = CycloSum(7, [3, 1, 0, 2, 5, 0, 1])
        saved = iv.prec
        try:
            iv.dps = 15
            got = (thm2_rhs(101, 3, 50, 1, 3), lemma1_rhs(10007, 2, 13, 17),
                   total.magnitude_interval())
            iv.dps = 40
            want = (getattr(thm2_rhs, "__wrapped__", thm2_rhs)(101, 3, 50, 1, 3),
                    getattr(lemma1_rhs, "__wrapped__", lemma1_rhs)(10007, 2, 13, 17),
                    total.magnitude_interval())
        finally:
            iv.prec = saved
        assert got == want
        assert iv.prec == saved
