"""Square counting: the exact identity, est1, and Monte-Carlo estimates."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsquares import (DigitBox, count_squares, estimate_square_fraction,
                          make_field)
from digitsquares.characters import quad_table
from digitsquares.errors import InvariantViolation

SWEEP_FIELDS = [(p, r) for p in (3, 5, 7, 11, 13) for r in (1, 2, 3)]


def random_digit_sets(p, r, n, seed):
    rng = np.random.default_rng([seed, p, r])
    out = []
    for _ in range(n):
        size = int(rng.integers(1, p + 1))
        out.append(tuple(sorted(int(v) for v in rng.choice(p, size=size, replace=False))))
    return out


class TestExamples:
    def test_f9_digits_12(self, field):
        rep = count_squares(DigitBox.uniform(field(3, 2), (1, 2)))
        assert (rep.count_q, rep.char_sum) == (0, -4)
        assert rep.deviation == Fraction(2)
        assert not rep.zero_in_w

    def test_f9_digits_01(self, field):
        rep = count_squares(DigitBox.uniform(field(3, 2), (0, 1)))
        assert (rep.count_q, rep.count_q0, rep.char_sum) == (2, 3, 1)
        assert rep.deviation == 0

    @pytest.mark.parametrize("p,r", [(3, 1), (5, 1), (3, 2), (5, 2), (7, 2)])
    def test_full_digit_set(self, field, p, r):
        ctx = field(p, r)
        rep = count_squares(DigitBox.uniform(ctx, tuple(range(p))))
        assert rep.count_q == (ctx.q - 1) // 2
        assert rep.deviation == Fraction(1, 2)
        assert rep.char_sum == 0


    def test_corrupted_quad_table_raises(self):
        ctx = make_field(5, 2)  # fresh: the corruption must not reach shared fields
        box = DigitBox.uniform(ctx, (1, 2))
        count_squares(box)
        w = ctx.from_coords((2, 1)).idx
        assert quad_table(ctx) is ctx._tables["quad"]
        ctx._tables["quad"][w] = 0  # a nonzero element of W classified as zero
        with pytest.raises(InvariantViolation):
            count_squares(box)


class TestIdentitySweep:
    @pytest.mark.parametrize("p,r", SWEEP_FIELDS)
    def test_identity_and_est1_on_random_digit_sets(self, field, p, r):
        ctx = field(p, r)
        for ds in random_digit_sets(p, r, 30, seed=20):
            rep = count_squares(DigitBox.uniform(ctx, ds))
            z = 1 if rep.zero_in_w else 0
            # the linking identity, exactly
            assert 2 * rep.count_q == rep.size_w - z + rep.char_sum
            # est1: deviation <= |char sum| / 2 + 1/2
            assert rep.deviation <= Fraction(abs(rep.char_sum), 2) + Fraction(1, 2)
            # three-way partition of W
            assert rep.count_q + rep.count_nonsquares + z == rep.size_w

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=25, deadline=None)
    def test_identity_property_random_boxes(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.choice([3, 5, 7]))
        r = int(rng.integers(1, 4))
        ctx = make_field(p, r)
        digits = tuple(
            tuple(sorted(int(v) for v in
                         rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False)))
            for _ in range(r))
        rep = count_squares(DigitBox(ctx, digits))
        z = 1 if rep.zero_in_w else 0
        assert 2 * rep.count_q == rep.size_w - z + rep.char_sum


class TestEstimate:
    def test_ci_contains_exact_fraction_f13(self, field):
        ctx = field(13, 1)
        box = DigitBox.uniform(ctx, tuple(range(13)))
        rep = count_squares(box)
        exact = rep.count_q / rep.size_w
        est = estimate_square_fraction(box, 100_000, seed=5)
        assert est.ci_low <= exact <= est.ci_high

    def test_full_field_ci_contains_half_at_scale(self, field):
        # (q - 1)/(2q) is indistinguishable from 1/2 once q is large
        ctx = field(101, 2)
        box = DigitBox.uniform(ctx, tuple(range(101)))
        est = estimate_square_fraction(box, 100_000, seed=13)
        assert est.ci_low <= 0.5 <= est.ci_high

    def test_ci_contains_exact_fraction_f169_interval(self, field):
        ctx = field(13, 2)
        box = DigitBox.uniform(ctx, tuple(range(1, 8)))
        rep = count_squares(box)
        exact = rep.count_q / rep.size_w
        est = estimate_square_fraction(box, 200_000, seed=17)
        assert est.ci_low <= exact <= est.ci_high

    def test_singleton_square_estimates_one(self, field):
        ctx = field(5, 2)
        # 4 = 2^2 embeds as a square; the singleton box {4}
        box = DigitBox(ctx, ((4,), (0,)))
        est = estimate_square_fraction(box, 500, seed=1)
        assert est.estimate == 1.0
        assert est.caveat_small_counts  # zero failures trips the caveat

    def test_determinism(self, field):
        box = DigitBox.uniform(field(11, 2), (0, 1, 2, 3))
        a = estimate_square_fraction(box, 1000, seed=77)
        b = estimate_square_fraction(box, 1000, seed=77)
        assert a == b

    def test_minimum_sample_size(self, field):
        box = DigitBox.uniform(field(3, 2), (1, 2))
        with pytest.raises(ValueError):
            estimate_square_fraction(box, 50, seed=0)

    def test_large_field_euler_path(self, field):
        # q above the table cap exercises the norm + Legendre path
        ctx = make_field(1031, 2)  # q = 1062961 > 2^20
        box = DigitBox.uniform(ctx, tuple(range(10)))
        rep = count_squares(box)
        z = 1 if rep.zero_in_w else 0
        assert 2 * rep.count_q == rep.size_w - z + rep.char_sum
        est = estimate_square_fraction(box, 2000, seed=3)
        assert abs(est.estimate - rep.count_q / rep.size_w) < 0.1
