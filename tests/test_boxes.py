"""Digit boxes, interval boxes, enumeration, sampling, splitting."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsquares import (BudgetExceeded, DigitBox, IntervalBox, count_squares,
                          enumerate_box, format_digit_set, parse_digit_spec,
                          sample_uniform, split_box)
from digitsquares.boxes import (BUDGET_ENV_VAR, coords_blocks, default_budget, poly_blocks,
                               sample_coords)


class TestParsing:
    def test_ranges_and_singletons(self):
        assert parse_digit_spec("0-4,7,9", 11) == (0, 1, 2, 3, 4, 7, 9)
        assert parse_digit_spec("3", 5) == (3,)
        assert parse_digit_spec("2,0,1", 5) == (0, 1, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            parse_digit_spec("0-5", 5)
        with pytest.raises(ValueError):
            parse_digit_spec("", 5)
        with pytest.raises(ValueError):
            parse_digit_spec("4-2", 5)

    def test_format_round_trip(self):
        for digits in [(0,), (0, 1), (0, 1, 2), (1, 3, 5), (0, 1, 2, 5, 7, 8, 9)]:
            assert parse_digit_spec(format_digit_set(digits), 11) == digits

    @given(st.sets(st.integers(0, 12), min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_format_round_trip_property(self, digits):
        ds = tuple(sorted(digits))
        assert parse_digit_spec(format_digit_set(ds), 13) == ds


class TestEnumeration:
    def test_f9_uniform_12(self, field):
        F9 = field(3, 2)
        box = DigitBox.uniform(F9, (1, 2))
        got = [e.poly_coords for e in enumerate_box(box)]
        assert got == [(1, 1), (1, 2), (2, 1), (2, 2)]  # lex coordinate order

    def test_full_digit_set_is_whole_field(self, field):
        ctx = field(5, 2)
        box = DigitBox.uniform(ctx, tuple(range(5)))
        assert sorted(e.idx for e in enumerate_box(box)) == list(range(25))

    def test_unit_interval_box(self, field):
        F9 = field(3, 2)
        box = IntervalBox(F9, (0, 0), (1, 1))
        assert [e.poly_coords for e in enumerate_box(box)] == [(1, 1)]

    def test_interval_box_wraps_mod_p(self, field):
        F9 = field(3, 2)
        box = IntervalBox(F9, (1, 1), (2, 2))  # coords in {2, 0} per axis
        assert box.digits == ((0, 2), (0, 2))
        assert box.contains_zero()

    @pytest.mark.parametrize("p,r", [(3, 2), (5, 3), (13, 2), (101, 2)])
    def test_interval_box_is_the_digit_box_of_its_windows(self, field, p, r):
        ctx = field(p, r)
        rng = np.random.default_rng([41, p, r])
        for _ in range(6):
            lengths = tuple(int(h) for h in rng.integers(1, p + 1, size=r))
            offsets = tuple(int(n) for n in rng.integers(-p, 3 * p, size=r))
            box = IntervalBox(ctx, offsets, lengths)
            windows = [{(n + t) % p for t in range(1, h + 1)}
                       for n, h in zip(offsets, lengths)]
            twin = DigitBox(ctx, tuple(windows))
            assert isinstance(box, DigitBox) and box.digits == twin.digits
            assert count_squares(box) == count_squares(twin)
            assert list(enumerate_box(box)) == list(enumerate_box(twin))
            assert all(np.array_equal(a, b) for a, b in
                       zip(poly_blocks(box, block=7), poly_blocks(twin, block=7)))
            assert box.contains_zero() == twin.contains_zero()
            assert split_box(box, r - 1) == split_box(twin, r - 1)
            members = {e.idx for e in enumerate_box(twin)}
            for idx in rng.integers(0, ctx.q, size=20):
                x = ctx.from_index(int(idx))
                assert box.contains(x) == twin.contains(x) == (x.idx in members)
            # equality, hashing and the label stay the interval's own
            assert box.describe().startswith("N=") and box.describe() != twin.describe()
            assert box != twin and twin != box
            assert box == IntervalBox(ctx, list(offsets), list(lengths))
            assert hash(box) == hash(IntervalBox(ctx, offsets, lengths))
            shifted = IntervalBox(ctx, tuple(n + p for n in offsets), lengths)
            assert shifted.digits == box.digits and shifted != box

    def test_interval_box_offsets_past_p_and_uniform(self, field):
        ctx = field(5, 2)
        box = IntervalBox(ctx, (7, -4), (3, 5))  # 8..10 and -3..1 mod 5
        assert box.digits == ((0, 3, 4), (0, 1, 2, 3, 4))
        assert repr(box).startswith("IntervalBox(ctx=") and "digits" not in repr(box)
        assert type(IntervalBox.uniform(ctx, (1, 2))) is DigitBox
        with pytest.raises(ValueError):
            IntervalBox(ctx, (0,), (1,))
        with pytest.raises(ValueError):
            IntervalBox(ctx, (0, 0), (1, 6))

    @pytest.mark.parametrize("p,r,digits", [
        (3, 2, (0, 2)), (5, 2, (1, 2, 4)), (5, 4, (0, 3)), (3, 6, (1, 2)),
    ])
    def test_size_and_distinctness(self, field, p, r, digits):
        ctx = field(p, r)
        box = DigitBox.uniform(ctx, digits)
        elems = [e.idx for e in enumerate_box(box)]
        assert len(elems) == len(digits) ** r == box.size()
        assert len(set(elems)) == len(elems)

    def test_mixed_digit_sets(self, field):
        ctx = field(5, 3)
        box = DigitBox(ctx, ((0, 1), (2,), (1, 3, 4)))
        elems = list(enumerate_box(box))
        assert len(elems) == 2 * 1 * 3
        assert all(box.contains(e) for e in elems)

    def test_uniform_normalises_like_per_coordinate_sets(self, field):
        ctx = field(7, 3)
        raw = [5, 1, 5, 0, 3, 1]
        box = DigitBox.uniform(ctx, raw)
        assert box == DigitBox(ctx, (raw,) * 3) == DigitBox(ctx, (raw, list(raw), tuple(raw)))
        assert box.digits == ((0, 1, 3, 5),) * 3
        assert DigitBox.uniform(ctx, iter(raw)) == box  # read once, even an iterator
        with pytest.raises(ValueError):
            DigitBox.uniform(ctx, [])
        with pytest.raises(ValueError):
            DigitBox.uniform(ctx, raw + [7])

    def test_zero_membership_rule(self, field):
        ctx = field(3, 2)
        assert DigitBox.uniform(ctx, (0, 1)).contains_zero()
        assert not DigitBox(ctx, ((0, 1), (1, 2))).contains_zero()

    def test_index_blocks_are_fresh_arrays(self, field):
        from digitsquares.boxes import index_blocks
        ctx = field(5, 3)
        box = DigitBox(ctx, ((0, 2, 4), (1, 3), (0, 1, 2, 3)))
        blocks = list(index_blocks(box, block=5))  # kept past the next block
        assert [len(b) for b in blocks] == [5, 5, 5, 5, 4]
        lex = [ctx.coords_to_index(c) for c in itertools.product(*box.digits)]
        assert np.concatenate(blocks).tolist() == lex

    @pytest.mark.parametrize("pr", [(3, 2), (5, 3), (7, 2), (13, 2), (3, 4)])
    def test_coords_blocks_follow_itertools_product(self, field, pr):
        """Seeded boxes, walked in blocks that split the radix periods
        unevenly: the rows are itertools.product of the digit sets."""
        ctx = field(*pr)
        rng = np.random.default_rng(list(pr))
        for block in (1, 7, 64, 1 << 15):
            digits = tuple(tuple(sorted(rng.choice(ctx.p, size=int(rng.integers(1, ctx.p + 1)),
                                                   replace=False).tolist()))
                           for _ in range(ctx.r))
            box = DigitBox(ctx, digits)
            rows = np.concatenate([b.copy() for b in coords_blocks(box, block)])
            assert rows.tolist() == [list(c) for c in itertools.product(*digits)]

    def test_budget_refusal_names_monte_carlo(self, field):
        ctx = field(5, 3)
        box = DigitBox.uniform(ctx, tuple(range(5)))
        with pytest.raises(BudgetExceeded, match="Monte-Carlo"):
            list(enumerate_box(box, budget=100))

    def test_basis_change_multiplies_pointwise(self, field):
        # with b_j = a_j / a_1 installed, W becomes a_1^{-1} * W pointwise
        ctx = field(3, 2)
        x = ctx.from_poly_coords((0, 1))
        shifted = ctx.with_basis([x, ctx.one() + x])  # a_1 = x
        norm = shifted.normalized_basis()
        digits = (1, 2)
        orig = [e for e in enumerate_box(DigitBox.uniform(shifted, digits))]
        scaled = [e for e in enumerate_box(DigitBox.uniform(norm, digits))]
        a1_inv = x.inv()
        assert [(a1_inv * e).idx for e in orig] == [e.idx for e in scaled]


class TestSampling:
    def test_determinism(self, field):
        ctx = field(13, 2)
        box = DigitBox.uniform(ctx, (0, 1, 5, 11))
        a = sample_uniform(box, 64, seed=9)
        b = sample_uniform(box, 64, seed=9)
        assert [e.idx for e in a] == [e.idx for e in b]

    def test_singleton_box(self, field):
        ctx = field(5, 2)
        box = DigitBox(ctx, ((3,), (2,)))
        samples = sample_uniform(box, 10, seed=0)
        assert all(e == ctx.from_coords((3, 2)) for e in samples)

    def test_samples_lie_in_box(self, field):
        ctx = field(7, 2)
        box = DigitBox.uniform(ctx, (1, 3, 6))
        assert all(box.contains(e) for e in sample_uniform(box, 100, seed=3))

    @pytest.mark.parametrize("p,r", [(13, 2), (101, 20)])
    def test_matches_scalar_reference(self, field, p, r):
        # the per-row conversion of the same coordinate draws, one scalar call each
        ctx = field(p, r)
        if r == 2:
            ctx = ctx.with_basis([ctx.from_poly_coords((1, 1)), ctx.from_int(3)])
        box = DigitBox.uniform(ctx, (0, 2, 5, 7))
        coords = sample_coords(box, 40, np.random.default_rng(21))
        want = [ctx.coords_to_index(row) for row in coords]
        assert [e.idx for e in sample_uniform(box, 40, seed=21)] == want

    def test_count_must_be_positive(self, field):
        with pytest.raises(ValueError):
            sample_uniform(DigitBox.uniform(field(3, 2), (1,)), 0, seed=1)


class TestSplit:
    def test_f9_split_example(self, field):
        F9 = field(3, 2)
        box = DigitBox.uniform(F9, (1, 2))
        U, V = split_box(box, 1)
        assert {e.poly_coords for e in enumerate_box(U)} == {(1, 0), (2, 0)}
        assert {e.poly_coords for e in enumerate_box(V)} == {(0, 1), (0, 2)}

    def test_extreme_split_supported_on_first_coordinate(self, field):
        ctx = field(5, 3)
        box = DigitBox.uniform(ctx, (0, 1, 2))
        U, _ = split_box(box, 2)
        assert U.digits == ((0, 1, 2), (0,), (0,))

    @pytest.mark.parametrize("k", [1, 2])
    def test_sizes_multiply(self, field, k):
        ctx = field(5, 3)
        box = DigitBox.uniform(ctx, (1, 2, 3))
        U, V = split_box(box, k)
        assert U.size() * V.size() == box.size()

    def test_direct_sum_recovers_box(self, field):
        ctx = field(3, 3)
        box = DigitBox.uniform(ctx, (1, 2))
        U, V = split_box(box, 1)
        sums = {(u + v).idx for u in enumerate_box(U) for v in enumerate_box(V)}
        assert sums == {e.idx for e in enumerate_box(box)}

    def test_split_index_range(self, field):
        box = DigitBox.uniform(field(3, 2), (1, 2))
        with pytest.raises(ValueError):
            split_box(box, 0)
        with pytest.raises(ValueError):
            split_box(box, 2)


class TestBudgetEnv:
    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "12345")
        assert default_budget() == 12345

    def test_env_var_must_be_positive_int(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "zero")
        with pytest.raises(ValueError):
            default_budget()
        monkeypatch.setenv(BUDGET_ENV_VAR, "-3")
        with pytest.raises(ValueError):
            default_budget()


class TestDownsizedTwinHarness:
    def test_sampled_fraction_consistent_with_exact_counts(self, field):
        # exact fractions for |D| = 40 in F_101^2 (twin) and F_101^3 (sampled)
        D = tuple(range(40))
        twin = count_squares(DigitBox.uniform(field(101, 2), D))
        big_box = DigitBox.uniform(field(101, 3), D)
        big = count_squares(big_box)
        f_twin = twin.count_q / twin.size_w
        f_big = big.count_q / big.size_w
        from digitsquares import estimate_square_fraction
        est = estimate_square_fraction(big_box, 100_000, seed=424242)
        sigma = (0.5 * 0.5 / 100_000) ** 0.5
        # sound 5-sigma check against the sampled population's own exact fraction
        assert abs(est.estimate - f_big) <= 5 * sigma
        # the twin is structurally close but a different population
        assert abs(f_twin - f_big) < 0.02
