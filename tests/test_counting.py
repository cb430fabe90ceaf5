"""Square counting: the exact identity, est1, and Monte-Carlo estimates."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsquares import (DigitBox, IntervalBox, characters, count_squares, counting,
                          estimate_square_fraction, make_field)
from digitsquares.characters import DLOG_CAP, quad_table
from digitsquares.errors import BudgetExceeded, InvariantViolation
from digitsquares.suites import square_census

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


# every (p, r) with p in {3, 5, 13, 101} and q up to the table cap
TABLE_FIELDS = [(p, r) for p in (3, 5, 13, 101) for r in range(1, 13) if p ** r <= DLOG_CAP]
ORACLE_LIMIT = 20_000  # largest seeded box compared with the walk


def random_box(ctx, rng, uniform):
    """A DigitBox of at most about ORACLE_LIMIT elements."""
    side = min(ctx.p, max(1, round(ORACLE_LIMIT ** (1 / ctx.r))))

    def one():
        k = int(rng.integers(1, side + 1))
        return tuple(int(v) for v in rng.choice(ctx.p, size=k, replace=False))

    if uniform:
        return DigitBox.uniform(ctx, one())
    return DigitBox(ctx, tuple(one() for _ in range(ctx.r)))


def census(box):
    rep = count_squares(box)
    return rep.count_q, rep.char_sum


class TestTableReductionAgainstWalk:
    """count_squares on table-sized fields reduces the quad table instead of
    walking; the walk (the walk_census oracle) must give the same sums."""

    @pytest.mark.parametrize("p,r", TABLE_FIELDS)
    def test_seeded_digit_boxes(self, field, walk_census, p, r):
        ctx = field(p, r)
        rng = np.random.default_rng([7, p, r])
        for uniform in (True, False, True, False, False):
            box = random_box(ctx, rng, uniform)
            assert census(box) == walk_census(box), box.describe()

    @pytest.mark.parametrize("p,r", [(3, 1), (5, 1), (13, 1), (101, 1), (5, 3),
                                     (13, 2), (101, 2)])
    def test_wrapping_interval_boxes(self, field, walk_census, p, r):
        ctx = field(p, r)
        rng = np.random.default_rng([11, p, r])
        boxes = [IntervalBox(ctx, (p - 2,) * r, (min(p - 1, 4),) * r),
                 IntervalBox(ctx, (-3,) * r, (2,) * r)]
        for _ in range(6):
            lengths = tuple(int(h) for h in rng.integers(1, p + 1, size=r))
            offsets = tuple(int(n) for n in rng.integers(-p, 3 * p, size=r))
            boxes.append(IntervalBox(ctx, offsets, lengths))
        assert any(set(s) != set(range(min(s), max(s) + 1))
                   for s in boxes[0].digits)  # the window wraps
        for box in boxes:
            assert census(box) == walk_census(box), box.describe()

    def test_full_box_and_singletons(self, field, walk_census):
        ctx = field(13, 2)
        full = DigitBox.uniform(ctx, range(13))
        assert census(full) == walk_census(full) == ((ctx.q - 1) // 2, 0)
        for digits in (((0,), (0,)), ((4,), (0,)), ((0,), (5,))):
            box = DigitBox(ctx, digits)
            assert census(box) == walk_census(box)

    def test_every_initial_interval_of_f101_cubed(self, field, walk_census):
        ctx = field(101, 3)
        for t in range(1, 102):
            box = DigitBox.uniform(ctx, range(t))
            assert census(box) == walk_census(box), t

    @pytest.mark.parametrize("p,table_sized", [(1021, True), (1031, False)])
    def test_both_sides_of_the_cap(self, field, walk_census, p, table_sized):
        ctx = field(p, 2)
        assert (ctx.q <= DLOG_CAP) == table_sized
        rng = np.random.default_rng([13, p])
        boxes = [random_box(ctx, rng, uniform) for uniform in (True, False, False)]
        boxes.append(IntervalBox(ctx, (p - 5, 17), (9, 30)))
        for box in boxes:
            assert census(box) == walk_census(box), box.describe()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_generated_boxes(self, field, walk_census, data):
        p, r = data.draw(st.sampled_from([(3, 1), (3, 4), (5, 2), (5, 3),
                                          (13, 1), (13, 2), (101, 1), (101, 2)]))
        ctx = field(p, r)
        side = min(p, max(1, round(ORACLE_LIMIT ** (1 / r))))
        digit_set = st.lists(st.integers(0, p - 1), min_size=1, max_size=side, unique=True)
        kind = data.draw(st.sampled_from(["uniform", "digits", "interval"]))
        if kind == "uniform":
            box = DigitBox.uniform(ctx, data.draw(digit_set))
        elif kind == "digits":
            box = DigitBox(ctx, tuple(data.draw(digit_set) for _ in range(r)))
        else:
            offsets = data.draw(st.tuples(*[st.integers(-2 * p, 2 * p)] * r))
            lengths = data.draw(st.tuples(*[st.integers(1, side)] * r))
            box = IntervalBox(ctx, offsets, lengths)
        assert census(box) == walk_census(box)


class TestFirstAxisAccumulator:
    """The first reduction sums in the narrowest signed type holding -p: the
    fields on both sides of each type's edge against the walk."""

    @pytest.mark.parametrize("p,r,acc", [
        (127, 2, np.int8), (131, 2, np.int16),
        (32749, 1, np.int16), (32771, 1, np.int32), (1048573, 1, np.int32)])
    def test_edges(self, field, walk_census, p, r, acc):
        assert np.min_scalar_type(-p) == acc
        ctx = field(p, r)
        # for r = 2, x * F_p* holds p - 1 squares or p - 1 nonsquares: a
        # first-axis sum of magnitude p - 1 in the full box
        for box in (DigitBox.uniform(ctx, range(p)),
                    DigitBox.uniform(ctx, range((p + 1) // 2))):
            assert census(box) == walk_census(box)


class TestWhichPathCounts:
    @pytest.fixture
    def no_walk(self, monkeypatch):
        def refuse(box, block=None):
            raise AssertionError("count_squares walked the box")

        monkeypatch.setattr(counting, "poly_blocks", refuse)

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        real = counting.poly_blocks

        def counted(box, *args):
            calls.append(box)
            return real(box, *args)

        monkeypatch.setattr(counting, "poly_blocks", counted)
        return calls

    def test_table_sized_field_does_not_walk(self, field, walk_census, no_walk):
        for p, r in ((13, 3), (101, 3), (3, 12)):
            ctx = field(p, r)
            box = DigitBox(ctx, ((0, 1),) + ((1, 2),) * (r - 1))
            assert census(box) == walk_census(box)
            interval = IntervalBox(ctx, (p - 2,) * r, (2,) * r)
            assert census(interval) == walk_census(interval)

    def test_rebased_context_walks(self, field, walk_census, walks):
        ctx = field(13, 3)
        rebased = ctx.with_basis([ctx.from_coords((1, 1, 0)), ctx.from_coords((0, 1, 0)),
                                  ctx.from_coords((2, 0, 1))])
        for box in (DigitBox(rebased, ((0, 1, 5), (2, 3), (1, 4, 7, 9))),
                    DigitBox.uniform(rebased.normalized_basis(), range(6)),
                    IntervalBox(rebased, (11, 0, 5), (4, 13, 3))):
            before = len(walks)
            assert census(box) == walk_census(box)
            assert len(walks) == before + 1

    def test_above_the_cap_walks(self, field, walk_census, walks):
        ctx = field(37, 5)
        assert (ctx.q - 1) // (ctx.p - 1) > DLOG_CAP
        box = DigitBox(ctx, ((0, 1, 2), (3, 4), (0, 36), (5, 6, 7, 8), (0, 9)))
        assert census(box) == walk_census(box)
        assert walks == [box]

    @pytest.mark.parametrize("n_zeroed", [1, 2])
    def test_square_zeroed_in_quad_table_raises(self, walk_census, n_zeroed):
        # two zeroed squares keep |W| - z + char_sum even: only a count_q
        # reduced separately from char_sum exposes them
        ctx = make_field(5, 2)  # fresh: the corruption must not reach shared fields
        box = DigitBox.uniform(ctx, (1, 2, 3))
        assert census(box) == walk_census(box)
        tab = quad_table(ctx)
        squares = [x for x in range(ctx.q)
                   if tab[x] == 1 and box.contains(ctx.from_index(x))]
        assert len(squares) >= n_zeroed
        tab[squares[:n_zeroed]] = 0  # squares of W classified as zero
        with pytest.raises(InvariantViolation):
            count_squares(box)


# fields with q above the table cap and (q-1)/(p-1) monic elements under it
MONIC_FIELDS = [(37, 4), (1031, 2), (11, 6), (3, 13)]
# fields the monic tier serves once DLOG_CAP is patched to (q-1)/(p-1)
SMALL_MONIC_FIELDS = [(3, 2), (5, 3), (7, 3), (11, 2), (5, 4), (13, 3), (3, 5)]


def monic_boxes(ctx, rng, n):
    """n seeded non-uniform DigitBoxes of at most about ORACLE_LIMIT
    elements; each D_j holds 0 with probability 1/2, so the slabs below
    the top count in some boxes and stop at a D_j without 0 in others."""
    side = min(ctx.p, max(1, round(ORACLE_LIMIT ** (1 / ctx.r))))
    out = []
    for _ in range(n):
        digits = []
        for _ in range(ctx.r):
            k = int(rng.integers(1, side + 1))
            d = {int(v) for v in rng.choice(ctx.p, size=k, replace=False)}
            if rng.random() < 0.5:
                d.add(0)
            else:
                d.discard(0)
            digits.append(tuple(d) or (1,))
        out.append(DigitBox(ctx, tuple(digits)))
    return out


class TestTablePredicate:
    """characters.table_fits owns the full-table cap, and count_squares reads
    the polynomial basis from the context."""

    @pytest.mark.parametrize("p,r", TABLE_FIELDS + MONIC_FIELDS)
    def test_agrees_with_the_cap(self, field, p, r):
        ctx = field(p, r)
        assert characters.table_fits(ctx) == (ctx.q <= DLOG_CAP)

    @pytest.mark.parametrize("p,r", [(5, 2), (13, 2), (101, 2)])
    def test_polynomial_basis_by_index_counts_through_the_table(self, field, walk_census,
                                                                monkeypatch, p, r):
        ctx = field(p, r)
        rebased = ctx.with_basis([1, p])
        assert rebased.poly_basis and rebased is not ctx
        boxes = [DigitBox.uniform(rebased, range(0, p, 2)),
                 IntervalBox(rebased, (p - 3, 1), (5, 4))]
        expected = [walk_census(box) for box in boxes]

        def refuse(*args):
            raise AssertionError("the census walked the box")

        monkeypatch.setattr(counting, "poly_blocks", refuse)
        assert [census(box) for box in boxes] == expected


class TestMonicTier:
    """Fields with q > 2^20 but (q-1)/(p-1) <= 2^20 count from the monic
    table, slab by slab: against the norm walk above the cap and against
    the table reduction on small fields."""

    @pytest.fixture
    def monic_calls(self, monkeypatch):
        calls = []
        real = counting._monic_sums

        def counted(box):
            calls.append(box)
            return real(box)

        monkeypatch.setattr(counting, "_monic_sums", counted)
        return calls

    @pytest.mark.parametrize("p,r", MONIC_FIELDS)
    def test_seeded_boxes_match_the_norm_walk(self, field, norm_census, monic_calls, p, r):
        ctx = field(p, r)
        assert (ctx.q - 1) // (p - 1) <= DLOG_CAP < ctx.q
        boxes = monic_boxes(ctx, np.random.default_rng([23, p, r]), 8)
        boxes.append(DigitBox(ctx, ((0, 1),) * (r - 1) + ((0,),)))  # below the top slab only
        boxes.append(DigitBox(ctx, ((0,),) * r))
        for box in boxes:
            assert census(box) == norm_census(box), box.describe()
        assert monic_calls == boxes

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_generated_boxes_match_the_norm_walk(self, field, norm_census, data):
        p, r = data.draw(st.sampled_from(MONIC_FIELDS))
        ctx = field(p, r)
        side = min(p, max(1, round(ORACLE_LIMIT ** (1 / r))))
        digit_set = st.lists(st.integers(0, p - 1), min_size=1, max_size=side, unique=True)
        box = DigitBox(ctx, tuple(data.draw(digit_set) for _ in range(r)))
        assert census(box) == norm_census(box)

    @pytest.mark.parametrize("p,r", SMALL_MONIC_FIELDS)
    def test_small_fields_match_the_table_sums(self, monkeypatch, monic_calls, p, r):
        ctx = make_field(p, r)
        boxes = monic_boxes(ctx, np.random.default_rng([29, p, r]), 20)
        expected = [counting._table_sums(box) for box in boxes]
        monkeypatch.setattr(characters, "DLOG_CAP", (ctx.q - 1) // (p - 1))
        assert [census(box) for box in boxes] == expected
        assert monic_calls == boxes

    def test_census_of_f37_4_calls_no_norm(self, field, norm_census, monkeypatch):
        ctx = field(37, 4)
        boxes = monic_boxes(ctx, np.random.default_rng(31), 4)
        expected = [norm_census(box) for box in boxes]

        def refuse(*args):
            raise AssertionError("the census went through the norm")

        monkeypatch.setattr(characters, "vec_norm", refuse)
        monkeypatch.setattr(counting, "poly_blocks", refuse)
        assert [census(box) for box in boxes] == expected

    def test_corrupted_monic_entry_raises(self, norm_census):
        ctx = make_field(37, 4)  # fresh: the corruption must not reach shared fields
        box = DigitBox(ctx, ((0, 3, 5), (1, 2), (7, 9, 11), (1,)))
        assert census(box) == norm_census(box)
        # x = (3, 2, 9, 1) is monic: its entry sits in slab 3 at off_3 + sum a_j p^j
        off = characters.monic_offsets(37, 4)[3]
        characters.monic_table(ctx)[off + 3 + 2 * 37 + 9 * 37 ** 2] = 0
        with pytest.raises(InvariantViolation, match="square-count identity"):
            count_squares(box)

    def test_budget_refusal_is_unchanged(self):
        ctx = make_field(37, 4)
        box = DigitBox.uniform(ctx, range(10))
        with pytest.raises(BudgetExceeded, match="requires 10000 elements"):
            count_squares(box, budget=9999)
        assert "monic" not in ctx._tables  # refused before any table is built
        assert count_squares(box, budget=10000).size_w == 10000


def run_chain(p, r, walk_census, sequence):
    """Count the digit sets of sequence in order on two fresh copies of
    F_{p^r}: through square_census (a repeated set is a report-cache hit)
    and through direct count_squares calls, each carrying its own field's
    first-axis reduction from one set to the next.  Each census must equal
    the walk; the direct chain's FirstAxisSums is returned."""
    cached, direct = make_field(p, r), make_field(p, r)
    walks = {}
    for ds in sequence:
        ds = tuple(ds)
        box = DigitBox.uniform(direct, ds)
        if ds not in walks:
            walks[ds] = walk_census(box)
        rep = count_squares(box)
        assert (rep.count_q, rep.char_sum) == walks[ds], ds
        assert square_census(cached, ds, None) == rep, ds
        assert direct._cache["first_axis"].rows == tuple(sorted(set(ds)))
    return direct._cache["first_axis"]


class TestCensusChain:
    """Censuses that carry the first-axis reduction from one digit set to
    the next against the walk.  Each chain runs on fields of its own: it
    lives in ctx._cache."""

    CHAIN_FIELDS = [(7, 1), (101, 1), (3, 5), (5, 4), (13, 3), (101, 2)]

    @pytest.mark.parametrize("p,r", CHAIN_FIELDS)
    def test_intervals_up_then_down(self, walk_census, p, r):
        up = [range(t) for t in range(1, p + 1)]
        run_chain(p, r, walk_census, up + up[::-1])
        run_chain(p, r, walk_census, up[::-1] + up)

    @pytest.mark.parametrize("p,r", CHAIN_FIELDS)
    def test_repeated_disjoint_and_complementary_sets(self, walk_census, p, r):
        low, high = range(p // 2 + 1), range(p // 2 + 1, p)
        evens, odds = range(0, p, 2), range(1, p, 2)
        sequence = [low, low, high, low, evens, odds, evens, evens, range(p),
                    (0,), (p - 1,), (0,), high, range(p), low]
        run_chain(p, r, walk_census, sequence)

    @pytest.mark.parametrize("p,r", CHAIN_FIELDS)
    def test_seeded_random_sets(self, walk_census, p, r):
        rng = np.random.default_rng([23, p, r])
        sequence = [rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False)
                    for _ in range(25)]
        run_chain(p, r, walk_census, sequence)

    @pytest.mark.parametrize("p,acc", [(127, np.int8), (131, np.int16)])
    def test_full_and_half_sets_at_the_accumulator_edges(self, walk_census, p, acc):
        # r = 2: a full column holds p - 1 squares or p - 1 nonsquares, the
        # largest first-axis sum the accumulator ever holds
        full, half, rest = range(p), range((p + 1) // 2), range((p + 1) // 2, p)
        running = run_chain(p, 2, walk_census,
                            [full, half, full, half, rest, half, full, rest, full])
        assert running.sq.dtype == running.chi.dtype == acc
        assert np.abs(running.chi).max() == p - 1

    def test_direct_censuses_read_only_the_rows_a_set_adds(self, monkeypatch):
        read = []
        real = counting._add_rows

        def spy(running, tab, rows, op):
            read.append(list(rows))
            return real(running, tab, rows, op)

        monkeypatch.setattr(counting, "_add_rows", spy)
        ctx = make_field(13, 2)
        count_squares(DigitBox.uniform(ctx, range(5)))
        assert read == [[0, 1, 2, 3, 4], []]
        read.clear()
        rep = count_squares(DigitBox.uniform(ctx, range(7)))
        assert read == [[5, 6], []]
        assert rep == count_squares(DigitBox.uniform(make_field(13, 2), range(7)))
        read.clear()
        count_squares(DigitBox.uniform(ctx, (2, 3, 4, 5, 6, 7)))
        assert read == [[7], [0, 1]]
        read.clear()
        count_squares(DigitBox.uniform(ctx, (2, 3, 4, 5, 6, 7)))
        assert read == [[2, 3, 4, 5, 6, 7], []]  # a repeated set is read afresh

    def test_corrupting_a_row_the_chain_has_not_read_raises_when_added(self):
        ctx = make_field(5, 2)  # fresh: the corruption must not reach shared fields
        square_census(ctx, (0, 1), None)
        assert ctx._cache["first_axis"].rows == (0, 1)
        w = ctx.from_coords((1, 2)).idx  # last coordinate 2: table row 2, unread
        quad_table(ctx)[w] = 0  # a nonzero element of W classified as zero
        with pytest.raises(InvariantViolation):
            square_census(ctx, (0, 1, 2), None)
        assert ctx._cache["first_axis"].rows == ()  # the chain forgot every row
        assert square_census(ctx, (3, 4), None) == count_squares(DigitBox.uniform(ctx, (3, 4)))
        with pytest.raises(InvariantViolation):
            square_census(ctx, (1, 2), None)


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
        # (q-1)/(p-1) above the table cap: the count walks the box and the
        # estimate samples, both through the norm + Legendre path
        ctx = field(37, 5)
        assert (ctx.q - 1) // (ctx.p - 1) > DLOG_CAP
        box = DigitBox.uniform(ctx, tuple(range(6)))
        rep = count_squares(box)
        z = 1 if rep.zero_in_w else 0
        assert 2 * rep.count_q == rep.size_w - z + rep.char_sum
        est = estimate_square_fraction(box, 2000, seed=3)
        assert abs(est.estimate - rep.count_q / rep.size_w) < 0.1
