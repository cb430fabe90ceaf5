"""Lemma oracles against independent brute-force recomputation."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsquares import (BudgetExceeded, DigitBox, HypothesisNotMet,
                          IntervalBox, delta_H, energy_count, enumerate_box,
                          lemma1_check, lemma1_reports, lemmaD_check, lemmaD_reports,
                          lemmaE_check, make_char, subfield_partition)
from digitsquares import boxes, characters, make_field, oracles
from digitsquares.characters import quad_char_coords
from digitsquares.fields import FieldCtx, divisors
from digitsquares.oracles import generator_elements
from digitsquares.suites import TaskOptions, suite_lemma1, suite_lemmaD


def degree_r_count(p, r):
    """#{a in F_{p^r} of degree r} = sum_{d | r} mu(d) p^{r/d} (Moebius inversion)."""
    def mu(n):
        out = 1
        for f in range(2, n + 1):
            if n % f == 0:
                n //= f
                if n % f == 0:
                    return 0
                out = -out
        return out
    return sum(mu(d) * p ** (r // d) for d in divisors(r))


class TestGeneratorElements:
    @pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (3, 3), (3, 4), (7, 2), (3, 6)])
    def test_matches_scalar_oracle(self, field, scalar_generators, p, r):
        ctx = field(p, r)
        gens = generator_elements(ctx)
        assert gens == scalar_generators(ctx)  # same elements, index order
        assert len(gens) == degree_r_count(p, r)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_hypothesis_fields(self, field, scalar_degree, data):
        p = data.draw(st.sampled_from([3, 5, 7, 11, 13]), label="p")
        r = data.draw(st.integers(1, max(k for k in range(1, 7) if p ** k <= 1 << 17)),
                      label="r")
        ctx = field(p, r)
        gens = {a.idx for a in generator_elements(ctx)}
        assert len(gens) == degree_r_count(p, r)
        for i in data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=1, max_size=20)):
            assert (i in gens) == (scalar_degree(ctx.from_index(i)) == r)


class TestLemmaD:
    def test_f9_worked_example(self, field):
        F9 = field(3, 2)
        x = F9.from_poly_coords((0, 1))
        rep = lemmaD_check(F9, x, F9.one() + x, 2)
        assert rep.lhs == 1.0
        assert rep.rhs == pytest.approx(3 * math.sqrt(3), rel=1e-14)
        assert rep.holds
        assert rep.parameters == {"s": 2, "j": 1, "alpha": x.idx,
                                  "beta": (F9.one() + x).idx, "p": 3, "r": 2}

    def test_conjugate_pair_refused(self, field):
        F9 = field(3, 2)
        x = F9.from_poly_coords((0, 1))
        with pytest.raises(HypothesisNotMet):
            lemmaD_check(F9, x, x ** 3, 2)

    def test_non_generator_refused(self, field):
        F9 = field(3, 2)
        x = F9.from_poly_coords((0, 1))
        with pytest.raises(HypothesisNotMet):
            lemmaD_check(F9, F9.one(), x, 2)

    def test_invalid_order_rejected(self, field):
        F9 = field(3, 2)
        x = F9.from_poly_coords((0, 1))
        with pytest.raises(ValueError):
            lemmaD_check(F9, x, F9.one() + x, 3)  # 3 does not divide 8
        with pytest.raises(ValueError):
            lemmaD_check(F9, x, F9.one() + x, 4, index=2)  # order drops to 2

    def test_brute_force_cross_check_s2(self, field, euler):
        F25 = field(5, 2)
        gens = generator_elements(F25)
        alpha, beta = gens[0], gens[3]
        rep = lemmaD_check(F25, alpha, beta, 2)
        brute = abs(sum(euler(F25, (F25.from_int(xi) + alpha) * (F25.from_int(xi) + beta))
                        for xi in range(5)))
        assert rep.lhs == float(brute)

    def test_brute_force_cross_check_s4(self, field):
        F25 = field(5, 2)
        chi = make_char(F25, 4, 1)
        gens = generator_elements(F25)
        alpha, beta = gens[1], gens[5]
        rep = lemmaD_check(F25, alpha, beta, 4)
        total = 0j
        for xi in range(5):
            val = (F25.from_int(xi) + alpha) * ((F25.from_int(xi) + beta) ** 3)
            total += chi.value(val)
        assert rep.lhs == pytest.approx(abs(total), abs=1e-12)

    def test_swap_symmetry_for_real_character(self, field):
        F27 = field(3, 3)
        gens = generator_elements(F27)
        for a, b in [(gens[0], gens[4]), (gens[2], gens[9])]:
            assert lemmaD_check(F27, a, b, 2).lhs == lemmaD_check(F27, b, a, 2).lhs

    def test_exhaustive_f25_s2(self, field):
        F25 = field(5, 2)
        gens = generator_elements(F25)
        assert len(gens) == 20
        checked = 0
        for alpha in gens:
            for beta in gens:
                try:
                    rep = lemmaD_check(F25, alpha, beta, 2)
                except HypothesisNotMet:
                    continue
                assert rep.holds
                checked += 1
        assert checked == 20 * 18  # ordered pairs minus the 2 conjugates each


def _lemmaD_outcome(check, ctx, a, b, s, index):
    """(lhs, rhs, holds, parameters) of a lemmaD report, or the refusal."""
    try:
        rep = check(ctx, a, b, s, index)
    except (HypothesisNotMet, ValueError) as exc:
        return type(exc), str(exc)
    return rep.lhs, rep.rhs, rep.holds, rep.parameters


def _lemmaD_cases(q):
    """(s, index) for s in {2, 3, 4, 8} dividing q - 1, index in {1, s - 1}."""
    return [(s, j) for s in (2, 3, 4, 8) if (q - 1) % s == 0 for j in sorted({1, s - 1})]


class TestLemmaDAgainstPairwiseOracle:
    """lemmaD_check and lemmaD_reports against the per-pair body they replaced."""

    @pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (3, 3)])
    def test_every_generator_pair(self, field, pairwise_lemmaD_check, p, r):
        ctx = field(p, r)
        gens = generator_elements(ctx)
        # F_9: every element, so non-generators and alpha = beta are refused alike
        elems = list(ctx.elements()) if ctx.q == 9 else gens
        for s, j in _lemmaD_cases(ctx.q):
            expected = []
            for a in elems:
                for b in elems:
                    want = _lemmaD_outcome(pairwise_lemmaD_check, ctx, a, b, s, j)
                    assert _lemmaD_outcome(lemmaD_check, ctx, a, b, s, j) == want
                    if a in gens and b in gens and want[0] is not HypothesisNotMet:
                        expected.append(((a.idx, b.idx), want))
            got = [((a.idx, b.idx), (rep.lhs, rep.rhs, rep.holds, rep.parameters))
                   for a, b, rep in lemmaD_reports(ctx, gens, s, j)]
            assert got == expected

    @pytest.mark.parametrize("p,r", [(7, 2), (3, 4)])
    def test_seeded_generator_pairs(self, field, pairwise_lemmaD_check, p, r):
        ctx = field(p, r)
        gens = generator_elements(ctx)
        rng = np.random.default_rng([p, r])
        for i, k in rng.integers(0, len(gens), size=(200, 2)):
            for s, j in _lemmaD_cases(ctx.q):
                args = (ctx, gens[i], gens[k], s, j)
                assert (_lemmaD_outcome(lemmaD_check, *args)
                        == _lemmaD_outcome(pairwise_lemmaD_check, *args))

    def test_same_refusals(self, field, pairwise_lemmaD_check):
        ctx = field(5, 2)
        gens = generator_elements(ctx)
        a, b = gens[0], gens[3]
        conj = a ** 5  # Frobenius
        cases = [
            (ctx.one(), a, 2, 1), (a, ctx.from_int(3), 4, 1),   # non-generators
            (a, conj, 2, 1), (a, a, 4, 3), (a, conj, 4, 5),     # conjugate, alpha = beta
            (a, b, 1, 1), (a, b, 5, 1), (a, b, 0, 1),           # bad s
            (a, b, 4, 2), (a, b, 4, 0), (a, b, 4, 5), (a, b, 3, -1),  # bad index
            (ctx.one(), a, 4, 5),
        ]
        for x, y, s, j in cases:
            want = _lemmaD_outcome(pairwise_lemmaD_check, ctx, x, y, s, j)
            assert want[0] in (HypothesisNotMet, ValueError)
            assert _lemmaD_outcome(lemmaD_check, ctx, x, y, s, j) == want

    def test_reports_refuse_a_non_generator(self, field):
        ctx = field(5, 2)
        gens = generator_elements(ctx)
        with pytest.raises(HypothesisNotMet):
            list(lemmaD_reports(ctx, gens + [ctx.from_int(2)], 2))

    def test_suite_proves_hypotheses_once_per_order(self, monkeypatch):
        chars, sieves = [], []
        make_char, vec_degrees = oracles.make_char, oracles.vec_degrees
        monkeypatch.setattr(oracles, "make_char",
                            lambda ctx, s, j: chars.append(s) or make_char(ctx, s, j))
        monkeypatch.setattr(oracles, "vec_degrees",
                            lambda ctx, A: sieves.append(len(A)) or vec_degrees(ctx, A))
        rows = suite_lemmaD(TaskOptions(5, 2))
        assert chars == [2, 3, 4]  # one character per order, none per pair
        assert sieves == [25]      # the generator sieve; no per-pair degree proof
        assert len(rows) == 3 * 20 * 18


class TestLemmaE:
    def test_single_nonprincipal_orthogonality(self, field):
        ctx = field(5, 2)
        chi = make_char(ctx, 2, 1)
        rep = lemmaE_check(ctx, [chi], [ctx.from_int(3)])
        assert rep.lhs == 0.0
        assert rep.rhs == pytest.approx(1.0)

    def test_f9_quadratic_pair(self, field):
        F9 = field(3, 2)
        chi = make_char(F9, 2, 1)
        rep = lemmaE_check(F9, [chi, chi], [F9.zero(), F9.one()])
        assert rep.lhs == 1.0  # exact nine-term sum is -1
        assert rep.rhs == pytest.approx(4.0)  # sqrt(9) + 1

    def test_all_principal_refused(self, field):
        ctx = field(3, 2)
        chi0 = make_char(ctx, 2, 0)
        with pytest.raises(HypothesisNotMet):
            lemmaE_check(ctx, [chi0, chi0], [ctx.zero(), ctx.one()])

    def test_duplicate_shifts_rejected(self, field):
        ctx = field(3, 2)
        chi = make_char(ctx, 2, 1)
        with pytest.raises(ValueError):
            lemmaE_check(ctx, [chi, chi], [ctx.one(), ctx.one()])

    def test_principals_raise_the_bound_not_the_sum(self, field):
        ctx = field(5, 2)
        chi = make_char(ctx, 2, 1)
        chi0 = make_char(ctx, 1, 0)
        rep = lemmaE_check(ctx, [chi, chi0], [ctx.zero(), ctx.one()])
        assert rep.rhs == pytest.approx(0 * math.sqrt(25) + 1 + 1)  # t0 = 1
        assert rep.holds

    @pytest.mark.parametrize("q,pr", [(9, (3, 2)), (25, (5, 2)), (27, (3, 3)), (49, (7, 2))])
    def test_brute_force_cross_check(self, field, q, pr):
        ctx = field(*pr)
        rng = np.random.default_rng(q)
        divs = [d for d in range(2, 9) if (q - 1) % d == 0]
        for _ in range(5):
            t = int(rng.integers(1, min(5, q)))
            orders = [int(divs[rng.integers(0, len(divs))]) for _ in range(t)]
            indices = [int(rng.integers(1, s)) for s in orders]
            chars = [make_char(ctx, s, j) for s, j in zip(orders, indices)]
            shifts = [ctx.from_index(int(i)) for i in rng.choice(q, size=t, replace=False)]
            rep = lemmaE_check(ctx, chars, shifts)
            total = 0j
            for a in ctx.elements():
                term = 1 + 0j
                for chi, h in zip(chars, shifts):
                    term *= chi.value(a + h)
                total += term
            assert rep.lhs == pytest.approx(abs(total), abs=1e-9)
            assert rep.holds


class TestLemma1:
    def test_zero_sum_on_full_field(self, field):
        ctx = field(3, 2)
        rep = lemma1_check(ctx, [ctx.zero()], list(ctx.elements()), 1)
        assert rep.lhs == 0.0

    def test_f9_worked_example(self, field):
        F9 = field(3, 2)
        U = [F9.from_int(1), F9.from_int(2)]
        x = F9.from_poly_coords((0, 1))
        V = [x, x + x]
        rep = lemma1_check(F9, U, V, 1)
        assert rep.lhs == 4.0
        assert rep.rhs == pytest.approx(math.sqrt(168), rel=1e-14)  # sqrt(2)*sqrt(84)
        assert rep.holds

    def test_nonempty_required(self, field):
        ctx = field(3, 2)
        with pytest.raises(ValueError):
            lemma1_check(ctx, [], [ctx.one()], 1)

    @pytest.mark.parametrize("q,pr", [(25, (5, 2)), (27, (3, 3)), (121, (11, 2))])
    def test_brute_force_cross_check(self, field, euler, q, pr):
        ctx = field(*pr)
        rng = np.random.default_rng(q + 1)
        for nu in (1, 2, 3):
            su, sv = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            U = [ctx.from_index(int(i)) for i in rng.choice(q, size=su, replace=False)]
            V = [ctx.from_index(int(i)) for i in rng.choice(q, size=sv, replace=False)]
            rep = lemma1_check(ctx, U, V, nu)
            brute = abs(sum(euler(ctx, u + v) for u in U for v in V))
            assert rep.lhs == float(brute)
            assert rep.holds

    def test_euler_path_above_dlog_cap(self, field, euler):
        ctx = field(1031, 2)
        rng = np.random.default_rng(2)
        U = [ctx.from_index(int(i)) for i in rng.choice(ctx.q, size=6, replace=False)]
        V = [ctx.from_index(int(i)) for i in rng.choice(ctx.q, size=5, replace=False)]
        rep = lemma1_check(ctx, U, V, 2)
        brute = abs(sum(euler(ctx, u + v) for u in U for v in V))
        assert rep.lhs == float(brute)
        assert rep.holds


    def test_reports_match_one_check_per_nu_from_one_character_call(self, field,
                                                                   monkeypatch):
        ctx = field(7, 2)
        rng = np.random.default_rng(11)
        calls = []

        def spy(ctx, coords):
            calls.append(len(coords))
            return quad_char_coords(ctx, coords)

        for _ in range(12):
            U = [ctx.from_index(int(i)) for i in
                 rng.choice(ctx.q, size=int(rng.integers(1, 20)), replace=False)]
            V = [ctx.from_index(int(i)) for i in
                 rng.choice(ctx.q, size=int(rng.integers(1, 20)), replace=False)]
            expected = [lemma1_check(ctx, U, V, nu) for nu in (1, 2, 3, 4)]
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(oracles, "quad_char_coords", spy)
                reports = list(lemma1_reports(ctx, U, V, (1, 2, 3, 4)))
            assert calls == [len(U) * len(V)]
            assert [(r.parameters, r.lhs, r.rhs, r.holds) for r in reports] == \
                [(r.parameters, r.lhs, r.rhs, r.holds) for r in expected]

    def test_suite_counts_each_pair_once(self, monkeypatch):
        calls = []

        def spy(ctx, coords):
            calls.append(len(coords))
            return quad_char_coords(ctx, coords)

        monkeypatch.setattr(oracles, "quad_char_coords", spy)
        rows = suite_lemma1(TaskOptions(p=5, r=2, seed=3, trials=15))
        assert len(rows) == 45
        assert [row.instance.rsplit(";", 1)[1] for row in rows] == ["nu=1", "nu=2", "nu=3"] * 15
        sizes = [re.findall(r"\|[UV]\|=(\d+)", row.instance) for row in rows[::3]]
        # one character call over the |U| |V| sums of all 15 pairs
        assert calls == [sum(int(su) * int(sv) for su, sv in sizes)]


def _same_reports(got, expected):
    assert [(r.lemma, r.parameters, r.lhs, r.rhs, r.holds) for r in got] == \
        [(r.lemma, r.parameters, r.lhs, r.rhs, r.holds) for r in expected]


def _seeded_trials(ctx, rng, n, orders=None):
    """n valid lemmaE trials: t = 1..4 characters of seeded orders (divisors
    of q - 1, or the given ones), at least one non-principal, on distinct
    shifts that include the zero element about half the time."""
    divs = orders or divisors(ctx.q - 1)
    trials = []
    for _ in range(n):
        t = int(rng.integers(1, min(5, ctx.q)))
        pairs = [(int(s), int(rng.integers(0, s))) for s in rng.choice(divs, size=t)]
        if all(j % s == 0 for s, j in pairs):
            s = int(max(divs))
            pairs[-1] = (s, int(rng.integers(1, s)) if s > 1 else 0)
        shifts = rng.choice(ctx.q, size=t, replace=False)
        if rng.random() < 0.5 and 0 not in shifts:
            shifts[0] = 0
        trials.append(([make_char(ctx, s, j) for s, j in pairs],
                       [ctx.from_index(int(h)) for h in shifts]))
    return trials


class TestLemmaEBatch:
    """lemmaE_reports against one lemmaE_check per trial and against the
    per-trial, per-character oracle it replaced."""

    @pytest.mark.parametrize("pr", [(3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (3, 3), (5, 3)])
    def test_seeded_trial_lists(self, field, lemmaE_check_loop, pr):
        ctx = field(*pr)
        trials = _seeded_trials(ctx, np.random.default_rng(list(pr)), 30)
        got = list(oracles.lemmaE_reports(ctx, trials))
        _same_reports(got, [lemmaE_check(ctx, *tr) for tr in trials])
        _same_reports(got, [lemmaE_check_loop(ctx, *tr) for tr in trials])

    @pytest.mark.parametrize("block", [1, 50, 400])
    def test_chunks_give_the_same_reports(self, field, monkeypatch, lemmaE_check_loop, block):
        ctx = field(7, 2)
        trials = _seeded_trials(ctx, np.random.default_rng(block), 25)
        monkeypatch.setattr(oracles, "BLOCK", block)
        _same_reports(oracles.lemmaE_reports(ctx, trials),
                      [lemmaE_check_loop(ctx, *tr) for tr in trials])

    def test_shifts_as_indices(self, field):
        ctx = field(5, 3)
        trials = _seeded_trials(ctx, np.random.default_rng(8), 10)
        as_idx = [(chars, np.asarray([h.idx for h in shifts])) for chars, shifts in trials]
        _same_reports(oracles.lemmaE_reports(ctx, as_idx), oracles.lemmaE_reports(ctx, trials))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_generated_trial_lists(self, field, lemmaE_check_loop, data):
        ctx = field(*data.draw(st.sampled_from([(5, 2), (7, 2), (13, 2), (3, 3)])))
        divs = divisors(ctx.q - 1)
        trials = []
        for _ in range(data.draw(st.integers(1, 6))):
            t = data.draw(st.integers(1, min(4, ctx.q - 1)))
            orders = data.draw(st.lists(st.sampled_from(divs), min_size=t, max_size=t))
            chars = [make_char(ctx, s, data.draw(st.integers(0, s - 1))) for s in orders]
            if all(c.is_principal for c in chars):
                s = data.draw(st.sampled_from([d for d in divs if d > 1]))
                chars[-1] = make_char(ctx, s, data.draw(st.integers(1, s - 1)))
            shifts = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=t, max_size=t,
                                        unique=True))
            if data.draw(st.booleans()) and 0 not in shifts:
                shifts[0] = 0
            trials.append((chars, [ctx.from_index(h) for h in shifts]))
        got = list(oracles.lemmaE_reports(ctx, trials))
        _same_reports(got, [lemmaE_check_loop(ctx, *tr) for tr in trials])
        _same_reports(got, [lemmaE_check(ctx, *tr) for tr in trials])

    def test_eta_above_the_table_cap(self, field, monkeypatch, lemmaE_check_loop):
        """With the cap below q only orders 1 and 2 exist, and eta comes
        from the norm; the oracle then reads it through the norm too."""
        ctx = make_field(13, 2)
        monkeypatch.setattr(characters, "DLOG_CAP", ctx.q - 1)
        trials = _seeded_trials(ctx, np.random.default_rng(13), 12, orders=[1, 2])
        _same_reports(oracles.lemmaE_reports(ctx, trials),
                      [lemmaE_check_loop(ctx, *tr) for tr in trials])

    def test_shift_index_outside_the_field_refused(self, field):
        ctx = field(5, 2)
        chi = make_char(ctx, 4, 1)
        for shifts in ([0, 25], [-1, 3]):
            with pytest.raises(ValueError, match="outside"):
                list(oracles.lemmaE_reports(ctx, [([chi, chi], shifts)]))

    @pytest.mark.parametrize("bad,exc", [
        (lambda ctx, chi: ([chi, chi], [ctx.one()]), ValueError),
        (lambda ctx, chi: ([chi] * ctx.q, list(ctx.elements())), ValueError),
        (lambda ctx, chi: ([chi, chi], [ctx.one(), ctx.one()]), ValueError),
        (lambda ctx, chi: ([make_char(ctx, 4, 0)], [ctx.one()]), HypothesisNotMet)])
    def test_one_invalid_trial_raises_its_single_check_error(self, field, bad, exc):
        ctx = field(5, 2)
        trials = _seeded_trials(ctx, np.random.default_rng(5), 6)
        wrong = bad(ctx, make_char(ctx, 4, 1))
        with pytest.raises(exc) as single:
            lemmaE_check(ctx, *wrong)
        with pytest.raises(exc, match=re.escape(str(single.value))):
            list(oracles.lemmaE_reports(ctx, trials[:3] + [wrong] + trials[3:]))


class TestLemma1Batch:
    """lemma1_pair_reports against lemma1_reports per pair and against the
    per-pair count it replaced."""

    @staticmethod
    def _pairs(ctx, rng, n, cap=25):
        cap = min(cap, ctx.q)
        return [tuple([ctx.from_index(int(i)) for i in
                       rng.choice(ctx.q, size=int(rng.integers(1, cap + 1)), replace=False)]
                      for _ in range(2)) for _ in range(n)]

    @pytest.mark.parametrize("pr", [(3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (3, 3), (5, 3)])
    def test_seeded_pairs(self, field, lemma1_reports_loop, pr):
        ctx = field(*pr)
        pairs = self._pairs(ctx, np.random.default_rng(list(pr)), 30)
        got = list(oracles.lemma1_pair_reports(ctx, pairs, (1, 2, 3)))
        assert len(got) == len(pairs)
        for reports, (U, V) in zip(got, pairs):
            _same_reports(reports, list(lemma1_reports(ctx, U, V, (1, 2, 3))))
            _same_reports(reports, lemma1_reports_loop(ctx, U, V, (1, 2, 3)))

    @pytest.mark.parametrize("block", [1, 100, 1000])
    def test_chunks_give_the_same_reports(self, field, monkeypatch, lemma1_reports_loop, block):
        ctx = field(11, 2)
        pairs = self._pairs(ctx, np.random.default_rng(block), 20)
        monkeypatch.setattr(oracles, "BLOCK", block)
        for reports, (U, V) in zip(oracles.lemma1_pair_reports(ctx, pairs, (2,)), pairs):
            _same_reports(reports, lemma1_reports_loop(ctx, U, V, (2,)))

    def test_norm_path_above_the_table_cap(self, field, lemma1_reports_loop):
        ctx = field(1031, 2)
        pairs = self._pairs(ctx, np.random.default_rng(4), 6, cap=9)
        for reports, (U, V) in zip(oracles.lemma1_pair_reports(ctx, pairs, (1, 3)), pairs):
            _same_reports(reports, lemma1_reports_loop(ctx, U, V, (1, 3)))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_generated_pairs(self, field, lemma1_reports_loop, data):
        ctx = field(*data.draw(st.sampled_from([(3, 2), (5, 2), (13, 2), (3, 3)])))
        side = st.lists(st.integers(0, ctx.q - 1), min_size=1, max_size=min(ctx.q, 25),
                        unique=True)
        pairs = [tuple([ctx.from_index(i) for i in data.draw(side)] for _ in range(2))
                 for _ in range(data.draw(st.integers(1, 6)))]
        for reports, (U, V) in zip(oracles.lemma1_pair_reports(ctx, pairs, (1, 2)), pairs):
            _same_reports(reports, lemma1_reports_loop(ctx, U, V, (1, 2)))

    def test_index_outside_the_field_refused(self, field):
        ctx = field(5, 2)
        for U, V in [([0, 25], [1]), ([3], [-1])]:
            with pytest.raises(ValueError, match="outside"):
                list(oracles.lemma1_pair_reports(ctx, [(U, V)], (1,)))

    def test_one_empty_side_raises_its_single_check_error(self, field):
        ctx = field(5, 2)
        pairs = self._pairs(ctx, np.random.default_rng(2), 4)
        with pytest.raises(ValueError) as single:
            lemma1_check(ctx, [], [ctx.one()], 1)
        with pytest.raises(ValueError, match=re.escape(str(single.value))):
            list(oracles.lemma1_pair_reports(ctx, pairs[:2] + [([ctx.one()], [])] + pairs[2:],
                                             (1,)))


class TestSubfieldPartition:
    def test_f9_example(self, field):
        part = subfield_partition(field(3, 2), (0, 1))
        assert part == {1: [(0,)], 2: [(1,)]}

    def test_degree_one_empty_without_zero_digit(self, field):
        part = subfield_partition(field(3, 2), (1, 2))
        assert part.get(1, []) == []

    @pytest.mark.parametrize("p,r,digits", [
        (3, 2, (0, 1, 2)), (5, 2, (0, 2, 3)), (3, 3, (1, 2)), (5, 3, (0, 1, 4)),
        (3, 4, (0, 2)), (5, 4, (1, 3)),
    ])
    def test_bookkeeping_invariants(self, field, p, r, digits):
        part = subfield_partition(field(p, r), digits)
        assert sum(len(v) for v in part.values()) == len(digits) ** (r - 1)
        assert all(r % d == 0 for d in part)
        if 0 in digits:
            assert part.get(1) == [tuple([0] * (r - 1))]
        else:
            assert part.get(1, []) == []

    def test_prime_degree_keys(self, field):
        part = subfield_partition(field(3, 3), (0, 1, 2))
        assert set(part) <= {1, 3}

    def test_matches_scalar_degree_loop(self, field, scalar_degree):
        # independent route: evaluate each tuple with scalar arithmetic
        ctx = field(5, 2)
        digits = (0, 1, 3)
        part = subfield_partition(ctx, digits)
        x = ctx.from_poly_coords((0, 1))  # b_2 = a_2 / a_1 = x under the default basis
        for d, tuples in part.items():
            for (c2,) in tuples:
                assert scalar_degree(ctx.from_int(c2) * x) == d

    def test_basis_normalisation_invariance(self, field):
        # two bases sharing a_1 induce the same class cardinalities
        ctx = field(3, 3)
        x = ctx.from_poly_coords((0, 1))
        b1 = [ctx.one(), x, x * x]
        b2 = [ctx.one(), x * x, x]
        digits = (0, 1, 2)
        sizes1 = {d: len(v) for d, v in subfield_partition(ctx, digits, basis=b1).items()}
        sizes2 = {d: len(v) for d, v in subfield_partition(ctx, digits, basis=b2).items()}
        assert sizes1 == sizes2

    def test_needs_r_at_least_two(self, field):
        with pytest.raises(ValueError):
            subfield_partition(field(5, 1), (0, 1))

    def test_dependent_basis_raises(self, field):
        ctx = field(3, 3)
        x = ctx.from_poly_coords((0, 1, 0))
        with pytest.raises(ValueError):
            subfield_partition(ctx, (0, 1), basis=[ctx.one(), x, x + 1])

    @staticmethod
    def scalar_partition(ctx, digits, basis, degree):
        """Reference: each tuple of D^{r-1} in lex order, its degree by scalar arithmetic."""
        a1_inv = basis[0].inv()
        b = [a1_inv * a for a in basis[1:]]
        out = {}
        for tup in itertools.product(sorted(set(digits)), repeat=ctx.r - 1):
            y = ctx.zero()
            for c, bj in zip(tup, b):
                y = y + c * bj
            out.setdefault(degree(y), []).append(tup)
        return out

    def test_matches_scalar_reference_on_seeded_cases(self, field, scalar_degree):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            p = int(rng.choice([3, 5, 7, 11, 13]))
            r = int(rng.integers(2, 5))
            ctx = field(p, r)
            size = int(rng.integers(1, min(p, int(300 ** (1 / (r - 1)))) + 1))
            digits = tuple(int(c) for c in rng.choice(p, size=size, replace=False))
            while True:  # a random basis; most draws are independent
                basis = [ctx.from_index(int(i)) for i in rng.integers(1, ctx.q, size=r)]
                try:
                    ctx.with_basis(basis)
                    break
                except ValueError:
                    continue
            want = self.scalar_partition(ctx, digits, basis, scalar_degree)
            assert subfield_partition(ctx, digits, basis=basis) == want  # lists keep order
            installed = [ctx.from_index(b) for b in ctx.basis_indices]
            assert subfield_partition(ctx, digits) == self.scalar_partition(
                ctx, digits, installed, scalar_degree)

    def test_blocks_stream_into_one_partition(self, field, monkeypatch):
        ctx = field(5, 4)
        whole = subfield_partition(ctx, (0, 1, 3, 4))
        monkeypatch.setattr(oracles, "coords_blocks", lambda box: boxes.coords_blocks(box, 7))
        assert subfield_partition(ctx, (0, 1, 3, 4)) == whole

    def test_budget(self, field):
        with pytest.raises(BudgetExceeded):
            subfield_partition(field(5, 3), (0, 1, 2, 3, 4), budget=10)


# the energy tests draw fields from both sides of the 2^20 table cap
ENERGY_FIELDS = [(5, 1), (7, 2), (3, 3), (13, 2), (101, 3), (1031, 2), (37, 4)]
# (p, r, offset, h) -> energy of the cubic box, recorded with the discrete-log
# path below the cap and the scalar Counter loop above it
PINNED_ENERGIES = {
    (7, 2, 6, 3): 461, (13, 2, 0, 3): 161, (101, 3, 0, 4): 9656,
    (1031, 2, 0, 4): 588, (1031, 2, 1030, 3): 449, (37, 4, 36, 2): 1616,
}


def brute_energy(ctx, elems):
    """O(n^4) oracle: count quadruples x1 x2 = x3 x4 directly."""
    count = 0
    for x1 in elems:
        for x2 in elems:
            lhs = x1 * x2
            for x3 in elems:
                for x4 in elems:
                    if lhs == x3 * x4:
                        count += 1
    return count


class TestEnergy:
    def test_singleton(self, field):
        ctx = field(5, 1)
        rep = energy_count(DigitBox(ctx, ((1,),)))
        assert rep.energy == 1

    def test_f5_spot_value(self, field):
        ctx = field(5, 1)
        rep = energy_count(DigitBox(ctx, ((1, 2),)))
        assert rep.energy == 6
        assert rep.trivial_lower == 4

    @pytest.mark.parametrize("p,r,digits", [
        (5, 1, (0, 1, 2)), (7, 1, (1, 2, 4)), (3, 2, (0, 1)), (5, 2, (1, 2)),
    ])
    def test_quadruple_brute_force_cross_check(self, field, p, r, digits):
        ctx = field(p, r)
        box = DigitBox.uniform(ctx, digits) if r > 1 else DigitBox(ctx, (digits,))
        elems = list(enumerate_box(box))
        rep = energy_count(box)
        assert rep.energy == brute_energy(ctx, elems)

    def test_scaling_invariance(self, field):
        # E(cB) = E(B): recompute the scaled set's energy by brute force
        ctx = field(7, 1)
        box = DigitBox(ctx, ((1, 2, 5),))
        rep = energy_count(box)
        c = ctx.from_int(3)
        scaled = [c * e for e in enumerate_box(box)]
        assert brute_energy(ctx, scaled) == rep.energy

    def test_interval_hypothesis_flag(self, field):
        ctx = field(11, 2)
        inside = energy_count(IntervalBox(ctx, (0, 0), (3, 3)))
        assert inside.within_lemma_hypothesis  # 3^2 = 9 <= 11
        outside = energy_count(IntervalBox(ctx, (0, 0), (4, 4)))
        assert not outside.within_lemma_hypothesis
        unequal = energy_count(IntervalBox(ctx, (0, 0), (2, 3)))
        assert not unequal.within_lemma_hypothesis

    def test_budget(self, field):
        ctx = field(11, 2)
        with pytest.raises(BudgetExceeded):
            energy_count(IntervalBox(ctx, (0, 0), (3, 3)), budget=10)

    def test_zero_in_box(self, field):
        ctx = field(5, 1)
        box = DigitBox(ctx, ((0, 1, 2),))
        rep = energy_count(box)
        assert rep.energy == brute_energy(ctx, list(enumerate_box(box)))

    def test_counter_fallback_above_dlog_cap(self, field):
        # q > 2^20, where the count once left discrete logs for a scalar
        # Counter loop; the kernel product stream is the same on both sides
        ctx = field(1031, 2)
        box = IntervalBox(ctx, (0, 0), (3, 3))
        rep = energy_count(box)
        assert rep.energy == brute_energy(ctx, list(enumerate_box(box)))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_hypothesis_boxes_match_brute_force(self, field, data):
        # fields on both sides of the 2^20 table cap; at most 8 elements,
        # so the O(n^4) oracle stays cheap
        p, r = data.draw(st.sampled_from(ENERGY_FIELDS))
        ctx = field(p, r)
        zero = data.draw(st.booleans())
        if data.draw(st.booleans()):
            sets, n = [], 1
            for _ in range(r):
                most = max(1, min(3, 8 // n))
                s = data.draw(st.sets(st.integers(int(zero), p - 1), min_size=1 - zero,
                                      max_size=most - zero))
                sets.append(tuple(s | {0}) if zero else tuple(s))
                n *= len(sets[-1])
            box = DigitBox(ctx, tuple(sets))
        else:
            lengths = data.draw(st.sampled_from([(1,) * r, (2,) + (1,) * (r - 1),
                                                 (2, 2) + (1,) * (r - 2) if r > 1 else (3,)]))
            # offset p - 1 starts a window at 0, so zero lands in the box
            offsets = [p - 1 if zero else data.draw(st.integers(0, p - 1)) for _ in range(r)]
            box = IntervalBox(ctx, tuple(offsets), lengths)
        assert box.contains_zero() or not zero
        rep = energy_count(box)
        assert rep.energy == brute_energy(ctx, list(enumerate_box(box)))

    def test_f101_20_boxes(self, field, monkeypatch):
        # q >= 2^62: element indices are Python ints in object arrays
        ctx = field(101, 20)
        assert energy_count(DigitBox.uniform(ctx, (1,))).energy == 1
        box = DigitBox(ctx, ((1, 2), (0, 5)) + ((0,),) * 18)
        energy = brute_energy(ctx, list(enumerate_box(box)))
        assert energy_count(box).energy == energy
        assert energy_count(DigitBox(ctx, ((0, 1),) + ((0,),) * 19)).energy == 10
        monkeypatch.setattr(oracles, "PAIR_CHUNK", 1)  # merge object arrays too
        assert energy_count(box).energy == energy

    def test_no_discrete_logs_or_scalar_products(self, monkeypatch):
        # energies recorded with the discrete-log / Counter fork; fresh fields,
        # so no table built earlier can answer
        def refuse(*args, **kwargs):
            raise AssertionError("energy_count must not need this")
        for name in ("dlog_table", "field_generator"):
            monkeypatch.setattr(characters, name, refuse)
        monkeypatch.setattr(FieldCtx, "mul_idx", refuse)
        for (p, r, offset, h), energy in PINNED_ENERGIES.items():
            box = IntervalBox(make_field(p, r), (offset,) * r, (h,) * r)
            assert energy_count(box).energy == energy, (p, r, offset, h)

    @pytest.mark.parametrize("chunk", [1, 7, 200])
    def test_chunks_merge_into_one_count(self, field, monkeypatch, chunk):
        # one left factor (or a few) per kernel call: every product count
        # goes through the sorted merge
        monkeypatch.setattr(oracles, "PAIR_CHUNK", chunk)
        for (p, r, offset, h), energy in PINNED_ENERGIES.items():
            box = IntervalBox(field(p, r), (offset,) * r, (h,) * r)
            assert energy_count(box).energy == energy, (p, r, offset, h)

    def test_f101_4_side_7(self, field):
        # 2 401 elements and 2.76 million distinct products in 45 kernel
        # calls: the held pair is merged a handful of times, not once a call
        merges = []
        real = oracles._merge_counts

        def counted(pairs):
            merges.append(len(pairs))
            real(pairs)

        box = IntervalBox(field(101, 4), (0,) * 4, (7,) * 4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracles, "_merge_counts", counted)
            assert energy_count(box).energy == 12643769
        assert sum(merges) - len(merges) == 45 and len(merges) <= 8

    def test_peak_memory(self, field):
        # 390 625 ordered pairs in 3 chunks; the discrete-log path peaked at
        # 31.2 MiB here
        box = IntervalBox(field(31, 4), (0,) * 4, (5,) * 4)
        tracemalloc.start()
        try:
            energy = energy_count(box).energy
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert energy == 1009833
        assert peak < 20 << 20


class TestDeltaH:
    def test_unit_boxes_reach_one(self, field):
        for p in (3, 5, 7):
            ctx = field(p, 1)
            rep = delta_H(ctx, 1, make_char(ctx, 2, 1))
            assert rep.delta == pytest.approx(1.0)

    def test_never_exceeds_one(self, field):
        ctx = field(5, 2)
        for h in (1, 2):
            rep = delta_H(ctx, h, make_char(ctx, 2, 1))
            assert rep.delta <= 1.0 + 1e-12

    def test_f25_h2_frozen_value(self, field):
        # brute-forced independently: an all-nonresidue 2x2 box exists
        ctx = field(5, 2)
        rep = delta_H(ctx, 2, make_char(ctx, 2, 1))
        assert rep.delta == pytest.approx(1.0)
        assert rep.best_box.lengths == (2, 2)

    def test_budget(self, field):
        ctx = field(5, 2)
        with pytest.raises(BudgetExceeded):
            delta_H(ctx, 2, make_char(ctx, 2, 1), budget=100)

    def test_witness_box_attains_the_maximum(self, field):
        from digitsquares import char_sum
        ctx = field(7, 1)
        chi = make_char(ctx, 2, 1)
        rep = delta_H(ctx, 2, chi)
        total = char_sum(chi, enumerate_box(rep.best_box))
        assert abs(total.value_int()) / rep.best_box.size() == pytest.approx(rep.delta)

    CHARS = ((1, 0), (2, 0), (2, 1))
    # every (p, r, H) with p <= 13, r <= 3 whose search spans at most 4000 boxes
    CASES = [(p, r, h) for p in (3, 5, 7, 11, 13) for r in (1, 2, 3)
             for h in range(1, p + 1) if (p * (min(2 * h, p) - h + 1)) ** r <= 4000]

    @staticmethod
    def rebased(ctx, seed):
        rng = np.random.default_rng(seed)
        while True:  # a random basis; most draws are independent
            try:
                return ctx.with_basis([ctx.from_index(int(i))
                                       for i in rng.integers(1, ctx.q, size=ctx.r)])
            except ValueError:
                continue

    @staticmethod
    def assert_matches_loop(ctx, h, order, index, delta_H_loop):
        chi = make_char(ctx, order, index)
        got, want = delta_H(ctx, h, chi), delta_H_loop(ctx, h, chi)
        assert got.delta == want.delta
        assert got.best_box == want.best_box
        assert got.best_box.describe() == want.best_box.describe()
        assert got.n_boxes == want.n_boxes

    @pytest.mark.parametrize("p,r,h", [(3, 1, 1), (13, 1, 4), (3, 2, 2), (5, 2, 2),
                                       (7, 2, 3), (13, 2, 13), (3, 3, 1), (5, 3, 5)])
    def test_matches_the_box_loop_seeded(self, field, delta_H_loop, p, r, h):
        ctx = field(p, r)
        for seed in (None, 11, 12):
            bctx = ctx if seed is None else self.rebased(ctx, seed)
            for order, index in self.CHARS:
                self.assert_matches_loop(bctx, h, order, index, delta_H_loop)

    @settings(max_examples=25, deadline=None)
    @given(case=st.sampled_from(CASES), char=st.sampled_from(CHARS),
           seed=st.none() | st.integers(0, 2 ** 16))
    def test_matches_the_box_loop(self, field, delta_H_loop, case, char, seed):
        p, r, h = case
        ctx = field(p, r) if seed is None else self.rebased(field(p, r), seed)
        self.assert_matches_loop(ctx, h, *char, delta_H_loop)

    def test_order_above_two_raises(self, field):
        ctx = field(7, 1)
        with pytest.raises(ValueError):
            delta_H(ctx, 2, make_char(ctx, 3, 1))

    @pytest.mark.parametrize("p,r,h", [(13, 1, 4), (7, 2, 3), (5, 3, 2)])
    def test_polynomial_basis_reads_the_table_view(self, field, monkeypatch, p, r, h):
        # under the polynomial basis, eta_tensor is a view of the quad table:
        # no coordinate row is mapped to poly coordinates or evaluated
        ctx = field(p, r)
        chi = make_char(ctx, 2, 1)
        want = delta_H(ctx, h, chi)

        def spy(*args, **kwargs):
            raise AssertionError("delta_H evaluated eta row by row")
        for module in (characters, oracles):
            for name in ("quad_char_coords", "vec_from_coords"):
                monkeypatch.setattr(module, name, spy)
        assert delta_H(ctx, h, chi) == want

    def test_large_prime_line_matches_direct_window_sums(self, field):
        # r = 1 with a large p: every window sum read directly from the
        # Legendre symbols, and a memory peak far below a p x p table
        p, h = 10007, 1
        ctx = field(p, 1)
        chi = make_char(ctx, 2, 1)
        characters.quad_table(ctx)
        tracemalloc.start()
        try:
            rep = delta_H(ctx, h, chi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        coords = np.arange(p, dtype=np.int64)[:, None]
        eta = quad_char_coords(ctx, coords @ ctx.basis_matrix.T % p).astype(np.int64)
        best = None
        for side in (1, 2):
            starts = np.arange(p)
            sums = sum(eta[(starts + 1 + k) % p] for k in range(side))
            ratios = np.abs(sums) / side
            n = int(ratios.argmax())
            if best is None or ratios[n] > best[0]:
                best = (float(ratios[n]), IntervalBox(ctx, (n,), (side,)))
        assert (rep.delta, rep.best_box) == best
        assert rep.n_boxes == 2 * p
        assert peak < 2 ** 22
