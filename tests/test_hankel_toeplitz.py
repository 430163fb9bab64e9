"""Hankel and Toeplitz determinants of the moment sequence."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlbp.combinat import binomial, catalan
from riordanlbp.hankel_toeplitz import (
    BiInfiniteMoments,
    determinant,
    extend_moments,
    hankel_closed_form,
    hankel_transform,
    lbp_by_determinant,
    recover_parameters,
    toeplitz_closed_form,
    toeplitz_dets,
)
from riordanlbp.lbp import LBPFamily, moments, rows_by_recurrence
from riordanlbp.scalars import PARAM_B, PARAM_C, coerce_scalar, scalar_inv

nonzero_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
).filter(lambda q: q != 0)

param_pairs = st.tuples(nonzero_fractions, nonzero_fractions).filter(
    lambda bc: bc[0] + bc[1] != 0
)


def naive_det(rows):
    """Leibniz expansion, for cross-checking small matrices."""
    n = len(rows)
    total = coerce_scalar(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = coerce_scalar(sign)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


class TestDeterminant:
    def test_fraction_fast_path(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
        assert determinant(rows) == Fraction(-2)

    def test_singular(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert determinant(rows) == 0

    def test_pivot_swap(self):
        rows = [
            [Fraction(0), Fraction(1)],
            [Fraction(1), Fraction(0)],
        ]
        assert determinant(rows) == Fraction(-1)

    def test_symbolic_matches_leibniz(self):
        b, c = PARAM_B, PARAM_C
        rows = [
            [b, c, b + c],
            [c, b * c, b],
            [b + c, b, c * c],
        ]
        assert not (determinant(rows) - naive_det(rows))

    def test_rational_function_entries(self):
        b, c = PARAM_B, PARAM_C
        rows = [
            [b / c, 1 / (b + c)],
            [c / b, b / (b + c)],
        ]
        assert not (determinant(rows) - naive_det(rows))

    @given(
        st.lists(
            st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2),
                     min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_random_matches_leibniz(self, raw):
        rows = [[coerce_scalar(v) for v in row] for row in raw]
        assert determinant(rows) == naive_det(rows)


class TestHankel:
    def test_symbolic_closed_form(self):
        mu = moments(LBPFamily.constant(PARAM_B, PARAM_C, order=11), n_max=11)
        got = hankel_transform(list(mu), 5)
        expected = hankel_closed_form(PARAM_B, PARAM_C, 5)
        for n in range(6):
            assert not (got[n] - expected[n]), n

    def test_unit_values(self):
        mu = moments(LBPFamily.constant(1, 1, order=11), n_max=11)
        got = hankel_transform(list(mu), 5)
        assert got == [coerce_scalar(2 ** binomial(n, 2)) for n in range(6)]

    @given(nonzero_fractions)
    @settings(max_examples=15, deadline=None)
    def test_vanishing_locus(self, bv):
        # at c = -b the factor b(b+c) vanishes, so h_n = 0 from n = 2 on
        cv = -bv
        mu = moments(LBPFamily.constant(bv, cv, order=10), "gf_expansion", 10)
        got = hankel_transform(list(mu), 5)
        assert got == hankel_closed_form(bv, cv, 5)
        assert got == [1, bv * cv, 0, 0, 0, 0]

    def test_catalan_hankel_is_all_ones(self):
        got = hankel_transform([catalan(n) for n in range(11)], 5)
        assert got == [coerce_scalar(1)] * 6

    def test_insufficient_moments_rejected(self):
        with pytest.raises(ValueError):
            hankel_transform([1, 1, 2], 2)

    @given(param_pairs)
    @settings(max_examples=10, deadline=None)
    def test_closed_form_numeric(self, bc):
        bv, cv = bc
        mu = moments(LBPFamily.constant(bv, cv, order=9), n_max=9)
        assert hankel_transform(list(mu), 4) == hankel_closed_form(bv, cv, 4)


class TestBiInfiniteMoments:
    def test_backward_values_unit_family(self):
        mu = moments(LBPFamily.constant(1, 1, order=8), n_max=8)
        bm = extend_moments(list(mu), 1, 3)
        assert bm.moment(-1) == coerce_scalar(2)
        assert bm.moment(-2) == coerce_scalar(6)
        assert bm.moment(0) == coerce_scalar(1)
        assert bm.moment(3) == coerce_scalar(6)

    def test_backward_value_symbolic(self):
        b, c = PARAM_B, PARAM_C
        mu = moments(LBPFamily.constant(b, c, order=6), n_max=6)
        bm = extend_moments(list(mu), c, 2)
        assert not (bm.moment(-1) - (b + c) / (c * c))

    def test_defining_relation_validated(self):
        with pytest.raises(ValueError):
            BiInfiniteMoments((1, 1, 2, 6), (coerce_scalar(5),), 1)

    def test_out_of_range_access(self):
        bm = extend_moments([1, 1, 2, 6], 1, 1)
        with pytest.raises(IndexError):
            bm.moment(-2)
        with pytest.raises(IndexError):
            bm.moment(9)

    def test_zero_c_rejected(self):
        with pytest.raises(ValueError):
            extend_moments([1, 0, 0, 0], 0, 1)


class TestToeplitz:
    def unit_bm(self, depth=6):
        mu = moments(LBPFamily.constant(1, 1, order=2 * depth + 2), n_max=2 * depth + 2)
        return extend_moments(list(mu), 1, depth)

    def test_unit_values(self):
        t_seq, tp_seq = toeplitz_dets(self.unit_bm(), 4)
        assert t_seq == [coerce_scalar(v) for v in (1, -1, -1, 1, 1)]
        assert tp_seq == [coerce_scalar(v) for v in (1, -1, -1, 1, 1)]

    def test_symbolic_closed_form(self):
        b, c = PARAM_B, PARAM_C
        mu = moments(LBPFamily.constant(b, c, order=12), n_max=12)
        bm = extend_moments(list(mu), c, 5)
        t_seq, _ = toeplitz_dets(bm, 5)
        expected = toeplitz_closed_form(b, c, 5)
        for n in range(6):
            assert not (t_seq[n] - expected[n]), n

    def test_shifted_determinant_values(self):
        b, c = PARAM_B, PARAM_C
        mu = moments(LBPFamily.constant(b, c, order=10), n_max=10)
        bm = extend_moments(list(mu), c, 4)
        _, tp_seq = toeplitz_dets(bm, 3)
        expected = [
            c,
            -b * c,
            -(b ** 3),
            b ** 6 / (c * c),
        ]
        for n in range(4):
            assert not (tp_seq[n] - expected[n]), n

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            toeplitz_dets(self.unit_bm(depth=2), 4)


class TestRecovery:
    def test_symbolic(self):
        b, c = PARAM_B, PARAM_C
        mu = moments(LBPFamily.constant(b, c, order=12), n_max=12)
        bm = extend_moments(list(mu), c, 5)
        t_seq, tp_seq = toeplitz_dets(bm, 5)
        for n in range(1, 5):
            got_b, got_c = recover_parameters(t_seq, tp_seq, n)
            assert not (got_b - b), n
            assert not (got_c - c), n

    @given(param_pairs)
    @settings(max_examples=10, deadline=None)
    def test_numeric(self, bc):
        bv, cv = bc
        mu = moments(LBPFamily.constant(bv, cv, order=8), n_max=8)
        bm = extend_moments(list(mu), cv, 3)
        t_seq, tp_seq = toeplitz_dets(bm, 3)
        got_b, got_c = recover_parameters(t_seq, tp_seq, 1)
        assert got_b == coerce_scalar(bv)
        assert got_c == coerce_scalar(cv)

    def test_index_guards(self):
        with pytest.raises(ValueError):
            recover_parameters([1, 1], [1, 1], 0)
        with pytest.raises(ValueError):
            recover_parameters([1, 1], [1, 1], 1)


class TestDeterminantalPolynomials:
    def test_matches_recurrence_symbolically(self):
        b, c = PARAM_B, PARAM_C
        fam = LBPFamily.constant(b, c, order=12)
        mu = moments(fam, n_max=12)
        bm = extend_moments(list(mu), c, 5)
        expected = rows_by_recurrence(fam, 5)
        for n in range(6):
            got = lbp_by_determinant(bm, n)
            assert len(got) == n + 1
            for k in range(n + 1):
                assert not (got[k] - expected[n][k]), (n, k)

    @given(param_pairs)
    @settings(max_examples=8, deadline=None)
    def test_matches_recurrence_numerically(self, bc):
        bv, cv = bc
        fam = LBPFamily.constant(bv, cv, order=10)
        mu = moments(fam, n_max=10)
        bm = extend_moments(list(mu), cv, 4)
        expected = rows_by_recurrence(fam, 4)
        for n in range(5):
            assert lbp_by_determinant(bm, n) == expected[n], n

    def test_depth_guard(self):
        bm = extend_moments([1, 1, 2, 6], 1, 1)
        with pytest.raises(ValueError):
            lbp_by_determinant(bm, 4)
