"""Riordan arrays: matrix realization, group law, production matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlbp.combinat import binomial
from riordanlbp.lbp import LBPFamily, coefficient_matrix
from riordanlbp.riordan import (
    LowerTriangularMatrix,
    RiordanArray,
    binomial_array,
    has_column_shift,
    production_matrix,
    production_of_inverse,
)
from riordanlbp.scalars import PARAM_B, PARAM_C, coerce_scalar
from riordanlbp.series import TruncatedSeries

ORDER = 8


def pascal(order=ORDER):
    return binomial_array(1, order=order)


def random_array(g_tail, f_tail, order=ORDER):
    """Proper array from free coefficient tails: g(0)=1, f(0)=0, f'(0)=1."""
    g = TruncatedSeries(
        [coerce_scalar(1)] + [coerce_scalar(v) for v in g_tail], order=order
    )
    f = TruncatedSeries(
        [coerce_scalar(0), coerce_scalar(1)] + [coerce_scalar(v) for v in f_tail],
        order=order,
    )
    return RiordanArray(g, f)


tails = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
    min_size=0,
    max_size=4,
)


class TestLowerTriangularMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LowerTriangularMatrix([[1, 2]])

    def test_multiply_against_hand_product(self):
        a = LowerTriangularMatrix([[1], [1, 1], [1, 2, 1]])
        got = a * a
        assert got == LowerTriangularMatrix([[1], [2, 1], [4, 4, 1]])

    def test_inverse_round_trip(self):
        a = pascal().matrix(6)
        ident = RiordanArray(TruncatedSeries([1], ORDER),
                             TruncatedSeries.identity(ORDER)).matrix(6)
        assert a * a.inverse() == ident
        assert a.inverse() * a == ident

    def test_inverse_with_unit_and_non_unit_diagonal_entries(self):
        # unit diagonal entries skip their products; the others must not
        m = LowerTriangularMatrix([[1], [3, Fraction(1, 2)], [-2, 5, 1], [1, 0, 4, -3]])
        ident = LowerTriangularMatrix([[1], [0, 1], [0, 0, 1], [0, 0, 0, 1]])
        assert m * m.inverse() == ident
        assert [m.inverse_column(j) for j in range(4)] == [
            [m.inverse().rows[i][j] for i in range(j, 4)] for j in range(4)]
        assert production_of_inverse(m) == production_matrix(m.inverse())

    def test_inverse_requires_unit_diagonal(self):
        m = LowerTriangularMatrix([[coerce_scalar(1)], [coerce_scalar(1), coerce_scalar(0)]])
        with pytest.raises(ZeroDivisionError):
            m.inverse()

    @pytest.mark.parametrize("n, k", [(2, -1), (-1, 0), (3, 0), (0, 3)])
    def test_entry_outside_the_block_is_named(self, n, k):
        m = LowerTriangularMatrix([[1], [2, 3], [4, 5, 6]])
        with pytest.raises(IndexError, match=rf"entry \({n}, {k}\) outside the 3 x 3 block"):
            m.entry(n, k)

    def test_entry_above_the_diagonal_is_zero(self):
        assert LowerTriangularMatrix([[1], [2, 3], [4, 5, 6]]).entry(0, 2) == 0

    @pytest.mark.parametrize("j", [-1, 3])
    def test_inverse_column_outside_the_block_is_named(self, j):
        m = LowerTriangularMatrix([[Fraction(1)], [Fraction(2), Fraction(1)],
                                   [Fraction(3), Fraction(4), Fraction(1)]])
        with pytest.raises(IndexError, match=rf"column {j} outside the 3 x 3 block"):
            m.inverse_column(j)


class TestRiordanArray:
    def test_pascal_entries(self):
        a = pascal().matrix(7)
        for n in range(7):
            for k in range(n + 1):
                assert a.entry(n, k) == coerce_scalar(binomial(n, k))

    def test_entries_only_through_the_block(self):
        # matrix() holds the one column product g * f^k
        assert not hasattr(RiordanArray, "entry")

    def test_constructor_rejects_improper_pairs(self):
        t = TruncatedSeries.identity(order=4)
        one = TruncatedSeries.constant(1, order=4)
        with pytest.raises(ValueError):
            RiordanArray(t, t)  # g(0) = 0
        with pytest.raises(ValueError):
            RiordanArray(one, one)  # f(0) != 0

    def test_group_law_matches_matrix_product(self):
        a = pascal()
        b = random_array([2, -1], [1, 0, 3])
        assert (a * b).matrix(6) == a.matrix(6) * b.matrix(6)

    @given(tails, tails, tails, tails)
    @settings(max_examples=25, deadline=None)
    def test_group_law_matches_matrix_product_random(self, g1, f1, g2, f2):
        a = random_array(g1, f1)
        b = random_array(g2, f2)
        assert (a * b).matrix(5) == a.matrix(5) * b.matrix(5)

    @given(tails, tails)
    @settings(max_examples=25, deadline=None)
    def test_inverse_round_trip(self, g_tail, f_tail):
        a = random_array(g_tail, f_tail)
        ident = RiordanArray(TruncatedSeries([1], ORDER), TruncatedSeries.identity(ORDER))
        assert a * a.inverse() == ident
        assert a.inverse() * a == ident

    def test_matrix_inverse_agrees_with_group_inverse(self):
        a = random_array([1, 1], [2])
        assert a.inverse().matrix(6) == a.matrix(6).inverse()

    def test_binomial_array_inverse_negates_parameter(self):
        assert binomial_array(3, order=ORDER).inverse() == binomial_array(
            -3, order=ORDER
        )


class TestProductionMatrix:
    def test_pascal_production_is_bidiagonal(self):
        p = production_matrix(pascal().matrix(7))
        for i, row in enumerate(p):
            for k, value in enumerate(row):
                expected = 1 if k in (i, i + 1) else 0
                assert value == coerce_scalar(expected), (i, k)

    def test_usable_dimension_is_one_less(self):
        p = production_matrix(pascal().matrix(7))
        assert len(p) == 6
        assert all(len(row) == 6 for row in p)

    def test_reconstructs_next_row(self):
        # row n+1 of the array is row n pushed through the production block
        m = random_array([1, -2, 1], [3, 0, -1]).matrix(7)
        p = production_matrix(m)
        for n in range(5):
            got = [
                sum(
                    (m.entry(n, j) * p[j][k] for j in range(n + 1)),
                    start=coerce_scalar(0),
                )
                for k in range(n + 2)
            ]
            expected = [m.entry(n + 1, k) for k in range(n + 2)]
            assert got == expected

    def test_column_shift_detection(self):
        assert has_column_shift(production_matrix(pascal().matrix(7)))
        # Pascal squared is still Riordan, shift must hold
        sq = pascal().matrix(7) * pascal().matrix(7)
        assert has_column_shift(production_matrix(sq))

    def test_column_shift_rejects_tiny_blocks(self):
        with pytest.raises(ValueError):
            has_column_shift(production_matrix(pascal().matrix(2)))

    def test_zero_last_diagonal_entry_is_named(self):
        rows = ([1], [1, 1], [1, 2, 0])
        m = LowerTriangularMatrix([[Fraction(v) for v in row] for row in rows])
        with pytest.raises(ZeroDivisionError, match="zero diagonal entry at 2"):
            production_matrix(m)


def forward_solve_production(lower):
    """Reference: solve M X = (M minus its top row) for M = lower^-1 by
    forward substitution, the definition of the production matrix of M."""
    m = lower.inverse()
    dim = m.dim - 1
    zero = m.rows[0][0] * 0
    out = [[zero] * dim for _ in range(dim)]
    for j in range(dim):
        for i in range(dim):
            acc = m.entry(i + 1, j)
            for k in range(i):
                acc = acc - m.entry(i, k) * out[k][j]
            out[i][j] = acc / m.rows[i][i]
    return out


PRODUCTION_BLOCKS = {
    "rational": lambda: coefficient_matrix(
        LBPFamily.constant(Fraction(3, 2), Fraction(-1, 3), order=8), 9),
    "symbolic": lambda: coefficient_matrix(LBPFamily.constant(PARAM_B, PARAM_C, order=7), 8),
    "periodic": lambda: coefficient_matrix(LBPFamily.periodic([1, 2], [1], order=8), 9),
    "b+c=0": lambda: coefficient_matrix(LBPFamily.constant(1, -1, order=8), 9),
    "2b+c=0": lambda: coefficient_matrix(LBPFamily.constant(1, -2, order=8), 9),
    # g(0) = 2 and f'(0) = 3: no entry of the diagonal is 1
    "non-monic": lambda: RiordanArray(
        TruncatedSeries([coerce_scalar(v) for v in (2, -1, 1, 3)], order=ORDER),
        TruncatedSeries([coerce_scalar(v) for v in (0, 3, 1, -2)], order=ORDER),
    ).matrix(8),
}


class TestProductionOfInverse:
    @pytest.mark.parametrize("name", sorted(PRODUCTION_BLOCKS))
    def test_matches_forward_solve_of_the_inverse(self, name):
        block = PRODUCTION_BLOCKS[name]()
        assert production_of_inverse(block) == forward_solve_production(block)

    @pytest.mark.parametrize("name", sorted(PRODUCTION_BLOCKS))
    def test_production_matrix_is_the_production_of_its_inverse(self, name):
        block = PRODUCTION_BLOCKS[name]()
        assert production_matrix(block) == forward_solve_production(block.inverse())

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="^dim must be at least 2, got 1$"):
            production_of_inverse(LowerTriangularMatrix([[1]]))
