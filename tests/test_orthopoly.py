"""Companion orthogonal families and the array factorizations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlbp.cfrac import moment_jfraction
from riordanlbp.combinat import binomial
from riordanlbp.lbp import LBPFamily, moments, rows_by_recurrence
from riordanlbp.orthopoly import (
    ORTHO_KINDS,
    ortho_array,
    ortho_inverse_f_closed_form,
    ortho_rows_by_recurrence,
    verify_factorizations,
)
from riordanlbp.riordan import production_of_inverse
from riordanlbp.scalars import PARAM_B, PARAM_C, coerce_scalar
from riordanlbp.series import TruncatedSeries

nonzero_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
).filter(lambda q: q != 0)

param_pairs = st.tuples(nonzero_fractions, nonzero_fractions).filter(
    lambda bc: bc[0] + bc[1] != 0
)


def horner(coeffs, x):
    """Value at x of the polynomial with ascending coefficient list coeffs."""
    acc = 0
    for coeff in reversed(coeffs):
        acc = acc * x + coeff
    return acc


class TestRowsByRecurrence:
    def test_degree_one_rows(self):
        b, c = PARAM_B, PARAM_C
        firsts = {"q": c, "qtilde": b + c, "qhat": 2 * b + c}
        for kind, first in firsts.items():
            row = ortho_rows_by_recurrence(kind, b, c, 1)[1]
            assert not (row[0] + first)
            assert not (row[1] - 1)

    def test_q_degree_two_row(self):
        b, c = PARAM_B, PARAM_C
        row = ortho_rows_by_recurrence("q", b, c, 2)[2]
        assert not (row[0] - c * (b + c))
        assert not (row[1] + 2 * (b + c))
        assert not (row[2] - 1)

    @pytest.mark.parametrize("kind", ORTHO_KINDS)
    @given(param_pairs, st.fractions(min_value=-5, max_value=5, max_denominator=4))
    @settings(max_examples=20, deadline=None)
    def test_rows_evaluate_like_the_scalar_recurrence(self, kind, bc, x):
        b, c = bc
        first = {"q": c, "qtilde": b + c, "qhat": 2 * b + c}[kind]
        values = [Fraction(1), x - first]
        if kind == "q":
            values.append(x * x - 2 * (b + c) * x + c * (b + c))
        while len(values) < 8:
            values.append((x - (2 * b + c)) * values[-1] - b * (b + c) * values[-2])
        rows = ortho_rows_by_recurrence(kind, b, c, 7)
        assert [len(row) for row in rows] == list(range(1, 9))
        assert [horner(row, x) for row in rows] == values

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ortho_rows_by_recurrence("p", 1, 1, 3)
        with pytest.raises(ValueError):
            ortho_array("p", 1, 1, 16)


class TestArrayVersusRecurrence:
    @pytest.mark.parametrize("kind", ORTHO_KINDS)
    def test_symbolic_agreement(self, kind):
        """Array rows are exactly the coefficient rows of the recurrence."""
        b, c = PARAM_B, PARAM_C
        rows = ortho_rows_by_recurrence(kind, b, c, 6)
        arr = ortho_array(kind, b, c, 6).matrix(7)
        for n, row in enumerate(rows):
            for k, got in enumerate(row):
                assert not (got - arr.entry(n, k)), (kind, n, k)

    @pytest.mark.parametrize("kind", ORTHO_KINDS)
    @given(param_pairs)
    @settings(max_examples=10, deadline=None)
    def test_numeric_agreement(self, kind, bc):
        bv, cv = bc
        rows = ortho_rows_by_recurrence(kind, bv, cv, 5)
        arr = ortho_array(kind, bv, cv, 5).matrix(6)
        for n, row in enumerate(rows):
            for k, got in enumerate(row):
                assert got == arr.entry(n, k), (kind, n, k)


class TestMomentColumns:
    def test_q_inverse_first_column_is_moments(self):
        b, c = PARAM_B, PARAM_C
        mu = moments(LBPFamily.constant(b, c, order=7), "matrix_inverse", 7)
        col = [row[0] for row in ortho_array("q", b, c, 7).inverse().matrix(8).rows]
        for n in range(8):
            assert not (col[n] - mu[n]), n

    def test_qtilde_inverse_first_column_prefix(self):
        b, c = PARAM_B, PARAM_C
        col = [row[0] for row in ortho_array("qtilde", b, c, 4).inverse().matrix(5).rows]
        expected = [
            b**0,
            b + c,
            (b + c) * (2 * b + c),
        ]
        for n, value in enumerate(expected):
            assert not (col[n] - value), n


class TestInverseFClosedForm:
    def test_matches_group_inverse_symbolically(self):
        b, c = PARAM_B, PARAM_C
        closed = ortho_inverse_f_closed_form(b, c, 7)
        assert closed == ortho_array("q", b, c, 7).inverse().f

    @given(param_pairs)
    @settings(max_examples=10, deadline=None)
    def test_matches_group_inverse_numerically(self, bc):
        bv, cv = bc
        closed = ortho_inverse_f_closed_form(bv, cv, 6)
        assert closed == ortho_array("q", bv, cv, 6).inverse().f


class TestFactorizations:
    def test_symbolic_report_all_pass(self):
        report = verify_factorizations(PARAM_B, PARAM_C, order=7)
        failed = [check.name for check in report.checks if not check.passed]
        assert not failed, failed

    @given(param_pairs)
    @settings(max_examples=10, deadline=None)
    def test_numeric_report_all_pass(self, bc):
        bv, cv = bc
        report = verify_factorizations(bv, cv, order=6)
        assert report.passed

    def test_binomial_mixing_of_rows(self):
        """Each family expands in the companion bases with binomial weights."""
        b, c = PARAM_B, PARAM_C
        n_max = 6
        lbp_rows = rows_by_recurrence(LBPFamily.constant(b, c), n_max)
        bases = {
            "q": lambda n, k: binomial(n - 1, n - k),
            "qtilde": lambda n, k: binomial(n, k),
            "qhat": lambda n, k: binomial(n + 1, k + 1),
        }
        for kind, weight in bases.items():
            rows = ortho_rows_by_recurrence(kind, b, c, n_max)
            for n in range(1, n_max + 1):
                acc = [coerce_scalar(0)] * (n + 1)
                for k in range(n + 1):
                    w = weight(n, k)
                    for j, coeff in enumerate(rows[k]):
                        acc[j] = acc[j] + b ** (n - k) * w * coeff
                assert acc == lbp_rows[n], (kind, n)


@pytest.mark.parametrize("b, c", [(PARAM_B, PARAM_C), (Fraction(3, 2), Fraction(-1, 3))])
def test_production_of_q_inverse_is_the_stieltjes_matrix(b, c):
    # Peart & Woan 2000: the production matrix of the q-array's inverse is
    # tridiagonal, with the J-fraction's diagonal and couplings
    dim = 8
    p = production_of_inverse(ortho_array("q", b, c, dim).matrix(dim + 1))
    jfrac = moment_jfraction(b, c, 2 * dim)
    expected = {(i, i + 1): 1 for i in range(dim - 1)}
    expected.update({(i, i): v for i, v in enumerate(jfrac.diag[:dim])})
    expected.update({(i + 1, i): v for i, v in enumerate(jfrac.sub[:dim - 1])})
    for i in range(dim):
        for j in range(dim):
            assert p[i][j] == coerce_scalar(expected.get((i, j), 0)), (i, j)
