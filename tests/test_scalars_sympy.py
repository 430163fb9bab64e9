"""Differential oracle: BivarPoly arithmetic and determinants against sympy."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlbp.hankel_toeplitz import determinant
from riordanlbp.scalars import BivarPoly

sympy = pytest.importorskip("sympy")

B, C = sympy.symbols("b c")

coefficients = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=5)
)
polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficients, max_size=5
).map(BivarPoly)


def to_sympy(poly: BivarPoly):
    expr = sum(
        (sympy.Rational(v.numerator, v.denominator) * B**i * C**j
         for (i, j), v in poly.terms.items()),
        sympy.Integer(0),
    )
    return sympy.Poly(expr, B, C, domain="QQ")


def from_sympy(poly) -> dict:
    return {
        monom: Fraction(int(coeff.p), int(coeff.q))
        for monom, coeff in poly.terms()
        if coeff
    }


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_sum_and_product_match_sympy(p, q):
    assert (p + q).terms == from_sympy(to_sympy(p) + to_sympy(q))
    assert (p * q).terms == from_sympy(to_sympy(p) * to_sympy(q))


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_divexact_matches_sympy(p, q):
    if q.is_zero:
        return
    want = (to_sympy(p) * to_sympy(q)).exquo(to_sympy(q))
    assert (p * q).divexact(q).terms == from_sympy(want)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), coefficients, max_size=3
).map(BivarPoly)


@given(st.lists(small_polys, min_size=9, max_size=9))
@settings(max_examples=40, deadline=None)
def test_determinant_matches_sympy(entries):
    rows = [entries[3 * i:3 * i + 3] for i in range(3)]
    got = determinant(rows)
    want = sympy.Matrix([[to_sympy(v).as_expr() for v in row] for row in rows]).det()
    assert got.is_polynomial
    assert got.num.terms == from_sympy(sympy.Poly(sympy.expand(want), B, C, domain="QQ"))
