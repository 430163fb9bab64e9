"""Differential oracle: BivarPoly and RationalFunction arithmetic and
determinants against sympy."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riordanlbp.hankel_toeplitz import determinant
from riordanlbp.scalars import BivarPoly, RationalFunction, dot

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


def loci_product(coeff, exps) -> BivarPoly:
    """coeff * b^i c^j (b+c)^k for exps = (i, j, k)."""
    i, j, k = exps
    return coeff * BivarPoly.monomial(i, j) * (BivarPoly.b() + BivarPoly.c()) ** k


exponents = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
rational_functions = st.builds(
    lambda num, exps: RationalFunction(num, loci_product(1, exps)), polys, exponents
)
# values whose numerator is also a product of b, c and b+c, so dividing by them is defined
units = st.builds(
    lambda coeff, top, bottom: RationalFunction(loci_product(coeff, top), loci_product(1, bottom)),
    st.integers(-4, 4).filter(bool), exponents, exponents,
)


def to_expr(r: RationalFunction):
    return to_sympy(r.num).as_expr() / to_sympy(r.den).as_expr()


def same(expr, other) -> bool:
    return sympy.cancel(expr - other) == 0


@given(rational_functions, rational_functions)
@settings(max_examples=60, deadline=None)
def test_rational_sum_product_and_equality_match_sympy(r, s):
    assert same(to_expr(r + s), to_expr(r) + to_expr(s))
    assert same(to_expr(r * s), to_expr(r) * to_expr(s))
    assert (r == s) == same(to_expr(r), to_expr(s))


@given(rational_functions, units)
@settings(max_examples=60, deadline=None)
def test_rational_quotient_matches_sympy(r, u):
    assert same(to_expr(r / u), to_expr(r) / to_expr(u))
    assert r / u * u == r


@given(rational_functions, st.sampled_from(["b", "c", "b+c", "3"]))
@settings(max_examples=60, deadline=None)
def test_common_factor_cancels_to_the_same_value(r, factor):
    f = {"b": BivarPoly.b(), "c": BivarPoly.c(), "b+c": BivarPoly.b() + BivarPoly.c(),
         "3": BivarPoly.const(3)}[factor]
    widened = RationalFunction(r.num * f, r.den * f)
    assert widened == r
    assert str(widened) == str(r)


@given(rational_functions, rational_functions)
@settings(max_examples=60, deadline=None)
def test_stored_form_is_in_lowest_terms(r, s):
    for value in (r, r + s, r * s):
        gcd = sympy.gcd(to_sympy(value.num).as_expr(), to_sympy(value.den).as_expr())
        assert not gcd.free_symbols, f"{value} is not in lowest terms"


dot_values = st.one_of(coefficients, rational_functions, st.just(0),
                       st.just(RationalFunction(0)))


def any_to_expr(v):
    if isinstance(v, RationalFunction):
        return to_expr(v)
    return sympy.Rational(v.numerator, v.denominator)


OVER_B = RationalFunction(1, BivarPoly.b())
OVER_C = RationalFunction(1, BivarPoly.c())
OVER_B_PLUS_C = RationalFunction(1, BivarPoly.b() + BivarPoly.c())
B_OVER_C = RationalFunction(BivarPoly.b(), BivarPoly.c())


@given(st.lists(dot_values, max_size=5), st.lists(dot_values, max_size=5))
@settings(max_examples=80, deadline=None)
# products over more than one denominator, which no CLI run makes: two
# denominator groups; two groups beside an int, and beside an int and a
# Fraction; two groups that cancel to 0; a group that sums to 0 beside
# another; a zero int times 1/(b+c) beside a product over b c
@example([OVER_B, OVER_B_PLUS_C], [OVER_C, OVER_C])
@example([OVER_B, OVER_C, 2], [OVER_C, 1, 3])
@example([OVER_B, 2, OVER_C, Fraction(1, 3)], [1, 3, OVER_B_PLUS_C, Fraction(1, 2)])
@example([OVER_B, -1], [B_OVER_C, OVER_C])
@example([OVER_B, -1, OVER_C], [1, OVER_B, 1])
@example([0, OVER_B], [OVER_B_PLUS_C, OVER_C])
def test_dot_matches_the_left_fold_and_sympy(xs, ys):
    got = dot(xs, ys)
    fold = 0
    for x, y in zip(xs, ys):
        fold = fold + x * y
    assert type(got) is type(fold)
    want = sum((any_to_expr(x) * any_to_expr(y) for x, y in zip(xs, ys)), sympy.Integer(0))
    if type(got) is RationalFunction:
        assert (got.exps, got.num.terms) == (fold.exps, fold.num.terms)
        assert all(type(v) is int or v.denominator > 1 for v in got.num.terms.values())
        assert same(to_expr(got), want)
    else:
        assert got == fold == want
