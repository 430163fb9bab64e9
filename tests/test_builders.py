"""Internal results are built in normal form: the builders' safety net.

Arithmetic builds its results with private builders that check nothing,
``series._series`` for a series and ``scalars._poly`` for a polynomial.
So every coefficient of a series result must be one that ``coerce_scalar``
passes through unchanged, and every polynomial handed to ``_poly`` must
already be in coefficient normal form: no zero term, and an int for every
integral coefficient.
"""

from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from riordanlbp import scalars
from riordanlbp.scalars import (
    BivarPoly,
    DensePoly,
    RationalFunction,
    _lowest,
    _over_b_plus_c,
    _shift,
    coerce_scalar,
    dot,
)
from riordanlbp.series import TruncatedSeries

B_PLUS_C = BivarPoly.b() + BivarPoly.c()

coefficients = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=4)
)
units = coefficients.filter(bool)
polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), coefficients, max_size=4
).map(BivarPoly)
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


def loci(exps) -> BivarPoly:
    """b^i c^j (b+c)^k for exps = (i, j, k)."""
    i, j, k = exps
    return BivarPoly.monomial(i, j) * B_PLUS_C ** k


OVER_B = RationalFunction(1, BivarPoly.b())
OVER_C = RationalFunction(1, BivarPoly.c())
OVER_B_PLUS_C = RationalFunction(1, B_PLUS_C)
B_OVER_C = RationalFunction(BivarPoly.b(), BivarPoly.c())

rational_functions = st.builds(lambda num, exps: RationalFunction(num, loci(exps)),
                               polys, exponents)
# nonzero values whose numerator is a product of b, c and b+c: they have a reciprocal
rational_units = st.builds(lambda q, top, bottom: RationalFunction(q * loci(top), loci(bottom)),
                           units, exponents, exponents)
dense_polys = st.lists(coefficients, max_size=3).map(DensePoly)

#: (coefficients, invertible coefficients, other scalar operands) of the
#: three kinds of series; a bool or a BivarPoly operand must be coerced
KINDS = {
    "rational": (coefficients, units, st.booleans()),
    "dense": (st.one_of(coefficients, dense_polys),
              st.one_of(units, units.map(lambda q: DensePoly([q]))), st.booleans()),
    "symbolic": (st.one_of(coefficients, rational_functions),
                 st.one_of(units, rational_units), st.one_of(st.booleans(), polys)),
}


def assert_normal_form(terms: dict):
    for value in terms.values():
        assert type(value) is int or (type(value) is Fraction and value.denominator > 1), terms
        assert value, terms


@contextmanager
def checked_builder():
    """Check the terms of every BivarPoly that ``_poly`` builds meanwhile."""
    build = scalars._poly

    def checked(terms):
        assert_normal_form(terms)
        return build(terms)

    with mock.patch.object(scalars, "_poly", checked):
        yield


@st.composite
def series_cases(draw):
    """Two series a and b of one kind, b with an invertible constant term,
    a scalar operand s and an invertible coefficient u of the same kind."""
    values, invertible, operands = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    a = draw(st.lists(values, min_size=1, max_size=4))
    b = [draw(invertible)] + draw(st.lists(values, max_size=3))
    s = draw(st.one_of(values, operands))
    return TruncatedSeries(a), TruncatedSeries(b), s, draw(invertible)


def series_results(a, b, s, u):
    """Every TruncatedSeries operation on the case, by name."""
    f = b.shift_up(1)  # no constant term, an invertible linear one
    yield "a + b", a + b
    yield "a + s", a + s
    yield "s + a", s + a
    yield "a - b", a - b
    yield "a - s", a - s
    yield "-a", -a
    yield "s - a", s - a
    yield "a * s", a * s
    yield "s * a", s * a
    yield "a * b", a * b
    yield "a / b", a / b
    yield "a / u", a / u
    yield "s / b", s / b
    if type(s) is DensePoly and s:
        yield "(a * s) / s", (a * s) / s
    yield "a ** 2", a ** 2
    yield "b ** -2", b ** -2
    yield "shift_up", a.shift_up(2)
    yield "shift_down", f.shift_down(1)
    yield "truncate", a.truncate(0)
    yield "compose", a.compose(f)
    yield "reversion", f.reversion()
    yield "sqrt", (a.shift_up(1) + 1).sqrt()


@given(series_cases())
@settings(max_examples=60, deadline=None)
def test_series_results_hold_coerced_coefficients(case):
    with checked_builder():
        results = list(series_results(*case))
    for name, result in results:
        assert type(result) is TruncatedSeries, name
        assert all(coerce_scalar(v) is v for v in result.coeffs), (name, result.coeffs)


@given(polys, exponents, st.lists(st.one_of(coefficients, rational_functions), max_size=4),
       st.lists(st.one_of(coefficients, rational_functions), max_size=4))
@settings(max_examples=80, deadline=None)
# (b/2 + c)(b+c) = b^2/2 + 3bc/2 + c^2: dividing by b+c meets 3/2 - 1/2, a
# Fraction equal to 1, which the quotient must hold as the int 1
@example(BivarPoly({(1, 0): Fraction(1, 2), (0, 1): 1}), (0, 0, 1), [], [])
# (b^2 + c^2)(b+c): the division meets a zero quotient term in bc
@example(BivarPoly({(2, 0): 1, (0, 2): 1}), (0, 0, 1), [], [])
# dot over more than one product denominator, which no CLI run reaches:
# two groups; two groups beside an int, and beside an int and a Fraction;
# two groups that cancel to 0; a group that sums to 0 beside another; a
# zero int times 1/(b+c) beside a product over b c
@example(BivarPoly(), (0, 0, 0), [OVER_B, OVER_B_PLUS_C], [OVER_C, OVER_C])
@example(BivarPoly(), (0, 0, 0), [OVER_B, OVER_C, 2], [OVER_C, 1, 3])
@example(BivarPoly(), (0, 0, 0), [OVER_B, 2, OVER_C, Fraction(1, 3)],
         [1, 3, OVER_B_PLUS_C, Fraction(1, 2)])
@example(BivarPoly(), (0, 0, 0), [OVER_B, -1], [B_OVER_C, OVER_C])
@example(BivarPoly(), (0, 0, 0), [OVER_B, -1, OVER_C], [1, OVER_B, 1])
@example(BivarPoly(), (0, 0, 0), [0, OVER_B], [OVER_B_PLUS_C, OVER_C])
def test_polynomials_built_internally_are_in_normal_form(p, exps, xs, ys):
    i, j, _ = exps
    with checked_builder():
        shifted = _shift(p * BivarPoly.monomial(i, j), i, j)
        lowest, _ = _lowest(p * loci(exps), exps)
        total = dot(xs, ys)
        if p:
            quotient = _over_b_plus_c(p * B_PLUS_C)
            assert quotient.terms == p.terms
            assert_normal_form(quotient.terms)
    assert shifted.terms == p.terms
    assert_normal_form(shifted.terms)
    assert_normal_form(lowest.terms)
    if type(total) is RationalFunction:
        assert_normal_form(total.num.terms)
