"""Exact scalar arithmetic: bivariate polynomials and their fractions."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlbp.cfrac import tfraction_closed_form
from riordanlbp.hankel_toeplitz import hankel_transform, toeplitz_closed_form
from riordanlbp.lbp import LBPFamily, moment_gf, moments
from riordanlbp.scalars import (
    PARAM_B,
    PARAM_C,
    BivarPoly,
    DensePoly,
    RationalFunction,
    _homogeneous_str,
    coerce_scalar,
    parse_rational,
    scalar_inv,
)
from riordanlbp.series import TruncatedSeries

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def poly_from_coeffs(coeffs):
    acc = BivarPoly.zero()
    for (i, j), value in coeffs.items():
        acc = acc + BivarPoly.monomial(i, j, Fraction(value))
    return acc


polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-5, 5),
    max_size=4,
).map(poly_from_coeffs)


class TestBivarPoly:
    def test_constants(self):
        assert BivarPoly.zero().is_zero
        assert not BivarPoly.one().is_zero
        assert BivarPoly.one() + BivarPoly.zero() == BivarPoly.one()

    def test_monomial_arithmetic(self):
        b = BivarPoly.b()
        c = BivarPoly.c()
        prod = (b + c) * (b + c)
        expected = (
            BivarPoly.monomial(2, 0)
            + BivarPoly.monomial(1, 1, 2)
            + BivarPoly.monomial(0, 2)
        )
        assert prod == expected

    def test_cancellation_drops_terms(self):
        b = BivarPoly.b()
        assert (b - b).is_zero

    @given(polys, polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_divexact_inverts_multiplication(self, p, q):
        if q.is_zero:
            return
        assert (p * q).divexact(q) == p

    def test_evaluate(self):
        p = BivarPoly.monomial(2, 0) + BivarPoly.monomial(1, 1, 3)
        # b^2 + 3bc at b=2, c=1/2
        assert p.evaluate(2, Fraction(1, 2)) == 7

    def test_substitute_partial(self):
        p = BivarPoly.monomial(1, 1)
        got = p.substitute(b_value=Fraction(2))
        assert got == BivarPoly.monomial(0, 1, 2)

    def test_terms_must_be_a_dict(self):
        with pytest.raises(TypeError, match="^BivarPoly expects a dict from exponent pairs"):
            BivarPoly([((0, 0), 1)])

    @pytest.mark.parametrize("value", [5, Fraction(-3, 2), Fraction(4, 2), 0])
    def test_constant_hashes_like_its_value(self, value):
        assert BivarPoly.const(value) == value
        assert hash(BivarPoly.const(value)) == hash(value)
        assert len({BivarPoly.const(value), value}) == 1
        # an operand coerced for arithmetic is the same constant, in normal form
        coerced = RationalFunction(value).num
        assert coerced.terms == BivarPoly.const(value).terms
        assert_normal_form(coerced)

    def test_quotient_of_polynomials_is_a_rational_function(self):
        quotient = BivarPoly.b() / (BivarPoly.b() + BivarPoly.c())
        assert type(quotient) is RationalFunction
        assert quotient == PARAM_B / (PARAM_B + PARAM_C)


exact_coefficients = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=4)
)
exact_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), exact_coefficients, max_size=4
).map(BivarPoly)
nonzero_scalars = exact_coefficients.filter(bool)
non_monic = BivarPoly({(1, 0): 3, (0, 1): 2})  # 3b + 2c


def assert_normal_form(poly):
    """Integral coefficients are ints; only non-integral ones are Fractions."""
    for value in poly.terms.values():
        assert type(value) is int or (
            type(value) is Fraction and value.denominator > 1
        ), f"{value!r} in {poly}"


class TestCoefficientNormalForm:
    def test_construction_unwraps_integral_fractions(self):
        p = BivarPoly({(0, 0): Fraction(2), (1, 0): Fraction(1, 2)})
        assert p.terms == {(0, 0): 2, (1, 0): Fraction(1, 2)}
        assert_normal_form(p)

    @given(exact_polys, exact_polys, st.integers(0, 3), nonzero_scalars)
    @settings(max_examples=80, deadline=None)
    def test_operations_restore_normal_form(self, p, q, k, s):
        quotient = (p * non_monic).divexact(non_monic)
        assert quotient == p
        for result in (p, p + q, p - q, p * q, p ** k, p / s, quotient):
            assert_normal_form(result)

    def test_inexact_division_by_non_monic_divisor_raises(self):
        with pytest.raises(ValueError):
            BivarPoly.b().divexact(non_monic)

    def test_symbolic_moments_and_hankel_determinants(self):
        fam = LBPFamily.constant(PARAM_B, PARAM_C, order=12)
        mu = list(moments(fam, "gf_expansion", 12))
        for value in mu + hankel_transform(mu, 4):
            assert_normal_form(value.num)
            assert_normal_form(value.den)


def at_c_one(poly: BivarPoly) -> DensePoly:
    """poly at c = 1, as a polynomial in x = b."""
    coeffs = [0] * (1 + max((i for i, _ in poly.terms), default=-1))
    for (i, _), value in poly.terms.items():
        coeffs[i] += value
    return DensePoly(coeffs)


b_only_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.just(0)), exact_coefficients, max_size=4
).map(BivarPoly)


class TestDensePoly:
    """DensePoly is BivarPoly at c = 1: setting c = 1 is a ring homomorphism,
    so every operation must commute with it."""

    @given(exact_polys, exact_polys, exact_coefficients, st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_ring_operations_commute_with_c_equal_one(self, p, q, s, k):
        dp, dq = at_c_one(p), at_c_one(q)
        assert dp + dq == at_c_one(p + q)
        assert dp - dq == at_c_one(p - q)
        assert dp * dq == at_c_one(p * q)
        assert -dp == at_c_one(-p)
        assert dp ** k == at_c_one(p ** k)
        assert dp + s == s + dp == at_c_one(p + s)
        assert dp - s == at_c_one(p - s)
        assert s - dp == at_c_one(s - p)
        assert dp * s == s * dp == at_c_one(p * s)
        for result in (dp + dq, dp - dq, dp * dq, dp ** k, dp + s, s - dp, dp * s):
            assert not result.coeffs or result.coeffs[-1], result
        assert bool(dp) == bool(p.substitute(c_value=1))

    @given(exact_polys, exact_polys)
    @settings(max_examples=80, deadline=None)
    def test_exact_division_inverts_multiplication(self, p, q):
        dq = at_c_one(q)
        if not dq:
            return
        assert at_c_one(p * q).divexact(dq) == at_c_one(p)
        assert at_c_one(p * q) / dq == at_c_one(p)

    @given(b_only_polys, b_only_polys)
    @settings(max_examples=80, deadline=None)
    def test_division_is_exact_exactly_when_bivar_division_is(self, p, q):
        if q.is_zero:
            with pytest.raises(ZeroDivisionError):
                at_c_one(p).divexact(at_c_one(q))
            return
        try:
            expected = at_c_one(p.divexact(q))
        except ValueError:
            with pytest.raises(ValueError, match="^inexact polynomial division$"):
                at_c_one(p).divexact(at_c_one(q))
        else:
            assert at_c_one(p).divexact(at_c_one(q)) == expected

    def test_inexact_divisions_raise(self):
        x = DensePoly([0, 1])
        for num, den in ((x, x + 1), (x + 1, x), (DensePoly([1]), x), (x ** 3 + 1, x ** 2)):
            with pytest.raises(ValueError, match="^inexact polynomial division$"):
                num.divexact(den)
        assert (x * x).divexact(2 * x) == x * Fraction(1, 2)

    def test_constructor_normal_form(self):
        assert DensePoly([1, Fraction(4, 2), 0, Fraction(0)]).coeffs == [1, 2]
        assert type(DensePoly([Fraction(4, 2)]).coeffs[0]) is int
        assert DensePoly([0, 0]).coeffs == []
        with pytest.raises(TypeError, match="not an exact rational: str"):
            DensePoly(["1"])

    def test_comparison_with_scalars(self):
        assert DensePoly([3]) == 3 and DensePoly([]) == 0
        assert DensePoly([Fraction(1, 2)]) == Fraction(1, 2)
        assert DensePoly([0, 1]) != 1 and DensePoly([1]) != 0
        assert not DensePoly([]) and DensePoly([0, 1])

    def test_only_nonzero_constants_invert(self):
        assert scalar_inv(DensePoly([2])) == DensePoly([Fraction(1, 2)])
        assert scalar_inv(DensePoly([-1])) == -1
        with pytest.raises(ValueError):
            scalar_inv(DensePoly([0, 1]))
        with pytest.raises(ZeroDivisionError):
            scalar_inv(DensePoly([]))

    def test_passes_through_coerce_scalar(self):
        x = DensePoly([0, 1])
        assert coerce_scalar(x) is x


def reference_str(terms: dict) -> str:
    """What BivarPoly.__str__ printed for terms in normal form when it held
    its own loop, kept here as the reference for the shared printer."""
    if not terms:
        return "0"
    # ascending total degree, then ascending b exponent
    keys = sorted(terms, key=lambda k: (k[0] + k[1], k[0], k[1]))
    parts = []
    for key in keys:
        coeff = terms[key]
        mono = reference_monomial_str(key)
        mag = abs(coeff)
        if mono:
            body = mono if mag == 1 else f"{mag}*{mono}"
        else:
            body = str(mag)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def reference_monomial_str(key: tuple[int, int]) -> str:
    i, j = key
    parts = []
    if i == 1:
        parts.append("b")
    elif i > 1:
        parts.append(f"b^{i}")
    if j == 1:
        parts.append("c")
    elif j > 1:
        parts.append(f"c^{j}")
    return "*".join(parts)


# the coefficients whose spelling has a special case drawn often: 1 and -1
# are dropped before a monomial, 11 and 1/2 start with the digit 1
printed_coefficients = st.one_of(
    st.sampled_from([1, -1, 11, -11, Fraction(1, 2), Fraction(-1, 2)]),
    st.integers(-10**20, 10**20),
    st.fractions(min_value=-30, max_value=30, max_denominator=50),
)
printed_keys = st.one_of(st.just((0, 0)), st.tuples(st.integers(0, 12), st.integers(0, 12)))


class TestPrinter:
    """BivarPoly and the dense entries, at (sym, sym) and with one side fixed
    at a rational, print through one printer, which must keep the spelling
    BivarPoly's own loop had."""

    @given(st.dictionaries(printed_keys, printed_coefficients, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_bivar_poly_prints_as_its_own_loop_did(self, terms):
        poly = BivarPoly(terms)
        assert str(poly) == reference_str(poly.terms)

    @given(st.one_of(printed_coefficients, st.just(0),
                     st.lists(st.one_of(st.just(0), printed_coefficients), max_size=9)
                     .map(DensePoly)),
           st.integers(0, 10),
           st.one_of(st.none(), st.tuples(st.sampled_from("bc"), st.one_of(
               st.sampled_from([1, -1]).map(Fraction),
               st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)))))
    @settings(max_examples=300, deadline=None)
    def test_dense_entry_prints_as_its_rational_function(self, v, degree, fixed):
        # fixed is None at (sym, sym), else the side fixed at a nonzero rational
        coeffs = v.coeffs if isinstance(v, DensePoly) else [v]
        top = max(len(coeffs) - 1, degree)
        num = BivarPoly({(i, top - i): a for i, a in enumerate(coeffs)})
        den = BivarPoly.monomial(0, top - degree)
        at = {} if fixed is None else {fixed[0]: fixed[1]}
        values = {f"{side}_value": r for side, r in at.items()}
        expected = str(RationalFunction(num.substitute(**values), den.substitute(**values)))
        assert _homogeneous_str(v, degree, **at) == expected


rational_functions = st.builds(
    lambda num, i, j, k: RationalFunction(
        num, BivarPoly.monomial(i, j) * (BivarPoly.b() + BivarPoly.c()) ** k),
    exact_polys, st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


class TestSubtraction:
    """a - b is computed in one pass; it must equal a + (-b)."""

    @given(exact_polys, exact_polys, exact_coefficients)
    @settings(max_examples=60, deadline=None)
    def test_bivar_poly(self, p, q, s):
        for x, y in ((p, q), (p, p), (p, s), (s, p)):
            assert x - y == x + (-y)
        assert (p - p).is_zero

    @given(rational_functions, rational_functions, exact_coefficients)
    @settings(max_examples=60, deadline=None)
    def test_rational_function(self, r, u, s):
        for x, y in ((r, u), (r, r), (r, s), (s, r)):
            diff = x - y
            assert diff == x + (-y)
            assert str(diff) == str(x + (-y))
        assert (r - r).is_zero and (r - r).is_polynomial


class TestRationalFunction:
    def test_parameter_identities(self):
        b, c = PARAM_B, PARAM_C
        lhs = (b + c) * (b - c)
        rhs = b * b - c * c
        assert (lhs - rhs).is_zero

    def test_division_and_inverse(self):
        b, c = PARAM_B, PARAM_C
        r = b / c
        assert (r * c - b).is_zero
        assert (scalar_inv(r) * r - RationalFunction(BivarPoly.one())).is_zero

    def test_inverse_of_a_polynomial_and_negative_power(self):
        b, c = PARAM_B, PARAM_C
        assert scalar_inv(BivarPoly.b()) == 1 / b
        assert str(scalar_inv(BivarPoly.b())) == "(1)/(b)"
        assert (b / c) ** -2 == c * c / (b * b)
        assert str((b / c) ** -2) == "(c^2)/(b^2)"

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            PARAM_B / (PARAM_C - PARAM_C)

    def test_is_zero_detects_cancelling_numerator(self):
        b, c = PARAM_B, PARAM_C
        r = (b * c - c * b) / (b + c)
        assert not r

    def test_common_factor_of_b_plus_c_cancels(self):
        b, c = BivarPoly.b(), BivarPoly.c()
        r = RationalFunction((b + c) * (b + 2 * c), c * (b + c) ** 2)
        assert r.den == c * (b + c)
        assert r.num == b + 2 * c
        assert r == RationalFunction(b + 2 * c, c * (b + c))
        assert str(r) == "(2*c + b)/(c^2 + b*c)"

    def test_constant_and_sign_go_to_the_numerator(self):
        b, c = BivarPoly.b(), BivarPoly.c()
        r = RationalFunction(3 * b, -2 * b * c * (b + c))
        assert r.den == c * (b + c)
        assert r.num == BivarPoly.const(Fraction(-3, 2))

    @pytest.mark.parametrize("den, shown", [
        (BivarPoly({(1, 0): 2, (0, 1): 1}), "c + 2*b"),
        (BivarPoly({(1, 0): 1, (0, 1): -1}), "-c + b"),
    ])
    def test_other_denominators_are_refused_by_name(self, den, shown):
        with pytest.raises(ValueError, match=f"^denominator {re.escape(shown)} has a factor"):
            RationalFunction(BivarPoly.one(), den)
        with pytest.raises(ValueError, match=f"^denominator {re.escape(shown)} "):
            PARAM_B / RationalFunction(den)

    def test_polynomial_has_denominator_one(self):
        r = RationalFunction(BivarPoly.b() + 1)
        assert r.is_polynomial
        assert r.den.is_one
        assert (PARAM_B * PARAM_C / PARAM_C).den.is_one

    @given(small_fractions, small_fractions)
    @settings(max_examples=30, deadline=None)
    def test_evaluation_commutes_with_arithmetic(self, bv, cv):
        b, c = PARAM_B, PARAM_C
        expr = (b + c) * (b + c) - b * c
        assert expr.evaluate(bv, cv) == (bv + cv) ** 2 - bv * cv


class TestProductFastPaths:
    """A one-term BivarPoly operand and an int or Fraction factor of a
    RationalFunction take shortcuts; the results keep the normal form."""

    def test_one_term_product_unwraps_integral_coefficients(self):
        half_b = BivarPoly({(1, 0): Fraction(1, 2)})
        for product in (half_b * 2, 2 * half_b, half_b * BivarPoly.const(2)):
            assert product.terms == {(1, 0): 1}
            assert type(product.terms[(1, 0)]) is int

    def test_one_term_times_many_terms_equals_the_general_product(self):
        mono = BivarPoly.monomial(1, 2, Fraction(3, 2))
        poly = BivarPoly({(0, 0): 2, (1, 1): Fraction(-2, 3), (2, 0): 4})
        # the same product through the general path: two terms on each side
        general = (mono + BivarPoly.monomial(9, 9)) * poly - BivarPoly.monomial(9, 9) * poly
        assert mono * poly == poly * mono == general
        assert (mono * poly).terms == {(1, 2): 3, (2, 3): -1, (3, 2): 6}
        assert_normal_form(mono * poly)

    @pytest.mark.parametrize("zero", [0, Fraction(0)])
    def test_rational_function_times_zero(self, zero):
        r = RationalFunction(BivarPoly.b() + 1, BivarPoly.c() * (BivarPoly.b() + BivarPoly.c()))
        for product in (r * zero, zero * r):
            assert type(product) is RationalFunction
            assert (product.num.terms, product.exps) == ({}, (0, 0, 0))

    def test_fraction_factor_keeps_lowest_terms(self):
        b, c = BivarPoly.b(), BivarPoly.c()
        r = RationalFunction(2 * b + 4 * c, c * (b + c) ** 2)
        product = r * Fraction(1, 2)
        assert product == RationalFunction((2 * b + 4 * c) * Fraction(1, 2), c * (b + c) ** 2)
        assert (product.num.terms, product.exps) == ({(1, 0): 1, (0, 1): 2}, (0, 1, 2))
        assert_normal_form(product.num)
        assert (product * 2).num.terms == r.num.terms


class TestParseRational:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("3", Fraction(3)),
            ("-2/5", Fraction(-2, 5)),
            ("0", Fraction(0)),
            ("1.5", Fraction(3, 2)),
        ],
    )
    def test_accepts(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["", "b", "1/0", "2/"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)


class TestScalarBoundary:
    """A value is checked where it enters: a bool becomes its int, and the
    inverse of a zero is refused by name."""

    @pytest.mark.parametrize("call", [
        lambda: scalar_inv(0),
        lambda: scalar_inv(Fraction(0)),
        lambda: scalar_inv(False),
        lambda: TruncatedSeries([1, 2]) / 0,
        lambda: moment_gf(0, 1, 3),
        lambda: tfraction_closed_form(0, 1, 3),
        lambda: toeplitz_closed_form(1, 0, 3),
    ], ids=["int", "Fraction", "bool", "series", "moment_gf", "tfraction", "toeplitz"])
    def test_reciprocal_of_zero_is_named(self, call):
        with pytest.raises(ZeroDivisionError, match="^reciprocal of zero$"):
            call()

    def test_a_bool_enters_as_its_int(self):
        assert type(coerce_scalar(True)) is int and coerce_scalar(True) == 1
        assert type(DensePoly([True]).coeffs[0]) is int
        assert str(TruncatedSeries([True, 2])) == "(1)*t^0 + (2)*t^1"
        assert _homogeneous_str(DensePoly([True, 2]), 1) == "c + 2*b"

    def test_a_bool_operand_and_inverse_are_ints(self):
        # DensePoly([]) + True and True - DensePoly([]) reach the same branch
        for poly in (DensePoly([]) + True, True - DensePoly([])):
            assert poly == 1 and type(poly.coeffs[0]) is int
        assert _homogeneous_str(DensePoly([]) + True, 0) == "1"
        assert scalar_inv(True) == 1 and type(scalar_inv(True)) is int


#: each binary operator between a value a and an operand x, keyed by the method of a it reaches
OPERATIONS = {
    "__add__": lambda a, x: a + x, "__radd__": lambda a, x: x + a,
    "__sub__": lambda a, x: a - x, "__rsub__": lambda a, x: x - a,
    "__mul__": lambda a, x: a * x, "__rmul__": lambda a, x: x * a,
    "__truediv__": lambda a, x: a / x, "__rtruediv__": lambda a, x: x / a,
}


@pytest.mark.parametrize("name", OPERATIONS)
@pytest.mark.parametrize("other", ["x", 1.5, object()], ids=["str", "float", "object"])
@pytest.mark.parametrize("value", [
    BivarPoly.b(), PARAM_B / PARAM_C, TruncatedSeries([1, PARAM_B], 3),
], ids=["BivarPoly", "RationalFunction", "TruncatedSeries"])
def test_arithmetic_refuses_a_non_scalar_operand(value, other, name):
    method = getattr(value, name, None)
    if method is not None:
        assert method(other) is NotImplemented
    with pytest.raises(TypeError):
        OPERATIONS[name](value, other)


class TestInexactInput:
    """A float or a string is not an exact rational; it is refused, never converted."""

    @pytest.mark.parametrize("value", [0.1, "2/3"])
    def test_constructor_refuses(self, value):
        message = f"^not an exact rational: {type(value).__name__}$"
        with pytest.raises(TypeError, match=message):
            BivarPoly({(1, 0): value})
        with pytest.raises(TypeError, match=message):
            BivarPoly.const(value)

    @pytest.mark.parametrize("key", [(2.7, 0), ("3", 0), (True, 0), (1,), (0, 1, 2), (-1, 0)],
                             ids=repr)
    def test_constructor_refuses_an_exponent_key(self, key):
        """An exponent key is a pair of non-negative ints: b^2.7 is not b^2,
        and b^-1 is not a polynomial."""
        message = f"^not a pair of non-negative int exponents: {re.escape(repr(key))}$"
        with pytest.raises(ValueError, match=message):
            BivarPoly({key: 1})

    def test_polynomial_evaluate_refuses(self):
        with pytest.raises(TypeError, match="^not an exact rational: float$"):
            BivarPoly.b().evaluate(0.1, 1)

    def test_rational_function_evaluate_refuses(self):
        with pytest.raises(TypeError, match="^not an exact rational: float$"):
            (PARAM_B / PARAM_C).evaluate(1, 0.5)
