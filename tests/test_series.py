"""Truncated power series over the exact scalar ring."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlbp.combinat import catalan
from riordanlbp.orthopoly import ortho_array
from riordanlbp.riordan import binomial_array
from riordanlbp.scalars import PARAM_B, PARAM_C, DensePoly, coerce_scalar, scalar_inv
from riordanlbp.series import TruncatedSeries, catalan_series

ORDER = 10

coeff_lists = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=3),
    min_size=1,
    max_size=6,
)


def series_of(coeffs, order=ORDER):
    return TruncatedSeries([coerce_scalar(v) for v in coeffs], order=order)


def reversion_by_composition(f):
    """Reference: solve f(g(t)) = t order by order, one composition per order."""
    inv1 = scalar_inv(f.coeffs[1])
    zero = f.coeffs[0] * 0
    g = [zero, inv1 * 1] + [zero] * (f.order - 1)
    for m in range(2, f.order + 1):
        h = f.truncate(m).compose(TruncatedSeries(g[: m + 1]))
        g[m] = -h.coeffs[m] * inv1
    return TruncatedSeries(g)


def compose_full_horner(f, inner):
    """Reference: Horner's rule with every partial sum at the full order."""
    if inner.coeffs[0]:
        raise ValueError("composition requires inner series with f(0) = 0")
    n = min(f.order, inner.order)
    inner = inner.truncate(n)
    result = TruncatedSeries([f.coeffs[n]], n)
    for k in range(n - 1, -1, -1):
        result = result * inner + f.coeffs[k]
    return result


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
symbolic_coeffs = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)).map(
    lambda pqr: pqr[0] * PARAM_B + pqr[1] * PARAM_C + pqr[2])


class TestConstruction:
    def test_ratio_geometric(self):
        s = TruncatedSeries.ratio([1], [1, -1], order=6)
        assert all(s.coeffs[n] == coerce_scalar(1) for n in range(7))

    def test_monomial_beyond_order_rejected(self):
        with pytest.raises(ValueError, match="monomial degree 5 outside 0..4"):
            TruncatedSeries.monomial(5, 1, 4)

    def test_negative_monomial_degree_rejected(self):
        with pytest.raises(ValueError, match="monomial degree -1 outside 0..3"):
            TruncatedSeries.monomial(-1, 1, 3)

    def test_truncate_only_shrinks(self):
        s = TruncatedSeries.identity(order=6)
        assert s.truncate(3).order == 3
        with pytest.raises(ValueError):
            s.truncate(9)


class TestArithmetic:
    @given(coeff_lists, coeff_lists)
    @settings(max_examples=40, deadline=None)
    def test_product_commutes(self, a, b):
        assert series_of(a) * series_of(b) == series_of(b) * series_of(a)

    @given(coeff_lists)
    @settings(max_examples=40, deadline=None)
    def test_division_round_trip(self, a):
        s = series_of(a)
        if not s.coeffs[0]:
            return
        assert (s / s) == TruncatedSeries.constant(1, order=ORDER)
        t = TruncatedSeries.ratio([1, 2, 3], [1, -1], order=ORDER)
        assert (t * s) / s == t

    @given(st.integers(min_value=0, max_value=4), coeff_lists,
           st.integers(min_value=0, max_value=4), coeff_lists,
           st.integers(min_value=0, max_value=7), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_product_with_leading_zeros(self, za, a, zb, b, order, symbolic):
        # za / zb leading zeros on either side; an all-zero list gives an
        # all-zero operand
        def scalar(v):
            return v * PARAM_B + 2 * v * PARAM_C if symbolic else coerce_scalar(v)

        x = TruncatedSeries([scalar(v) for v in [0] * za + a], order)
        y = TruncatedSeries([scalar(v) for v in [0] * zb + b], order)
        # the full convolution, every term included
        want = [sum((x.coeffs[k] * y.coeffs[m - k] for k in range(m + 1)), scalar(0))
                for m in range(order + 1)]
        got = x * y
        assert got.order == order
        assert list(got.coeffs) == want
        assert [str(v) for v in got.coeffs] == [str(v) for v in want]
        # subtraction is one pass; it equals adding the negation, and a
        # scalar on either side touches only the constant term
        assert x - y == x + (-y) and str(x - y) == str(x + (-y))
        v = scalar(za - zb + 1)
        assert v - x == -x + v and str(v - x) == str(-x + v)
        assert x - v == x + (-v) and str(x - v) == str(x + (-v))

    def test_division_by_a_dense_polynomial_is_exact(self):
        x = DensePoly([0, 1])
        series = TruncatedSeries([2 * x, 0, x * x + x])
        assert (series / (2 * x)).coeffs == (1, 0, (x + 1) * Fraction(1, 2))
        with pytest.raises(ValueError, match="^inexact polynomial division$"):
            TruncatedSeries([x, 1]) / x

    def test_reciprocal_requires_unit(self):
        with pytest.raises(ZeroDivisionError):
            TruncatedSeries.identity(order=4).reciprocal()


class TestShifts:
    def test_round_trip(self):
        s = TruncatedSeries.ratio([1, 1], [1, -2], order=8)
        assert s.shift_up(2).shift_down(2) == s

    def test_shift_down_requires_divisibility(self):
        s = TruncatedSeries.constant(1, order=4)
        with pytest.raises(ValueError, match="not divisible by t\\^1"):
            s.shift_down(1)

    @pytest.mark.parametrize("shift", ["shift_up", "shift_down"])
    def test_negative_shift_is_named(self, shift):
        s = TruncatedSeries.ratio([1, 1], [1, -2], order=4)
        with pytest.raises(ValueError, match="k must be at least 0, got -1"):
            getattr(s, shift)(-1)


class TestCompose:
    def test_substitution_of_scaled_identity(self):
        # 1/(1-t) at t -> 2t gives 1/(1-2t)
        s = TruncatedSeries.ratio([1], [1, -1], order=8)
        inner = TruncatedSeries.monomial(1, 2, order=8)
        assert s.compose(inner) == TruncatedSeries.ratio([1], [1, -2], order=8)

    def test_requires_zero_constant_term(self):
        s = TruncatedSeries.identity(order=4)
        with pytest.raises(ValueError):
            s.compose(TruncatedSeries.constant(1, order=4))

    @given(st.sampled_from([small_fractions, symbolic_coeffs]).flatmap(
        lambda coeff: st.tuples(
            st.lists(coeff, min_size=1, max_size=13),
            st.lists(coeff, min_size=0, max_size=12),
            st.integers(0, 12), st.integers(0, 12), st.integers(1, 3))))
    @settings(max_examples=80, deadline=None)
    def test_truncated_horner_matches_full_horner(self, drawn):
        # unequal operand orders, and an inner valuation of 1 to 3
        outer, tail, outer_order, inner_order, valuation = drawn
        f = series_of(outer, outer_order)
        inner = series_of([0] * valuation + tail, inner_order)
        got, ref = f.compose(inner), compose_full_horner(f, inner)
        assert got.order == ref.order == min(outer_order, inner_order)
        assert got == ref and str(got) == str(ref)

    @given(st.one_of(small_fractions, symbolic_coeffs).filter(bool), st.integers(0, 12))
    @settings(max_examples=20, deadline=None)
    def test_nonzero_inner_constant_refused_like_full_horner(self, constant, order):
        f, inner = series_of([1, 2, 3], order), series_of([constant, 1], order)
        for compose in (f.compose, lambda g: compose_full_horner(f, g)):
            with pytest.raises(ValueError, match="requires inner series with f\\(0\\) = 0"):
                compose(inner)

    @given(coeff_lists)
    @settings(max_examples=30, deadline=None)
    def test_reversion_round_trip(self, tail):
        coeffs = [coerce_scalar(0), coerce_scalar(1)] + [
            coerce_scalar(v) for v in tail
        ]
        f = TruncatedSeries(coeffs, order=ORDER)
        rev = f.reversion()
        assert f.compose(rev) == TruncatedSeries.identity(order=ORDER)
        assert rev.compose(f) == TruncatedSeries.identity(order=ORDER)

    @given(st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool),
           coeff_lists, st.integers(1, 12))
    @settings(max_examples=50, deadline=None)
    def test_reversion_matches_composition_per_order(self, slope, tail, order):
        f = series_of([0, slope, *tail], order)
        rev = f.reversion()
        ref = reversion_by_composition(f)
        assert rev == ref and str(rev) == str(ref)
        assert f.compose(rev) == TruncatedSeries.identity(order)

    @pytest.mark.parametrize("array", [
        ortho_array("q", PARAM_B, PARAM_C, 8),
        ortho_array("qtilde", PARAM_B, PARAM_C, 8),
        binomial_array(PARAM_B, 8),
    ], ids=["q", "qtilde", "binomial"])
    def test_symbolic_reversion_matches_composition_per_order(self, array):
        rev = array.f.reversion()
        ref = reversion_by_composition(array.f)
        assert rev == ref and str(rev) == str(ref)
        assert array.f.compose(rev) == TruncatedSeries.identity(8)

    def test_reversion_requires_unit_slope(self):
        with pytest.raises(ValueError):
            TruncatedSeries([coerce_scalar(0), coerce_scalar(0)], order=4).reversion()

    def test_reversion_needs_a_linear_term(self):
        with pytest.raises(ValueError, match="^order must be at least 1, got 0$"):
            TruncatedSeries([0]).reversion()


class TestSqrt:
    @given(coeff_lists)
    @settings(max_examples=30, deadline=None)
    def test_square_then_sqrt(self, tail):
        coeffs = [coerce_scalar(1)] + [coerce_scalar(v) for v in tail]
        s = TruncatedSeries(coeffs, order=ORDER)
        assert (s * s).sqrt() == s

    def test_requires_constant_one(self):
        with pytest.raises(ValueError):
            TruncatedSeries.constant(4, order=4).sqrt()

    def test_symbolic_radicand(self):
        # (1 - (b+c)t)^2 under the parameters stays exact
        b, c = PARAM_B, PARAM_C
        lin = TruncatedSeries([coerce_scalar(1), -(b + c)], order=6)
        assert (lin * lin).sqrt() == lin


class TestCatalanSeries:
    def test_known_prefix(self):
        s = catalan_series(order=9)
        assert [s.coeffs[n] for n in range(10)] == [
            coerce_scalar(catalan(n)) for n in range(10)
        ]

    def test_functional_equation(self):
        # C = 1 + t C^2
        s = catalan_series(order=9)
        t = TruncatedSeries.identity(order=9)
        assert s == TruncatedSeries.constant(1, order=9) + t * s * s
