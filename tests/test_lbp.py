"""The polynomial family, its coefficient array, and the moment routes."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riordanlbp import lbp
from riordanlbp.cfrac import tfraction_via_transform
from riordanlbp.combinat import binomial, catalan
from riordanlbp.lbp import (
    MOMENT_ROUTES,
    LBPFamily,
    coefficient_array,
    coefficient_matrix,
    entry_closed_form,
    inverse_entry_lagrange,
    moment_gf,
    moment_matrix,
    moment_production,
    moments,
    rows_by_recurrence,
)
from riordanlbp.riordan import has_column_shift, production_matrix, production_of_inverse
from riordanlbp.scalars import PARAM_B, PARAM_C, DensePoly, RationalFunction, coerce_scalar
from riordanlbp.series import TruncatedSeries

# First moments of the symbolic constant-coefficient family, normalized to
# start at 1.  Frozen from the inverse of the coefficient array.
SYMBOLIC_MOMENT_FACTORS = [
    lambda b, c: b**0,
    lambda b, c: c,
    lambda b, c: c * (b + c),
    lambda b, c: c * (b + c) * (2 * b + c),
    lambda b, c: c * (b + c) * (5 * b * b + 5 * b * c + c * c),
    lambda b, c: c * (b + c) * (2 * b + c) * (7 * b * b + 7 * b * c + c * c),
]

nonzero_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
).filter(lambda q: q != 0)

nonzero_ints = st.integers(min_value=-9, max_value=9).filter(bool)

#: (b, c) drawn from ints and Fractions, with c = -b (b+c = 0) and c = -2b
#: (2b+c = 0) a quarter of the time each
locus_pairs = st.one_of(nonzero_ints, nonzero_fractions).flatmap(
    lambda b: st.tuples(st.just(b), st.one_of(st.just(-b), st.just(-2 * b),
                                              nonzero_ints, nonzero_fractions)))

param_pairs = st.tuples(nonzero_fractions, nonzero_fractions).filter(
    lambda bc: bc[0] + bc[1] != 0
)


def horner(coeffs, x):
    """Value at x of the polynomial with ascending coefficient list coeffs."""
    acc = 0
    for coeff in reversed(coeffs):
        acc = acc * x + coeff
    return acc


def unit_family(order=10):
    return LBPFamily.constant(1, 1, order=order)


def symbolic_family(order=8):
    return LBPFamily.constant(PARAM_B, PARAM_C, order=order)


def typed(block):
    """Each value of a block with its type."""
    return [[(type(v), v) for v in row] for row in block]


X = DensePoly([0, 1])


class TestFamilyConstruction:
    def test_zero_coefficients_rejected(self):
        with pytest.raises(ValueError):
            LBPFamily.constant(0, 1)
        with pytest.raises(ValueError):
            LBPFamily.periodic([1, 2], [1, 0])

    def test_periodic_cycling(self):
        fam = LBPFamily.periodic([1, 2], [5])
        assert [fam.b_at(n) for n in range(4)] == [
            coerce_scalar(v) for v in (1, 2, 1, 2)
        ]
        assert fam.c_at(3) == coerce_scalar(5)

    def test_constant_checks_skip_the_self_comparison(self, monkeypatch):
        # entry 0 is compared only with entries 1.., so a one-entry symbolic
        # family costs no RationalFunction comparison at all
        compared = []
        monkeypatch.setattr(RationalFunction, "__eq__",
                            lambda self, other: compared.append(1) or True)
        fam = LBPFamily.constant(PARAM_B, PARAM_C)
        assert fam.is_constant
        assert fam.b is fam.b_seq[0] and fam.c is fam.c_seq[0]
        assert compared == []

    def test_constant_accessors(self):
        fam = LBPFamily.periodic([3, 3], [4])
        assert fam.is_constant
        assert fam.b == coerce_scalar(3)
        fam2 = LBPFamily.periodic([1, 2], [1])
        assert not fam2.is_constant
        with pytest.raises(ValueError):
            fam2.b


class TestRecurrenceRows:
    def test_unit_family_rows(self):
        rows = rows_by_recurrence(unit_family(), 4)
        assert rows == [
            [coerce_scalar(v) for v in row]
            for row in (
                [1],
                [-1, 1],
                [1, -3, 1],
                [-1, 5, -5, 1],
                [1, -7, 13, -7, 1],
            )
        ]

    def test_rows_match_closed_form_symbolically(self):
        b, c = PARAM_B, PARAM_C
        rows = rows_by_recurrence(symbolic_family(), 5)
        for n, row in enumerate(rows):
            for k, got in enumerate(row):
                assert not (got - entry_closed_form(n, k, b, c)), (n, k)

    @pytest.mark.parametrize("b, c", [(Fraction(3, 2), Fraction(-1, 3)),
                                      (PARAM_B, PARAM_C)])
    def test_coefficient_array_agrees_with_recurrence(self, b, c):
        fam = LBPFamily.constant(b, c, order=8)
        rows = rows_by_recurrence(fam, 6)
        arr = coefficient_array(fam, 8).matrix(7)
        for n, row in enumerate(rows):
            for k, got in enumerate(row):
                assert got == arr.entry(n, k), (n, k)

    @given(st.lists(nonzero_fractions, min_size=1, max_size=3),
           st.lists(nonzero_fractions, min_size=1, max_size=3),
           st.fractions(min_value=-5, max_value=5, max_denominator=4))
    @settings(max_examples=40, deadline=None)
    def test_rows_evaluate_like_the_scalar_recurrence(self, b_seq, c_seq, x):
        fam = LBPFamily.periodic(b_seq, c_seq)
        values = [Fraction(1), x - fam.c_at(0)]
        for n in range(2, 8):
            values.append((x - fam.c_at(n - 1)) * values[n - 1]
                          - fam.b_at(n - 1) * x * values[n - 2])
        rows = rows_by_recurrence(fam, 7)
        assert [len(row) for row in rows] == list(range(1, 9))
        assert [horner(row, x) for row in rows] == values

    @given(st.lists(st.one_of(nonzero_ints, nonzero_fractions), min_size=1, max_size=3),
           st.lists(st.one_of(nonzero_ints, nonzero_fractions), min_size=1, max_size=3),
           st.integers(min_value=0, max_value=9), st.integers(min_value=1, max_value=11))
    @settings(max_examples=60, deadline=None)
    def test_cut_rows_are_the_full_rows_cut(self, b_seq, c_seq, n_max, width):
        fam = LBPFamily.periodic(b_seq, c_seq)
        full = rows_by_recurrence(fam, n_max)
        assert typed(rows_by_recurrence(fam, n_max, width)) == typed([r[:width] for r in full])

    @pytest.mark.parametrize("width", [1, 2, 3, 7, 9])
    @pytest.mark.parametrize("b, c", [(X, 1), (X, -X), (PARAM_B, PARAM_C)])
    def test_cut_symbolic_rows_are_the_full_rows_cut(self, b, c, width):
        fam = LBPFamily.constant(b, c)
        full = rows_by_recurrence(fam, 7)
        assert typed(rows_by_recurrence(fam, 7, width=width)) == typed([r[:width] for r in full])

    def test_short_row_counts(self):
        fam = unit_family()
        assert [len(rows_by_recurrence(fam, n)) for n in (0, 1, 2)] == [1, 2, 3]

    def test_coefficient_array_requires_constant_family(self):
        with pytest.raises(ValueError):
            coefficient_array(LBPFamily.periodic([1, 2], [1]), 16)


class TestMoments:
    def test_symbolic_prefix(self):
        mu = moments(symbolic_family(6), "matrix_inverse", 5)
        for n, factor in enumerate(SYMBOLIC_MOMENT_FACTORS):
            assert not (mu[n] - factor(PARAM_B, PARAM_C)), n

    def test_unit_family_is_shifted_schroeder(self):
        mu = moments(unit_family(), "matrix_inverse", 9)
        assert list(mu) == [
            coerce_scalar(v)
            for v in (1, 1, 2, 6, 22, 90, 394, 1806, 8558, 41586)
        ]

    @pytest.mark.parametrize("route", MOMENT_ROUTES)
    def test_all_routes_agree_symbolically(self, route):
        fam = symbolic_family(8)
        baseline = moments(fam, "matrix_inverse", 8)
        got = moments(fam, route=route, n_max=8)
        assert type(got) is list and len(got) == 9
        for n in range(9):
            assert not (got[n] - baseline[n]), (route, n)

    @given(param_pairs)
    @settings(max_examples=12, deadline=None)
    def test_all_routes_agree_numerically(self, bc):
        bv, cv = bc
        fam = LBPFamily.constant(bv, cv, order=7)
        baseline = moments(fam, "matrix_inverse", 7)
        for route in MOMENT_ROUTES[1:]:
            got = moments(fam, route=route, n_max=7)
            assert list(got) == list(baseline), route

    @given(
        st.lists(nonzero_fractions, min_size=1, max_size=3),
        st.lists(nonzero_fractions, min_size=1, max_size=3),
        st.integers(min_value=0, max_value=9),
    )
    @settings(max_examples=25, deadline=None)
    def test_matrix_route_is_first_column_of_inverse(self, b_seq, c_seq, n_max):
        fam = LBPFamily.periodic(b_seq, c_seq, order=n_max)
        got = moments(fam, "matrix_inverse", n_max)
        assert list(got) == [row[0] for row in moment_matrix(fam, n_max + 1).rows]

    def test_matrix_route_symbolic_periodic(self):
        b, c = PARAM_B, PARAM_C
        fam = LBPFamily.periodic([b, b + c], [c, 2 * b], order=7)
        got = moments(fam, "matrix_inverse", 7)
        expected = [row[0] for row in moment_matrix(fam, 8).rows]
        assert [str(v) for v in got] == [str(v) for v in expected]

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError):
            moments(unit_family(), "divination", 10)

    @pytest.mark.parametrize("route", MOMENT_ROUTES[1:])
    def test_closed_form_routes_need_constant_coefficients(self, route):
        fam = LBPFamily.periodic([1, 2], [1], order=6)
        moments(fam, "matrix_inverse", 6)  # matrix route is fine
        with pytest.raises(ValueError, match=f"route '{route}' applies to constant"):
            moments(fam, route=route, n_max=6)

    @pytest.mark.parametrize("route", MOMENT_ROUTES)
    def test_negative_n_max_rejected(self, route):
        with pytest.raises(ValueError, match="n_max must be at least 0, got -1"):
            moments(unit_family(), route, -1)

    @pytest.mark.parametrize("b, c", [(PARAM_B, PARAM_C), (Fraction(111, 82), Fraction(-37, 123)),
                                      (PARAM_C, -PARAM_C), (PARAM_C, -2 * PARAM_C)])
    def test_catalan_route_equals_the_double_sum(self, b, c):
        """The route lifts mu~_{n-1}; the reference is the sum over mu_n itself."""
        def double_sum(n):
            acc = b * 0
            for k in range(n + 1):
                w = binomial(2 * n - k - 1, 2 * n - 2 * k) * catalan(n - k)
                if w:
                    acc = acc + w * b ** (n - k) * c ** k
            return acc
        got = moments(LBPFamily.constant(b, c), "catalan_sum", 12)
        assert list(got) == [double_sum(n) for n in range(13)]

    @given(st.one_of(locus_pairs, st.just((DensePoly([0, 1]), 1))),
           st.integers(min_value=0, max_value=40))
    @example((PARAM_B, PARAM_C), 13)
    @example((PARAM_B, Fraction(3, 2)), 12)
    @example((Fraction(-1, 3), PARAM_C), 12)
    @example((PARAM_B, -PARAM_C), 8)
    @settings(max_examples=60, deadline=None)
    def test_recurrence_route_equals_the_catalan_sum(self, bc, n_max):
        """Equal in value and in type: an int stays an int, a Fraction a
        Fraction, and (x, 1) on DensePoly a DensePoly."""
        fam = LBPFamily.constant(*bc)
        got = moments(fam, "p_recurrence", n_max)
        expected = moments(fam, "catalan_sum", n_max)
        assert [(type(v), v) for v in got] == [(type(v), v) for v in expected]

    @pytest.mark.parametrize("n_max", [0, 1, 2, 3])
    @pytest.mark.parametrize("b, c", [(2, 5), (1, -1), (3, -6), (Fraction(3, 2), 1),
                                      (1, Fraction(-1, 3)), (DensePoly([0, 1]), 1),
                                      (PARAM_B, PARAM_C), (PARAM_B, Fraction(3, 2)),
                                      (Fraction(-1, 3), PARAM_C)])
    def test_recurrence_route_initial_terms(self, b, c, n_max):
        """mu_0, mu_1 and mu_2 are given; the recurrence starts at mu_3."""
        got = moments(LBPFamily.constant(b, c), "p_recurrence", n_max)
        one = b ** 0
        expected = [one, c * one, c * (b + c), c * (b + c) * (2 * b + c)][:n_max + 1]
        assert [(type(v), v) for v in got] == [(type(v), v) for v in expected]

    def test_catalan_route_goes_through_the_shifted_sum(self, monkeypatch):
        calls = []
        real = lbp.shifted_moment_sum
        monkeypatch.setattr(lbp, "shifted_moment_sum",
                            lambda b, c, n: calls.append(n) or real(b, c, n))
        moments(unit_family(), "catalan_sum", 5)
        assert calls == [0, 1, 2, 3, 4]


class TestClosedFormEntries:
    def test_inverse_entry_against_matrix_inverse(self):
        fam = unit_family()
        inv = coefficient_matrix(fam, 7).inverse()
        for n in range(7):
            for k in range(n + 1):
                assert inv.entry(n, k) == inverse_entry_lagrange(n, k, 1, 1), (n, k)

    def test_inverse_entry_against_matrix_inverse_symbolic(self):
        inv = coefficient_matrix(symbolic_family(5), 5).inverse()
        for n in range(5):
            for k in range(n + 1):
                diff = inv.entry(n, k) - inverse_entry_lagrange(
                    n, k, PARAM_B, PARAM_C
                )
                assert not diff, (n, k)

    def test_specific_inverse_entry(self):
        assert inverse_entry_lagrange(3, 1, 1, 1) == coerce_scalar(10)


class TestGeneratingFunctions:
    def test_sqrt_and_catalan_forms_agree(self):
        # mu(t) = 1 + c t mu~(t), mu~ the Catalan series pushed through
        # (1/(1-ct), t/(1-ct)^2)
        a = moment_gf(PARAM_B, PARAM_C, 8)
        ct = TruncatedSeries([0, PARAM_C], 8)
        b = 1 + ct * tfraction_via_transform(PARAM_B, PARAM_C, 8)
        assert a == b

    def test_gf_matches_moments(self):
        mu = moments(symbolic_family(7), "matrix_inverse", 7)
        gf = moment_gf(PARAM_B, PARAM_C, 7)
        for n in range(8):
            assert not (gf.coeffs[n] - mu[n]), n


class TestProductionStructure:
    def test_moment_matrix_production_shifts(self):
        fam = symbolic_family(8)
        p = production_matrix(moment_matrix(fam, 8))
        assert has_column_shift(p)

    def test_coefficient_array_production_shifts(self):
        fam = symbolic_family(8)
        p = production_matrix(coefficient_matrix(fam, 8))
        assert has_column_shift(p)

    def test_moment_production_entries(self):
        # first column b^i c, interior columns b^(i-k) (b+c), superdiagonal 1
        b, c = PARAM_B, PARAM_C
        p = production_matrix(moment_matrix(symbolic_family(7), 7))
        for i, row in enumerate(p):
            for k, got in enumerate(row):
                if k == 0:
                    expected = b**i * c
                elif k <= i:
                    expected = b ** (i - k) * (b + c)
                elif k == i + 1:
                    expected = b**0
                else:
                    expected = coerce_scalar(0)
                assert not (got - expected), (i, k)


class TestMomentProduction:
    """The A- and Z-sequence route of `generate production` equals the solve
    of all of P L = L S, in value and in type."""

    @given(st.one_of(locus_pairs, st.sampled_from([(X, 1), (X, -X), (X, -2 * X)])),
           st.integers(min_value=1, max_value=21))
    @example((X, 1), 21)
    @example((Fraction(-123, 94), Fraction(41, 141)), 21)
    @settings(max_examples=60, deadline=None)
    def test_equals_production_of_inverse(self, bc, dim):
        fam = LBPFamily.constant(*bc)
        expected = production_of_inverse(coefficient_matrix(fam, dim + 1))
        assert typed(moment_production(fam, dim)) == typed(expected)

    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("b, c", [(PARAM_B, PARAM_C), (PARAM_B, -PARAM_B),
                                      (PARAM_B, -2 * PARAM_B)])
    def test_symbolic_block_equals_production_of_inverse(self, b, c, dim):
        fam = LBPFamily.constant(b, c)
        expected = production_of_inverse(coefficient_matrix(fam, dim + 1))
        assert typed(moment_production(fam, dim)) == typed(expected)

    def test_periodic_family_is_refused(self):
        # example2's family, b = 1, 2, 1, 2, ... and c = 1, has no A-sequence
        fam = LBPFamily.periodic([1, 2], [1])
        for call in (moment_production, coefficient_array):
            with pytest.raises(ValueError, match="^only constant-coefficient families "
                                                 "form a Riordan array$"):
                call(fam, 6)
