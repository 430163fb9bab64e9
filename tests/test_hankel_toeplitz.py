"""Hankel and Toeplitz determinants of the moment sequence."""

import itertools
import operator
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riordanlbp import hankel_toeplitz
from riordanlbp.combinat import binomial, catalan
from riordanlbp.hankel_toeplitz import (
    BiInfiniteMoments,
    determinant,
    hankel_and_shifted,
    hankel_closed_form,
    hankel_transform,
    lbp_by_determinant,
    leading_minors,
    recover_parameters,
    toeplitz_closed_form,
    toeplitz_dets,
)
from riordanlbp.lbp import LBPFamily, moments, rows_by_recurrence
from riordanlbp.scalars import (
    PARAM_B,
    PARAM_C,
    BivarPoly,
    DensePoly,
    RationalFunction,
    coerce_scalar,
    scalar_inv,
)

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
    def test_empty_matrix_has_int_determinant_one(self):
        assert determinant([]) == 1
        assert type(determinant([])) is int

    def test_non_square_matrix_names_the_row_and_both_lengths(self):
        with pytest.raises(ValueError, match="row 0 has length 2, the row count is 1"):
            determinant([[1, 2]])
        with pytest.raises(ValueError, match="row 1 has length 1, the row count is 2"):
            leading_minors([[1, 2], [3]])

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
    # rows over different denominators: 2, 3 and 5
    @example([[Fraction(1, 2), 1, Fraction(-3, 2)], [Fraction(2, 3), Fraction(-1, 3), 0],
              [Fraction(1, 5), 2, Fraction(-4, 5)]])
    @settings(max_examples=30, deadline=None)
    def test_random_matches_leibniz(self, raw):
        rows = [[coerce_scalar(v) for v in row] for row in raw]
        assert determinant(rows) == naive_det(rows)


def block_determinants(rows):
    """The definition leading_minors replaces: one determinant per block."""
    return [determinant([row[:m] for row in rows[:m]]) for m in range(1, len(rows) + 1)]


class TestLeadingMinors:
    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]),
                         min_size=n, max_size=n),
                min_size=n, max_size=n,
            )
        ),
        st.booleans(),
    )
    # rows over different denominators: 2, 3 and 5
    @example([[Fraction(1, 2), 1, 0], [Fraction(2, 3), Fraction(-1, 3), 1],
              [Fraction(1, 5), 2, Fraction(-4, 5)]], False)
    @settings(max_examples=80, deadline=None)
    def test_fraction_matrices(self, raw, zero_corner):
        # zeros are common, so singular leading blocks and zero pivots are
        # drawn often; zero_corner forces the first pivot itself to vanish
        rows = [[coerce_scalar(v) for v in row] for row in raw]
        if zero_corner:
            rows[0][0] = coerce_scalar(0)
        got = leading_minors(rows)
        assert got == block_determinants(rows)
        assert [str(v) for v in got] == [str(v) for v in block_determinants(rows)]

    def test_zero_pivot_then_nonzero_minors(self):
        # the 2x2 leading block is singular but the full matrix is not, so
        # only the fallback after the zero pivot can give the last minor
        rows = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
        assert leading_minors(rows) == [1, 0, -1]

    @given(st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2))
    @example(0, -1)  # c = -b: the b+c = 0 locus, h_2 is the first zero pivot
    @settings(max_examples=12, deadline=None)
    def test_symbolic_hankel(self, k, m):
        b = PARAM_B
        c = k * PARAM_C + m * PARAM_B
        if not c:
            return
        mu = moments(LBPFamily.constant(b, c, order=8), "gf_expansion", 8)
        rows = [[mu[i + j] for j in range(5)] for i in range(5)]
        got = leading_minors(rows)
        assert got == block_determinants(rows)
        assert [str(v) for v in got] == [str(v) for v in block_determinants(rows)]
        if k == 0 and m == -1:
            assert got[2:] == [0, 0, 0]

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.lists(
                st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2),
                          st.sampled_from(["1", "c", "b+c", "b*c"])),
                min_size=2 * n - 1, max_size=2 * n - 1,
            )
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_rational_function_toeplitz(self, raw):
        b, c = BivarPoly.b(), BivarPoly.c()
        dens = {"1": BivarPoly.one(), "c": c, "b+c": b + c, "b*c": b * c}
        seq = [RationalFunction(p * b + q * c + r, dens[d]) for p, q, r, d in raw]
        n = (len(seq) + 1) // 2
        rows = [[seq[k - j + n - 1] for k in range(n)] for j in range(n)]
        assert leading_minors(rows) == block_determinants(rows)


def shifted_determinants(values, depth):
    """The definition hankel_and_shifted replaces: one determinant per s_n."""
    return [
        determinant([[values[i + j] if j < n else values[i + n + 1] for j in range(n + 1)]
                     for i in range(n + 1)])
        for n in range(depth + 1)
    ]


class TestHankelAndShifted:
    @given(st.integers(min_value=0, max_value=4).flatmap(
        lambda depth: st.tuples(
            st.just(depth),
            st.lists(st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]),
                     min_size=2 * depth + 2, max_size=2 * depth + 2),
        )
    ))
    @settings(max_examples=80, deadline=None)
    def test_fraction_sequences(self, drawn):
        depth, raw = drawn
        values = [coerce_scalar(v) for v in raw]
        h = hankel_transform(values, depth)
        first_zero = next((n for n, v in enumerate(h) if not v), None)
        if first_zero is not None:
            with pytest.raises(ZeroDivisionError,
                               match=f"^vanishing Hankel determinant at depth {first_zero}$"):
                hankel_and_shifted(values, depth)
            return
        got_h, got_s = hankel_and_shifted(values, depth)
        assert got_h == h
        assert got_s == shifted_determinants(values, depth)

    @given(st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(1, 2),
                  st.sampled_from(["1", "c", "b+c", "b*c"])),
        min_size=6, max_size=6,
    ))
    @settings(max_examples=25, deadline=None)
    def test_rational_function_sequences(self, raw):
        # entries with denominators exercise the division by the clearing factor
        b, c = BivarPoly.b(), BivarPoly.c()
        dens = {"1": BivarPoly.one(), "c": c, "b+c": b + c, "b*c": b * c}
        values = [RationalFunction(p * b + q * c + r, dens[d]) for p, q, r, d in raw]
        h = hankel_transform(values, 2)
        if not all(h):
            return
        got_h, got_s = hankel_and_shifted(values, 2)
        assert got_h == h
        assert got_s == shifted_determinants(values, 2)

    def test_symbolic_moments_print_alike(self):
        mu = list(moments(LBPFamily.constant(PARAM_B, PARAM_C, order=9), "gf_expansion", 9))
        got_h, got_s = hankel_and_shifted(mu, 4)
        assert [str(v) for v in got_h] == [str(v) for v in hankel_transform(mu, 4)]
        assert [str(v) for v in got_s] == [str(v) for v in shifted_determinants(mu, 4)]

    def test_needs_two_more_moments_than_twice_the_depth(self):
        with pytest.raises(ValueError, match="need 6 moments for depth 2"):
            hankel_and_shifted([1, 1, 2, 5, 14], 2)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth must be at least 0, got -1"):
            hankel_and_shifted([1, 1, 2], -1)


def fraction_bareiss(rows, swap):
    """The elimination numeric matrices had before their rows were cleared to
    ints: the entries as Fractions, divided with `/`."""
    mat = [[Fraction(v) for v in row] for row in rows]
    sign, pivots = hankel_toeplitz._bareiss(mat, operator.truediv, swap)
    return mat, sign, pivots


def fraction_determinant(rows):
    if len(rows) <= 1:
        return rows[0][0] if rows else Fraction(1)
    _, sign, pivots = fraction_bareiss(rows, swap=True)
    return sign * pivots[-1]


def fraction_leading_minors(rows):
    _, _, pivots = fraction_bareiss(rows, swap=False)
    return pivots + [fraction_determinant([row[:m] for row in rows[:m]])
                     for m in range(len(pivots) + 1, len(rows) + 1)]


def fraction_hankel_and_shifted(values, depth):
    mat, _, pivots = fraction_bareiss(
        [values[i:i + depth + 2] for i in range(depth + 1)], swap=False)
    return pivots, [mat[n][n + 1] for n in range(len(pivots))]


def numeric_entries(denominator):
    """ints, zeros and Fractions whose denominators divide one row's denominator."""
    return st.one_of(
        st.just(0), st.just(0), st.integers(-20, 20),
        st.integers(-10**4, 10**4).flatmap(
            lambda num: st.sampled_from(
                [d for d in range(1, min(denominator, 40) + 1) if denominator % d == 0]
                + [denominator]).map(lambda d: Fraction(num, d))),
    )


def numeric_rows(height, width):
    row = st.integers(1, 1000).flatmap(
        lambda den: st.lists(numeric_entries(den), min_size=width, max_size=width))
    return st.lists(row, min_size=height, max_size=height)


def same(got, ref):
    assert got == ref
    assert [str(v) for v in got] == [str(v) for v in ref]


class TestIntegerElimination:
    """Numeric rows are cleared to ints before Bareiss; the Fraction
    elimination they replace is the reference."""

    @given(st.integers(1, 7).flatmap(lambda n: numeric_rows(n, n)), st.booleans())
    @example([[0, 1], [Fraction(1, 3), 0]], False)  # determinant swaps rows
    @example([[Fraction(1, 2), 1, 0], [1, 2, Fraction(1, 7)], [0, 1, Fraction(-1, 5)]],
             False)  # zero second pivot, nonzero 3x3 minor: the fallback
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_elimination(self, rows, zero_corner):
        if zero_corner:
            rows[0][0] = 0
        same([determinant(rows)], [fraction_determinant(rows)])
        same(leading_minors(rows), fraction_leading_minors(rows))

    @given(st.integers(0, 6).flatmap(lambda depth: st.tuples(
        st.just(depth), numeric_rows(1, 2 * depth + 2).map(lambda rows: rows[0]))))
    @settings(max_examples=100, deadline=None)
    def test_rectangular_rows_match_fraction_elimination(self, drawn):
        # hankel_and_shifted eliminates (depth+1) x (depth+2) rows
        depth, values = drawn
        ref_h, ref_s = fraction_hankel_and_shifted(values, depth)
        if not ref_h[-1]:
            with pytest.raises(ZeroDivisionError, match="vanishing Hankel determinant"):
                hankel_and_shifted(values, depth)
            return
        got_h, got_s = hankel_and_shifted(values, depth)
        same(got_h, ref_h)
        same(got_s, ref_s)

    def test_fraction_rows_reach_bareiss_as_ints(self, monkeypatch):
        half, third = Fraction(1, 2), Fraction(-1, 3)
        rows = [[half, 1, third], [0, third, 2], [third, half, 0]]
        values = moments(LBPFamily.constant(half, third), "gf_expansion", 8)
        expected = (fraction_determinant(rows), fraction_leading_minors(rows),
                    fraction_hankel_and_shifted(values, 3))
        bareiss = hankel_toeplitz._bareiss

        def ints_only(mat, divide, swap):
            assert all(type(v) is int for row in mat for v in row), mat
            return bareiss(mat, divide, swap)

        monkeypatch.setattr(hankel_toeplitz, "_bareiss", ints_only)
        assert (determinant(rows), leading_minors(rows),
                hankel_and_shifted(values, 3)) == expected
        bm = BiInfiniteMoments(values, third, 3)
        assert toeplitz_dets(bm, 3)[0] == toeplitz_closed_form(half, third, 3)

    def test_one_factor_clears_every_row(self):
        # F = lcm(2, 3, 4, 10) = 60 multiplies every entry, so a minor of
        # order m is divided by 60^m
        rows = [[Fraction(1, 2), Fraction(1, 3)], [2, 5], [Fraction(3, 4), Fraction(1, 10)]]
        cleared, divide, unscale = hankel_toeplitz._clear(rows)
        assert cleared == [[30, 20], [120, 300], [45, 6]]
        assert divide is hankel_toeplitz._int_divexact
        assert unscale(60, 1) == 1
        assert unscale(7200, 2) == 2
        assert hankel_toeplitz._clear([[1, 2], [Fraction(3), -4]])[2] is None


class TestHankel:
    def test_symbolic_closed_form(self):
        mu = moments(LBPFamily.constant(PARAM_B, PARAM_C, order=11), "matrix_inverse", 11)
        got = hankel_transform(list(mu), 5)
        expected = hankel_closed_form(PARAM_B, PARAM_C, 5)
        for n in range(6):
            assert not (got[n] - expected[n]), n

    def test_unit_values(self):
        mu = moments(LBPFamily.constant(1, 1, order=11), "matrix_inverse", 11)
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

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="n_max must be at least 0, got -1"):
            hankel_transform([1, 1, 2], -1)

    @given(param_pairs)
    @settings(max_examples=10, deadline=None)
    def test_closed_form_numeric(self, bc):
        bv, cv = bc
        mu = moments(LBPFamily.constant(bv, cv, order=9), "matrix_inverse", 9)
        assert hankel_transform(list(mu), 4) == hankel_closed_form(bv, cv, 4)


def hankel_reference(values, n):
    return leading_minors([[values[i + j] for j in range(n + 1)] for i in range(n + 1)])


def toeplitz_reference(bm, n):
    size = range(n + 1)
    return tuple(leading_minors([[bm.moment(shift + k - j) for k in size] for j in size])
                 for shift in (0, 1))


def shown(v):
    """What a value prints as: a DensePoly through its coefficients, since
    an integral Fraction coefficient prints as its int."""
    return [str(k) for k in v.coeffs] if type(v) is DensePoly else str(v)


def same_typed(got, ref):
    assert got == ref
    assert [type(v) for v in got] == [type(v) for v in ref]
    assert [shown(v) for v in got] == [shown(v) for v in ref]


def assert_recurrences_match_bareiss(mu, c, n):
    """hankel_transform and toeplitz_dets equal the Bareiss leading minors
    in value, type and print; Toeplitz only where c is invertible."""
    same_typed(hankel_transform(mu, n), hankel_reference(mu, n))
    if c is None:
        return
    bm = BiInfiniteMoments(mu[:n + 2], c, n)
    for got, ref in zip(toeplitz_dets(bm, n), toeplitz_reference(bm, n)):
        same_typed(got, ref)


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool)
# b+c = 0 (h_2 = 0, the fallback) and 2b+c = 0 are drawn a third of the time each
pairs_with_loci = st.one_of(
    st.tuples(small_fractions, small_fractions),
    small_fractions.map(lambda b: (b, -b)),
    small_fractions.map(lambda b: (b, -2 * b)),
)


class TestRecurrencesMatchBareiss:
    """The O(n^2) recurrences against the Bareiss leading minors they replace."""

    @given(pairs_with_loci, st.integers(0, 40))
    @example((Fraction(1), Fraction(-1)), 40)
    @example((Fraction(3, 2), Fraction(-3)), 40)
    @settings(max_examples=12, deadline=None)
    def test_rational_pairs(self, pair, n):
        b, c = pair
        # at (b, c) itself, and at the coprime integers (Db, Dc) / G where
        # generate computes, D the lcm of the denominators and G the gcd of
        # Db and Dc; Fraction moments usually leave the ring of ints
        scale = lcm(b.denominator, c.denominator)
        whole_b, whole_c = int(b * scale), int(c * scale)
        common = gcd(whole_b, whole_c) or 1
        for bv, cv in ((b, c), (whole_b // common, whole_c // common)):
            mu = moments(LBPFamily.constant(bv, cv), "p_recurrence", 2 * n + 1)
            assert_recurrences_match_bareiss(mu, cv, n)

    @given(st.sampled_from([1, -1, 2, DensePoly([0, -1]), DensePoly([0, -2])]),
           st.integers(0, 12))
    @settings(max_examples=15, deadline=None)
    def test_dense_polynomials(self, c, n):
        # at (x, 1) as generate computes (sym, sym); c = -x is b+c = 0 and
        # c = -2x is 2b+c = 0, where c has no inverse and only Hankel runs
        mu = moments(LBPFamily.constant(DensePoly([0, 1]), c), "p_recurrence", 2 * n + 1)
        assert_recurrences_match_bareiss(mu, None if type(c) is DensePoly else c, n)

    @given(st.integers(0, 8).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.sampled_from([0, 1, -1, 2, 3, -5, Fraction(1, 2), Fraction(-3, 2)]),
                 min_size=2 * n + 1, max_size=2 * n + 1),
        st.sampled_from([1, -1, 2, Fraction(1, 3), Fraction(-2, 5)]))))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_moments(self, drawn):
        # zero pivots and quotients outside the ints are common here
        n, tail, c = drawn
        assert_recurrences_match_bareiss([1, *tail], c, n)

    def test_inexact_quotient_falls_back(self, monkeypatch):
        # sigma_1 = (-3, 1, -5): alpha_0 + alpha_1 = 1 / -3 is no int
        calls = []
        bareiss = hankel_toeplitz._bareiss

        def counted(*args, **kwargs):
            calls.append(args)
            return bareiss(*args, **kwargs)

        monkeypatch.setattr(hankel_toeplitz, "_bareiss", counted)
        assert hankel_transform([1, 2, 1, 3, 1], 2) == [1, -3, -1]
        assert len(calls) == 1
        # the LBP moments at integers stay in the ring: no Bareiss pass
        calls.clear()
        mu = moments(LBPFamily.constant(3, -2), "p_recurrence", 20)
        assert hankel_transform(mu, 10) == hankel_closed_form(3, -2, 10)
        t_seq, tp_seq = toeplitz_dets(BiInfiniteMoments(mu[:12], -2, 10), 10)
        assert t_seq == toeplitz_closed_form(3, -2, 10)
        assert calls == []


class TestBiInfiniteMoments:
    def test_backward_values_unit_family(self):
        mu = moments(LBPFamily.constant(1, 1, order=8), "matrix_inverse", 8)
        bm = BiInfiniteMoments(list(mu), 1, 3)
        assert bm.moment(-1) == coerce_scalar(2)
        assert bm.moment(-2) == coerce_scalar(6)
        assert bm.moment(0) == coerce_scalar(1)
        assert bm.moment(3) == coerce_scalar(6)

    def test_backward_value_symbolic(self):
        b, c = PARAM_B, PARAM_C
        mu = moments(LBPFamily.constant(b, c, order=6), "matrix_inverse", 6)
        bm = BiInfiniteMoments(list(mu), c, 2)
        assert not (bm.moment(-1) - (b + c) / (c * c))

    @pytest.mark.parametrize("b, c", [(PARAM_B, PARAM_C), (Fraction(3, 2), Fraction(-1, 3)),
                                      (PARAM_C, -PARAM_C)])
    def test_backward_moments_follow_the_defining_relation(self, b, c):
        mu = moments(LBPFamily.constant(b, c, order=7), "gf_expansion", 7)
        bm = BiInfiniteMoments(list(mu), c, 6)
        assert len(bm.backward) == bm.depth == 6
        for k, value in enumerate(bm.backward):
            assert value * c ** (3 + 2 * k) == bm.forward[2 + k], k

    def test_backward_moments_are_not_an_argument(self):
        assert not hasattr(hankel_toeplitz, "extend_moments")
        with pytest.raises(TypeError):
            BiInfiniteMoments((1, 1, 2, 6), 1, 1, backward=(coerce_scalar(2),))

    def test_short_forward_list_rejected(self):
        with pytest.raises(ValueError, match="need 4 moments for backward depth 2"):
            BiInfiniteMoments([1, 1, 2], 1, 2)

    def test_unnormalized_moments_rejected(self):
        with pytest.raises(ValueError, match="mu_0 = 1"):
            BiInfiniteMoments([2, 1, 2], 1, 1)

    def test_out_of_range_access(self):
        bm = BiInfiniteMoments([1, 1, 2, 6], 1, 1)
        with pytest.raises(IndexError):
            bm.moment(-2)
        with pytest.raises(IndexError):
            bm.moment(9)

    def test_zero_c_rejected(self):
        with pytest.raises(ValueError, match="invertible c"):
            BiInfiniteMoments([1, 0, 0, 0], 0, 1)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth must be at least 0, got -2"):
            BiInfiniteMoments([1, 1, 2], 1, -2)


class TestToeplitz:
    def unit_bm(self, depth=6):
        mu = moments(LBPFamily.constant(1, 1, order=2 * depth + 2), "matrix_inverse",
                     2 * depth + 2)
        return BiInfiniteMoments(list(mu), 1, depth)

    def test_unit_values(self):
        t_seq, tp_seq = toeplitz_dets(self.unit_bm(), 4)
        assert t_seq == [coerce_scalar(v) for v in (1, -1, -1, 1, 1)]
        assert tp_seq == [coerce_scalar(v) for v in (1, -1, -1, 1, 1)]

    def test_symbolic_closed_form(self):
        b, c = PARAM_B, PARAM_C
        mu = moments(LBPFamily.constant(b, c, order=12), "matrix_inverse", 12)
        bm = BiInfiniteMoments(list(mu), c, 5)
        t_seq, _ = toeplitz_dets(bm, 5)
        expected = toeplitz_closed_form(b, c, 5)
        for n in range(6):
            assert not (t_seq[n] - expected[n]), n

    def test_shifted_determinant_values(self):
        b, c = PARAM_B, PARAM_C
        mu = moments(LBPFamily.constant(b, c, order=10), "matrix_inverse", 10)
        bm = BiInfiniteMoments(list(mu), c, 4)
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

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="n_max must be at least 0, got -3"):
            toeplitz_dets(self.unit_bm(depth=2), -3)


class TestRecovery:
    def test_symbolic(self):
        b, c = PARAM_B, PARAM_C
        mu = moments(LBPFamily.constant(b, c, order=12), "matrix_inverse", 12)
        bm = BiInfiniteMoments(list(mu), c, 5)
        t_seq, tp_seq = toeplitz_dets(bm, 5)
        for n in range(1, 5):
            got_b, got_c = recover_parameters(t_seq, tp_seq, n)
            assert not (got_b - b), n
            assert not (got_c - c), n

    @given(param_pairs)
    @settings(max_examples=10, deadline=None)
    def test_numeric(self, bc):
        bv, cv = bc
        mu = moments(LBPFamily.constant(bv, cv, order=8), "matrix_inverse", 8)
        bm = BiInfiniteMoments(list(mu), cv, 3)
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
        mu = moments(fam, "matrix_inverse", 12)
        bm = BiInfiniteMoments(list(mu), c, 5)
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
        mu = moments(fam, "matrix_inverse", 10)
        bm = BiInfiniteMoments(list(mu), cv, 4)
        expected = rows_by_recurrence(fam, 4)
        for n in range(5):
            assert lbp_by_determinant(bm, n) == expected[n], n

    def test_vanishing_leading_minor_raises(self):
        # t_1 = mu_0^2 - mu_1 mu_{-1} = 0 with mu_{-1} = mu_2 / c^3 = 1
        bm = BiInfiniteMoments([1, 1, 1], 1, 1)
        with pytest.raises(ZeroDivisionError, match="^vanishing Toeplitz determinant$"):
            lbp_by_determinant(bm, 2)

    def test_depth_guard(self):
        bm = BiInfiniteMoments([1, 1, 2, 6], 1, 1)
        with pytest.raises(ValueError):
            lbp_by_determinant(bm, 4)

    def test_negative_degree_rejected(self):
        bm = BiInfiniteMoments([1, 1, 2, 6], 1, 1)
        with pytest.raises(ValueError, match="n must be at least 0, got -1"):
            lbp_by_determinant(bm, -1)
