"""Continued fractions: expansion, builders, and Hankel-quotient extraction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlbp import cfrac, hankel_toeplitz, series
from riordanlbp.cfrac import (
    JFraction,
    SFraction,
    TFraction,
    cf_expand,
    constant_tfraction,
    hankel_from_jfraction,
    jfraction_from_moments,
    moment_jfraction,
    moment_sfraction,
    tfraction_closed_form,
    tfraction_via_transform,
    verify_uv_equality,
)
from riordanlbp.combinat import catalan
from riordanlbp.lbp import LBPFamily, moment_gf, moments, rows_by_recurrence, shifted_moment_sum
from riordanlbp.orthopoly import ortho_rows_by_recurrence
from riordanlbp.scalars import PARAM_B, PARAM_C, DensePoly, coerce_scalar
from riordanlbp.series import TruncatedSeries

ORDER = 10

nonzero_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
).filter(lambda q: q != 0)

param_pairs = st.tuples(nonzero_fractions, nonzero_fractions).filter(
    lambda bc: bc[0] + bc[1] != 0
)


class TestAdequacy:
    def test_sfraction_needs_enough_levels(self):
        short = SFraction((1, 1, 1))
        with pytest.raises(ValueError):
            cf_expand(short, 4)
        cf_expand(short, 3)  # exactly enough

    def test_jfraction_needs_enough_levels(self):
        short = JFraction((1, 1), (1,))
        with pytest.raises(ValueError):
            cf_expand(short, 5)
        cf_expand(short, 3)

    def test_tfraction_needs_enough_levels(self):
        short = TFraction((1, 1), (1,))
        with pytest.raises(ValueError):
            cf_expand(short, 3)
        cf_expand(short, 2)

    @pytest.mark.parametrize("cf", [SFraction((1,)), JFraction((1,), (1,)), TFraction((1,), (1,))])
    def test_negative_order_rejected(self, cf):
        with pytest.raises(ValueError, match="order must be at least 0, got -1"):
            cf_expand(cf, -1)


def reference_expand(cf, order):
    """The definition cf_expand shortcuts: every level at the full order,
    and t multiplied in as a full series product."""
    levels = cf.levels_for(order)
    one = TruncatedSeries.constant(1, order)
    t = TruncatedSeries([0, 1], order)
    value = one
    if isinstance(cf, SFraction):
        for a in reversed(cf.alphas[:levels]):
            value = one / (one - a * t * value)
        return value
    step = t * t if isinstance(cf, JFraction) else t
    nums = cf.sub if isinstance(cf, JFraction) else cf.num
    for k in reversed(range(levels)):
        body = one - cf.diag[k] * t
        if k < len(nums):
            body = body - nums[k] * step * value
        value = one / body
    return value


def levels_expand(cf, order):
    """One series reciprocal per level, level k expanded only to order - k
    (order - 2k for the J shape), and t multiplied in as a shift."""
    if isinstance(cf, SFraction):
        step, diag, nums = 1, (), cf.alphas
    elif isinstance(cf, JFraction):
        step, diag, nums = 2, cf.diag, cf.sub
    else:
        step, diag, nums = 1, cf.diag, cf.num
    levels = cf.levels_for(order)
    value = TruncatedSeries.constant(1, max(order - step * levels, 0))
    for k in reversed(range(levels)):
        n = order - step * k
        body = TruncatedSeries([1, -diag[k]] if diag else [1], n)
        if k < len(nums) and n >= step:
            body = body - (value * nums[k]).shift_up(step)
        value = body.reciprocal()
    return value


def same_series(got, want):
    return got.order == want.order and [str(v) for v in got.coeffs] == [
        str(v) for v in want.coeffs]


fractions_with_zero = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def fractions_and_orders(draw):
    """A descriptor of any shape with just enough levels (or a few more)."""
    order = draw(st.integers(min_value=0, max_value=6))
    shape = draw(st.sampled_from("sjt"))

    def levels(least):
        return tuple(draw(st.lists(fractions_with_zero, min_size=max(least, 0),
                                   max_size=max(least, 0) + 2)))

    if shape == "s":
        return SFraction(levels(order)), order
    if shape == "j":
        return JFraction(levels((order + 1) // 2), levels(order // 2)), order
    return TFraction(levels(order), levels(order - 1)), order


BUILDERS = (moment_sfraction, moment_jfraction, constant_tfraction)

X = DensePoly([0, 1])

#: (x, 1) and coprime integers: (9, -2) is the benchmark's (141/86, -47/129)
#: scaled, then the b+c = 0 and 2b+c = 0 loci and two signs
GENERATE_POINTS = ((X, 1), (9, -2), (1, -1), (1, -2), (2, 3), (-3, 2))


@st.composite
def builder_descriptors(draw):
    """A moment builder's descriptor, symbolic or on the b+c=0 / 2b+c=0 locus."""
    order = draw(st.integers(min_value=0, max_value=14))
    builder = draw(st.sampled_from(BUILDERS))
    bv = draw(nonzero_fractions)
    b, c = draw(st.sampled_from([(PARAM_B, PARAM_C), (bv, -bv), (bv, -2 * bv)]))
    return builder(b, c, order), order


class TestConvergentRecurrence:
    @given(st.one_of(fractions_and_orders(), builder_descriptors()))
    @settings(max_examples=200, deadline=None)
    def test_matches_both_references(self, cf_order):
        cf, order = cf_order
        got = cf_expand(cf, order)
        assert same_series(got, reference_expand(cf, order))
        assert same_series(got, levels_expand(cf, order))

    @pytest.mark.parametrize("order", range(15))
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_symbolic_builders(self, builder, order):
        cf = builder(PARAM_B, PARAM_C, order)
        got = cf_expand(cf, order)
        assert same_series(got, reference_expand(cf, order))
        assert same_series(got, levels_expand(cf, order))

    @pytest.mark.parametrize("b, c", GENERATE_POINTS)
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_generate_descriptors(self, builder, b, c):
        # the descriptors generate builds: (b, c) = (x, 1) on DensePoly for
        # a symbolic side, coprime integers for rational ones
        for order in range(21):
            cf = builder(b, c, order)
            got = cf_expand(cf, order)
            assert got.order == order
            assert got == reference_expand(cf, order), order
            if type(b) is int:
                assert all(type(v) is int for v in got.coeffs), order


class TestNoSeriesDivision:
    @pytest.mark.parametrize("b, c", [(PARAM_B, PARAM_C), (X, 1), (9, -2)])
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_expansion_divides_no_series(self, builder, b, c, monkeypatch):
        def refused(num, den):
            raise AssertionError("series division")

        cf = builder(b, c, 14)
        want = reference_expand(cf, 14)
        monkeypatch.setattr(series, "_series_div", refused)
        assert cf_expand(cf, 14) == want


#: a RationalFunction entry: cf_expand sums each path row with one
#: scalars.dot where an entry is one, wherever it stands
RATIONAL_ENTRY = PARAM_B / (PARAM_B + PARAM_C)
PLAIN_ENTRIES = (2, Fraction(-1, 3), 1, 3, Fraction(1, 2))


def mixed_descriptor(shape, where):
    """A descriptor for order 5 on PLAIN_ENTRIES, with RATIONAL_ENTRY put
    in as its first or last entry (diagonal before numerators), or nowhere."""
    if shape == "s":
        parts = [list(PLAIN_ENTRIES)]
    elif shape == "j":
        parts = [list(PLAIN_ENTRIES[:3]), list(PLAIN_ENTRIES[3:])]
    else:
        parts = [list(PLAIN_ENTRIES), list(PLAIN_ENTRIES[1:])]
    if where == "first":
        parts[0][0] = RATIONAL_ENTRY
    elif where == "last":
        parts[-1][-1] = RATIONAL_ENTRY
    return {"s": SFraction, "j": JFraction, "t": TFraction}[shape](*parts)


class TestKernelChoice:
    @pytest.mark.parametrize("where", ["first", "last", "none"])
    @pytest.mark.parametrize("shape", "sjt")
    def test_any_rational_function_entry_takes_the_fused_sums(self, shape, where,
                                                              monkeypatch):
        cf = mixed_descriptor(shape, where)
        want = reference_expand(cf, 5)
        calls = []
        fused_dot = cfrac.dot

        def counted(*args):
            calls.append(args)
            return fused_dot(*args)

        monkeypatch.setattr(cfrac, "dot", counted)
        assert same_series(cf_expand(cf, 5), want)
        assert bool(calls) == (where != "none")


def jfraction_denominators(jf, n_max):
    """Q_0..Q_n_max by Q_{k+1} = (1 - d_k t) Q_k - l_k t^2 Q_{k-1}, where
    l_k = jf.sub[k-1] is the coupling below level k-1."""
    one = jf.diag[0] ** 0
    rows = [[one], [one, -jf.diag[0]]]
    for k in range(1, n_max):
        d, lam, prev, prev2 = jf.diag[k], jf.sub[k - 1], rows[k], rows[k - 1]
        rows.append([p - d * q - lam * r
                     for p, q, r in zip(prev + [0], [0] + prev, [0, 0] + prev2)])
    return rows


class TestJFractionDenominators:
    @pytest.mark.parametrize("b, c", [(PARAM_B, PARAM_C), (1, -1), (1, -2),
                                      (Fraction(3, 2), Fraction(-1, 3))])
    def test_reversed_denominators_are_q_rows(self, b, c):
        # Flajolet 1980: the J-fraction denominators are the orthogonal
        # polynomials, here x^k Q_k(1/x) = the "q" family row k
        rows = jfraction_denominators(moment_jfraction(b, c, 14), 8)
        assert [row[::-1] for row in rows] == ortho_rows_by_recurrence("q", b, c, 8)


def tfraction_denominators(tf, n_max):
    """Q_0..Q_n_max by Q_{k+1} = (1 - c_k t) Q_k - b_k t Q_{k-1}, where
    b_k = tf.num[k-1] is the numerator below level k-1."""
    one = tf.diag[0] ** 0
    rows = [[one], [one, -tf.diag[0]]]
    for k in range(1, n_max):
        c, b, prev, prev2 = tf.diag[k], tf.num[k - 1], rows[k], rows[k - 1]
        rows.append([p - c * q - b * r
                     for p, q, r in zip(prev + [0], [0] + prev, [0] + prev2 + [0])])
    return rows


class TestTFractionDenominators:
    @pytest.mark.parametrize("family", [
        LBPFamily.constant(PARAM_B, PARAM_C),
        LBPFamily.constant(Fraction(141, 86), Fraction(-47, 129)),
        LBPFamily.periodic((2, Fraction(-1, 2), 3), (Fraction(1, 3), 5)),
    ], ids=["sym", "rational", "periodic"])
    def test_reversed_denominators_are_lbp_rows(self, family):
        # Hendriksen & van Rossum 1986, Zhedanov 1998: the T-fraction with
        # diagonal c_0, c_1, ... and numerators b_1, b_2, ... has the
        # denominators x^k Q_k(1/x) = P_k, the LBP rows
        tf = TFraction([family.c_at(k) for k in range(8)],
                       [family.b_at(k + 1) for k in range(8)])
        rows = tfraction_denominators(tf, 7)
        assert [row[::-1] for row in rows] == rows_by_recurrence(family, 7)


class TestExpansion:
    def test_geometric_single_level_depth(self):
        # one alpha expands 1/(1 - a t) exactly to first order only
        s = cf_expand(SFraction((coerce_scalar(3),)), 1)
        assert s.coeffs[0] == coerce_scalar(1)
        assert s.coeffs[1] == coerce_scalar(3)

    def test_catalan_sfraction(self):
        s = cf_expand(SFraction((1,) * ORDER), ORDER)
        assert [s.coeffs[n] for n in range(ORDER + 1)] == [
            coerce_scalar(catalan(n)) for n in range(ORDER + 1)
        ]

    def test_catalan_sfraction_scales_by_parameter(self):
        s = cf_expand(SFraction((PARAM_B,) * 6), 6)
        for n in range(7):
            assert not (s.coeffs[n] - catalan(n) * PARAM_B**n), n


class TestMomentFractions:
    def test_sfraction_matches_moment_gf_symbolically(self):
        got = cf_expand(moment_sfraction(PARAM_B, PARAM_C, 12), 12)
        assert got == moment_gf(PARAM_B, PARAM_C, 12)

    def test_jfraction_matches_moment_gf_symbolically(self):
        got = cf_expand(moment_jfraction(PARAM_B, PARAM_C, 12), 12)
        assert got == moment_gf(PARAM_B, PARAM_C, 12)

    def test_tfraction_matches_shifted_closed_form_symbolically(self):
        got = cf_expand(constant_tfraction(PARAM_B, PARAM_C, 12), 12)
        assert got == tfraction_closed_form(PARAM_B, PARAM_C, 12)

    def test_moment_gf_is_one_plus_ct_times_shifted(self):
        b, c = PARAM_B, PARAM_C
        shifted = tfraction_closed_form(b, c, 11)
        lifted = TruncatedSeries.constant(1, 11) + (c * shifted).shift_up(1)
        assert lifted == moment_gf(b, c, 11)

    def test_transform_route_matches_closed_form(self):
        assert tfraction_via_transform(PARAM_B, PARAM_C, 9) == tfraction_closed_form(
            PARAM_B, PARAM_C, 9
        )

    @given(param_pairs)
    @settings(max_examples=10, deadline=None)
    def test_all_shapes_agree_numerically(self, bc):
        bv, cv = bc
        gf = moment_gf(bv, cv, 8)
        assert cf_expand(moment_sfraction(bv, cv, 8), 8) == gf
        assert cf_expand(moment_jfraction(bv, cv, 8), 8) == gf


class TestMomentSums:
    def test_shifted_sum_matches_tfraction(self):
        series = tfraction_closed_form(PARAM_B, PARAM_C, 8)
        for n in range(9):
            assert not (series.coeffs[n] - shifted_moment_sum(PARAM_B, PARAM_C, n))


class TestExtraction:
    def test_round_trip_symbolic(self):
        mu = moments(LBPFamily.constant(PARAM_B, PARAM_C, order=10), "matrix_inverse", 10)
        got = jfraction_from_moments(list(mu))
        expected = moment_jfraction(PARAM_B, PARAM_C, 8)
        for i, value in enumerate(got.diag):
            assert not (value - expected.diag[i]), ("diag", i)
        for i, value in enumerate(got.sub):
            assert not (value - expected.sub[i]), ("sub", i)

    def test_unit_parameters(self):
        mu = moments(LBPFamily.constant(1, 1, order=10), "matrix_inverse", 10)
        got = jfraction_from_moments(list(mu))
        assert list(got.diag) == [coerce_scalar(v) for v in (1, 3, 3, 3, 3)]
        assert list(got.sub) == [coerce_scalar(v) for v in (1, 2, 2, 2)]

    def test_catalan_moments(self):
        mu = [catalan(n) for n in range(11)]
        got = jfraction_from_moments(mu)
        assert list(got.diag) == [coerce_scalar(v) for v in (1, 2, 2, 2, 2)]
        assert list(got.sub) == [coerce_scalar(v) for v in (1, 1, 1, 1)]

    @given(param_pairs)
    @settings(max_examples=12, deadline=None)
    def test_round_trip_numeric(self, bc):
        bv, cv = bc
        mu = moments(LBPFamily.constant(bv, cv, order=8), "matrix_inverse", 8)
        try:
            got = jfraction_from_moments(list(mu))
        except ZeroDivisionError:
            # a vanishing Hankel determinant is a legitimate obstruction
            return
        assert cf_expand(got, 2 * len(got.sub) + 1) == moment_gf(
            bv, cv, 2 * len(got.sub) + 1
        )

    def test_one_elimination_and_no_determinant(self, monkeypatch):
        # h_n and s_n both come off one Bareiss pass over the Hankel matrix
        calls = []
        monkeypatch.setattr(hankel_toeplitz, "determinant", lambda rows: calls.append(rows))
        mu = moments(LBPFamily.constant(PARAM_B, PARAM_C, order=13), "gf_expansion", 13)
        got = jfraction_from_moments(list(mu))
        assert calls == []
        assert list(got.diag) == [PARAM_C] + [2 * PARAM_B + PARAM_C] * 6

    def test_vanishing_hankel_reported(self):
        # moments of a two-point mass have rank-2 Hankel matrices
        mu = [Fraction(1), Fraction(0), Fraction(1), Fraction(0), Fraction(1),
              Fraction(0), Fraction(1)]
        with pytest.raises(ZeroDivisionError):
            jfraction_from_moments(mu)

    @given(nonzero_fractions)
    @settings(max_examples=15, deadline=None)
    def test_vanishing_hankel_names_depth(self, bv):
        # c = -b: h_0 = 1, h_1 = bc, and every later h_n vanishes
        mu = moments(LBPFamily.constant(bv, -bv, order=8), "gf_expansion", 8)
        with pytest.raises(ZeroDivisionError,
                           match="^vanishing Hankel determinant at depth 2$"):
            jfraction_from_moments(list(mu))

    @given(nonzero_fractions)
    @settings(max_examples=15, deadline=None)
    def test_zero_diagonal_locus(self, bv):
        # c = -2b: the J-diagonal 2b+c vanishes but no coupling does
        cv = -2 * bv
        mu = moments(LBPFamily.constant(bv, cv, order=8), "gf_expansion", 8)
        got = jfraction_from_moments(list(mu))
        assert got.diag == (cv, 0, 0, 0)
        assert got.sub == (bv * cv, bv * (bv + cv), bv * (bv + cv))
        assert all(got.sub)

    def test_depth_below_one_rejected(self):
        # the first coupling h_1 / h_0^2 needs h_1, so 4 moments at least
        with pytest.raises(ValueError, match="needs depth >= 1, i.e. 4 moments"):
            jfraction_from_moments([1, 1, 2])

    def test_hankel_from_jfraction(self):
        # couplings (1, 2, 2, ...) give dets 1, 1, 2, 8, 64 at b = c = 1
        sub = [coerce_scalar(1)] + [coerce_scalar(2)] * 3
        got = hankel_from_jfraction(sub, 4)
        assert got == [coerce_scalar(v) for v in (1, 1, 2, 8, 64)]


class TestUVEquality:
    def test_symbolic(self):
        assert verify_uv_equality(PARAM_C, order=12) is True

    @pytest.mark.parametrize("cv", [1, 2, Fraction(-1, 2)])
    def test_numeric(self, cv):
        assert verify_uv_equality(cv, order=10) is True

    def test_closed_form_mismatch_fails(self, monkeypatch):
        monkeypatch.setattr(cfrac, "tfraction_closed_form",
                            lambda b, c, order: TruncatedSeries.constant(2, order))
        assert verify_uv_equality(1, order=6) is False
