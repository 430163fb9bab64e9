"""End-to-end acceptance gate.

Each test covers one release criterion and registers exactly one pass/fail
line with the terminal summary (see conftest).  The criteria pin down the
library's headline identities: moment closed forms, determinant evaluations,
continued fraction equivalences, the worked example tables, and the
randomized structural properties.
"""

import functools
import random
from fractions import Fraction

from conftest import record_criterion

from riordanlbp.cfrac import (
    cf_expand,
    constant_tfraction,
    jfraction_from_moments,
    moment_jfraction,
    moment_sfraction,
    tfraction_closed_form,
    verify_uv_equality,
)
from riordanlbp.combinat import colored_path_count, schroeder_path_statistics
from riordanlbp.hankel_toeplitz import (
    BiInfiniteMoments,
    hankel_closed_form,
    hankel_transform,
    lbp_by_determinant,
    recover_parameters,
    toeplitz_closed_form,
    toeplitz_dets,
)
from riordanlbp.lbp import (
    MOMENT_ROUTES,
    LBPFamily,
    moment_gf,
    moment_matrix,
    moments,
    rows_by_recurrence,
)
from riordanlbp.oeis import check_sequence, load_fixture
from riordanlbp.orthopoly import verify_factorizations
from riordanlbp.riordan import (
    RiordanArray,
    binomial_array,
    has_column_shift,
    production_matrix,
)
from riordanlbp.scalars import PARAM_B, PARAM_C, coerce_scalar
from riordanlbp.scenarios import run_scenario
from riordanlbp.series import TruncatedSeries


def criterion(number, label):
    """Record the verdict line even when the body dies mid-assertion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            ok = False
            try:
                fn()
                ok = True
            finally:
                record_criterion(number, label, ok)

        return run

    return wrap


def assert_series_equal(got, expected, context):
    assert got == expected, context


@criterion(1, "symbolic moments: closed forms and agreement of all six routes")
def test_criterion_01_moments():
    b, c = PARAM_B, PARAM_C
    fam = LBPFamily.constant(b, c, order=12)
    baseline = moments(fam, "matrix_inverse", 12)
    closed = [
        b**0,
        c,
        c * (b + c),
        c * (b + c) * (2 * b + c),
        c * (b + c) * (5 * b * b + 5 * b * c + c * c),
    ]
    for n, value in enumerate(closed):
        assert not (baseline[n] - value), f"moment {n}"
    for route in MOMENT_ROUTES:
        got = moments(fam, route=route, n_max=12)
        for n in range(13):
            assert not (got[n] - baseline[n]), (route, n)


@criterion(2, "Hankel determinants match (bc)^n (b(b+c))^binom(n,2) through n=5")
def test_criterion_02_hankel():
    mu = moments(LBPFamily.constant(PARAM_B, PARAM_C, order=11), "matrix_inverse", 11)
    got = hankel_transform(list(mu), 5)
    expected = hankel_closed_form(PARAM_B, PARAM_C, 5)
    for n in range(6):
        assert not (got[n] - expected[n]), f"h_{n}"


@criterion(3, "Toeplitz determinants match (-b/c)^binom(n+1,2) and recover (b, c)")
def test_criterion_03_toeplitz():
    b, c = PARAM_B, PARAM_C
    mu = moments(LBPFamily.constant(b, c, order=12), "matrix_inverse", 12)
    bm = BiInfiniteMoments(list(mu), c, 5)
    t_seq, tp_seq = toeplitz_dets(bm, 5)
    expected = toeplitz_closed_form(b, c, 5)
    for n in range(6):
        assert not (t_seq[n] - expected[n]), f"t_{n}"
    for n in range(1, 5):
        got_b, got_c = recover_parameters(t_seq, tp_seq, n)
        assert not (got_b - b), f"b at n={n}"
        assert not (got_c - c), f"c at n={n}"


@criterion(4, "S-, J- and T-fraction expansions all reproduce the moment series")
def test_criterion_04_continued_fractions():
    b, c = PARAM_B, PARAM_C
    gf = moment_gf(b, c, 12)
    assert_series_equal(cf_expand(moment_sfraction(b, c, 12), 12), gf, "S shape")
    assert_series_equal(cf_expand(moment_jfraction(b, c, 12), 12), gf, "J shape")
    shifted = tfraction_closed_form(b, c, 12)
    assert_series_equal(
        cf_expand(constant_tfraction(b, c, 12), 12), shifted, "T shape"
    )
    lifted = TruncatedSeries.constant(1, 11) + (
        c * shifted.truncate(11)
    ).shift_up(1)
    assert_series_equal(lifted, gf.truncate(11), "shift lift")
    assert verify_uv_equality(PARAM_C, order=12), "u = v"


@criterion(5, "unit-parameter shifted moments are the large Schroeder numbers")
def test_criterion_05_schroeder():
    fixture = load_fixture("A006318")
    series = tfraction_closed_form(1, 1, len(fixture) - 1)
    got = [int(series.coeffs[n]) for n in range(len(fixture))]
    assert got == list(fixture.terms), "fixture prefix"
    for colors in (1, 2, 3):
        enumerator = tfraction_closed_form(1, colors, 8)
        for n in range(9):
            stats = schroeder_path_statistics(n)
            assert colored_path_count(stats, colors) == enumerator.coeffs[n], (colors, n)


@criterion(6, "periodic-coefficient tables and the column-shift dichotomy")
def test_criterion_06_periodic_family():
    (report,) = run_scenario("example2", order=12)
    assert report.passed, [chk.name for chk in report.checks if not chk.passed]
    fam = LBPFamily.periodic([1, 2], [1], order=8)
    periodic_block = production_matrix(moment_matrix(fam, 8))
    assert not has_column_shift(periodic_block), "periodic block must not shift"
    const = LBPFamily.constant(PARAM_B, PARAM_C, order=8)
    constant_block = production_matrix(moment_matrix(const, 8))
    assert has_column_shift(constant_block), "constant block must shift"


@criterion(7, "parameter-specialized triangles and the series reversion cross-check")
def test_criterion_07_specializations():
    for name in ("example3", "example4"):
        (report,) = run_scenario(name, order=12)
        assert report.passed, (
            name,
            [chk.name for chk in report.checks if not chk.passed],
        )
    assert check_sequence("A103210").passed, "reversion fixture"


@criterion(8, "array factorizations and the binomial change-of-basis identities")
def test_criterion_08_factorizations():
    report = verify_factorizations(PARAM_B, PARAM_C, order=8)
    assert report.passed, [chk.name for chk in report.checks if not chk.passed]


@criterion(9, "bordered Toeplitz determinants reproduce the polynomials")
def test_criterion_09_determinantal_polynomials():
    b, c = PARAM_B, PARAM_C
    fam = LBPFamily.constant(b, c, order=12)
    mu = moments(fam, "matrix_inverse", 12)
    bm = BiInfiniteMoments(list(mu), c, 5)
    expected = rows_by_recurrence(fam, 5)
    for n in range(6):
        got = lbp_by_determinant(bm, n)
        for k in range(n + 1):
            assert not (got[k] - expected[n][k]), (n, k)


def _sample_parameters(count):
    rng = random.Random(402337)
    pairs = []
    while len(pairs) < count:
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if b and c and b + c:
            pairs.append((b, c))
    return pairs


@criterion(10, "randomized structural properties over twelve parameter choices")
def test_criterion_10_randomized_properties():
    order = 8
    t = TruncatedSeries.identity(order)
    ident = RiordanArray(TruncatedSeries([1], order), t)
    for bv, cv in _sample_parameters(12):
        fam = LBPFamily.constant(bv, cv, order=order)

        # group axioms on arrays derived from the sample
        a = binomial_array(bv, order)
        m = RiordanArray(
            TruncatedSeries.ratio([1], [1, cv], order),
            TruncatedSeries.ratio([0, 1, -bv], [1, cv], order),
        )
        p = binomial_array(cv, order)
        assert (a * m) * p == a * (m * p), (bv, cv, "associativity")
        assert a * ident == a and ident * a == a, (bv, cv, "identity")
        assert m * m.inverse() == ident, (bv, cv, "right inverse")
        assert m.inverse() * m == ident, (bv, cv, "left inverse")

        # reversion round trip on the array's second component
        assert m.f.reversion().compose(m.f) == t, (bv, cv, "reversion")

        # sqrt consistency for the discriminant series
        root = TruncatedSeries(
            [1, -2 * (2 * coerce_scalar(bv) + cv), coerce_scalar(cv) ** 2],
            order,
        ).sqrt()
        assert root * root == TruncatedSeries(
            [1, -2 * (2 * coerce_scalar(bv) + cv), coerce_scalar(cv) ** 2],
            order,
        ), (bv, cv, "sqrt")

        # extraction round trip: moments -> J shape -> moments
        mu = moments(fam, "matrix_inverse", order)
        extracted = jfraction_from_moments(list(mu))
        reference = moment_jfraction(bv, cv, order)
        assert extracted.diag == reference.diag[: len(extracted.diag)], (
            bv,
            cv,
            "extracted diagonal",
        )
        assert extracted.sub == reference.sub[: len(extracted.sub)], (
            bv,
            cv,
            "extracted couplings",
        )
        assert cf_expand(extracted, 2 * len(extracted.sub) + 1) == moment_gf(
            bv, cv, order
        ), (bv, cv, "extraction expansion")
