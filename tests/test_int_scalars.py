"""Raw ints are exact scalars: every public route takes them, keeps integral
values as ints where it can, and never produces a float."""

import inspect
from fractions import Fraction

import pytest

import riordanlbp
from riordanlbp import (
    PARAM_B,
    BiInfiniteMoments,
    BivarPoly,
    JFraction,
    LBPFamily,
    LowerTriangularMatrix,
    RationalFunction,
    RiordanArray,
    SFraction,
    ScenarioReport,
    TFraction,
    TruncatedSeries,
    binomial_array,
    catalan_series,
    cf_expand,
    coefficient_array,
    coefficient_matrix,
    determinant,
    entry_closed_form,
    has_column_shift,
    hankel_transform,
    inverse_entry_lagrange,
    jfraction_from_moments,
    lbp_by_determinant,
    moment_gf,
    moment_matrix,
    moment_production,
    moments,
    ortho_array,
    ortho_rows_by_recurrence,
    production_matrix,
    production_of_inverse,
    recover_parameters,
    rows_by_recurrence,
    tfraction_closed_form,
    toeplitz_dets,
    verify_factorizations,
    verify_uv_equality,
)
from riordanlbp.cfrac import constant_tfraction, moment_jfraction, moment_sfraction
from riordanlbp.combinat import colored_path_count, schroeder_path_statistics
from riordanlbp.lbp import MOMENT_ROUTES
from riordanlbp.orthopoly import ORTHO_KINDS


def leaves(x):
    """Every scalar inside a result, through containers and the package's types."""
    if isinstance(x, (list, tuple)):
        for v in x:
            yield from leaves(v)
    elif isinstance(x, TruncatedSeries):
        yield from leaves(x.coeffs)
    elif isinstance(x, LowerTriangularMatrix):
        yield from leaves(x.rows)
    elif isinstance(x, RiordanArray):
        yield from leaves((x.g, x.f))
    elif isinstance(x, SFraction):
        yield from leaves((x.alphas,))
    elif isinstance(x, JFraction):
        yield from leaves((x.diag, x.sub))
    elif isinstance(x, TFraction):
        yield from leaves((x.diag, x.num))
    elif isinstance(x, ScenarioReport):
        yield from leaves([check.passed for check in x.checks])
    elif isinstance(x, RationalFunction):
        yield from leaves(x.num)
    elif isinstance(x, BivarPoly):
        yield from x.terms.values()
    else:
        yield x


def _moments(b, c, n_max=9):
    return moments(LBPFamily.constant(b, c), "catalan_sum", n_max)


def _bi(b, c, depth=4):
    return BiInfiniteMoments(_moments(b, c, depth + 1), c, depth)


def _toeplitz(b, c):
    return toeplitz_dets(_bi(b, c), 4)


# public name[variant] -> the route at (b, c)
ROUTES = {
    **{f"moments[{route}]": lambda b, c, route=route: moments(LBPFamily.constant(b, c), route, 8)
       for route in MOMENT_ROUTES},
    "moment_gf": lambda b, c: moment_gf(b, c, 8),
    "tfraction_closed_form": lambda b, c: tfraction_closed_form(b, c, 8),
    "cf_expand[s]": lambda b, c: cf_expand(moment_sfraction(b, c, 8), 8),
    "cf_expand[j]": lambda b, c: cf_expand(moment_jfraction(b, c, 8), 8),
    "cf_expand[t]": lambda b, c: cf_expand(constant_tfraction(b, c, 8), 8),
    "SFraction": lambda b, c: SFraction((c, b, b + c)),
    "JFraction": lambda b, c: JFraction((c, 2 * b + c), (b * c, b * (b + c))),
    "TFraction": lambda b, c: TFraction((c, c), (b, b)),
    **{f"ortho_array[{kind}]": lambda b, c, kind=kind: ortho_array(kind, b, c, 6).matrix(7)
       for kind in ORTHO_KINDS},
    **{f"ortho_rows_by_recurrence[{kind}]":
       lambda b, c, kind=kind: ortho_rows_by_recurrence(kind, b, c, 6) for kind in ORTHO_KINDS},
    "RiordanArray.inverse[q]": lambda b, c: ortho_array("q", b, c, 6).inverse(),
    "jfraction_from_moments": lambda b, c: jfraction_from_moments(_moments(b, c)),
    "hankel_transform": lambda b, c: hankel_transform(_moments(b, c), 4),
    "BiInfiniteMoments": lambda b, c: _bi(b, c).backward,
    "toeplitz_dets": _toeplitz,
    "lbp_by_determinant": lambda b, c: [lbp_by_determinant(_bi(b, c), n) for n in range(4)],
    "recover_parameters": lambda b, c: recover_parameters(*_toeplitz(b, c), 2),
    "determinant": lambda b, c: determinant([[b, c, 1], [c, b + c, b], [1, b * c, c]]),
    "determinant[zero pivot]": lambda b, c: determinant([[0, b, 1], [c, 0, b], [1, c, 0]]),
    "TruncatedSeries.__truediv__": lambda b, c: (
        TruncatedSeries([1, b], 6) / TruncatedSeries([1, c, b], 6),
        TruncatedSeries([1, b], 6) / b),
    "TruncatedSeries.__rtruediv__": lambda b, c: b / TruncatedSeries([1, c], 6),
    "TruncatedSeries.sqrt": lambda b, c: TruncatedSeries([1, -2 * (2 * b + c), c * c], 6).sqrt(),
    "TruncatedSeries.reversion": lambda b, c: TruncatedSeries([0, 1, b, c], 6).reversion(),
    "TruncatedSeries.compose": lambda b, c: TruncatedSeries([1, b, c], 6).compose(
        TruncatedSeries([0, c, b], 6)),
    "TruncatedSeries.__pow__": lambda b, c: TruncatedSeries([1, b, c], 6) ** -2,
    "catalan_series": lambda b, c: catalan_series(6) * b,
    "binomial_array": lambda b, c: binomial_array(b, 6).inverse(),
    "coefficient_array": lambda b, c: coefficient_array(LBPFamily.constant(b, c), 6).inverse(),
    "coefficient_matrix": lambda b, c: coefficient_matrix(LBPFamily.constant(b, c), 7),
    "rows_by_recurrence": lambda b, c: rows_by_recurrence(LBPFamily.constant(b, c), 6),
    "LBPFamily.periodic": lambda b, c: moments(
        LBPFamily.periodic((b, c), (c, b + c)), "matrix_inverse", 8),
    "moment_matrix": lambda b, c: moment_matrix(LBPFamily.constant(b, c), 7),
    "LowerTriangularMatrix.__mul__": lambda b, c: (
        coefficient_matrix(LBPFamily.constant(b, c), 5)
        * moment_matrix(LBPFamily.constant(c, b), 5)),
    "production_matrix": lambda b, c: production_matrix(
        coefficient_matrix(LBPFamily.constant(b, c), 7)),
    "production_of_inverse": lambda b, c: production_of_inverse(
        coefficient_matrix(LBPFamily.constant(b, c), 7)),
    "moment_production": lambda b, c: moment_production(LBPFamily.constant(b, c), 6),
    "has_column_shift": lambda b, c: has_column_shift(production_matrix(
        binomial_array(b, 6).matrix(7))),
    "entry_closed_form": lambda b, c: [entry_closed_form(6, k, b, c) for k in range(7)],
    "inverse_entry_lagrange": lambda b, c: [inverse_entry_lagrange(6, k, b, c)
                                            for k in range(7)],
    "verify_factorizations": lambda b, c: verify_factorizations(b, c, 4),
    "verify_uv_equality": lambda b, c: verify_uv_equality(c, 6),
    "BivarPoly": lambda b, c: ((BivarPoly.b() * b + c) ** 2,
                               BivarPoly.b().substitute(b, c), BivarPoly.c().evaluate(b, c)),
    "RationalFunction": lambda b, c: (PARAM_B * b / c, (PARAM_B + b).evaluate(b, c)),
}
# off b+c = 0 and 2b+c = 0, with the units 1 and -1 among the values and the sums
POINTS = [(2, 3), (1, 1), (-3, 2), (1, -3), (5, -1)]
# public names no route needs to take an int through
NOT_SCALAR_ROUTES = {"parse_rational", "Check", "ScenarioReport"}


@pytest.mark.parametrize("point", POINTS, ids=str)
@pytest.mark.parametrize("name", sorted(ROUTES))
def test_ints_give_no_float_and_the_fraction_value(name, point):
    b, c = point
    got = list(leaves(ROUTES[name](b, c)))
    assert all(isinstance(v, (int, Fraction)) for v in got), got
    assert got == list(leaves(ROUTES[name](Fraction(b), Fraction(c))))


def test_every_public_route_is_sent_ints():
    public = {name for name in riordanlbp.__all__
              if inspect.isfunction(getattr(riordanlbp, name))
              or inspect.isclass(getattr(riordanlbp, name))}
    covered = {name.split(".")[0].split("[")[0] for name in ROUTES}
    assert public - NOT_SCALAR_ROUTES <= covered


@pytest.mark.parametrize("point", POINTS, ids=str)
def test_int_tables_stay_int(point):
    b, c = point
    fam = LBPFamily.constant(b, c)
    mu = moments(fam, "matrix_inverse", 9)
    tables = [mu, rows_by_recurrence(fam, 6), hankel_transform(mu, 4),
              production_of_inverse(coefficient_matrix(fam, 7)),
              moment_production(fam, 6),
              [entry_closed_form(6, k, b, c) for k in range(7)]]
    for route in ("catalan_sum", "shifted_tfraction"):
        tables.append(moments(fam, route, 9))
    for kind in ORTHO_KINDS:
        tables.append(ortho_rows_by_recurrence(kind, b, c, 6))
    for table in tables:
        assert all(type(v) is int for v in leaves(table)), table


@pytest.mark.parametrize("values", [
    pytest.param(lambda: catalan_series(9).coeffs, id="catalan_series"),
    pytest.param(lambda: moment_gf(1, 1, 10).coeffs, id="moment_gf"),
    pytest.param(lambda: tfraction_closed_form(1, 1, 8).coeffs, id="tfraction_closed_form"),
    pytest.param(lambda: TruncatedSeries.ratio([0, 1, -2], [1, 1], 8).reversion().coeffs,
                 id="reversion"),
    pytest.param(lambda: [colored_path_count(schroeder_path_statistics(6), 2)],
                 id="colored_path_count"),
])
def test_integral_scaled_values_are_ints(values):
    """Scaling by 1/2, 1/(2b) or 1/m, or counting with an integral number of
    colours, keeps integral values ints."""
    got = values()
    assert all(type(v) is int for v in got), got


def test_int_determinant_is_the_fraction_determinant():
    rows = [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8], [9, 7, 9, 3]]
    det = determinant(rows)
    assert type(det) is int
    assert det == determinant([[Fraction(v) for v in row] for row in rows])
    singular = [[0, 1, 2], [0, 3, 4], [0, 5, 6]]
    assert determinant(singular) == 0 and type(determinant(singular)) is int
    mixed = determinant([[1, Fraction(1, 2)], [3, 4]])
    assert mixed == Fraction(5, 2) and type(mixed) is Fraction
