"""Named verification scenarios behind the `verify` CLI command.

Each scenario re-derives a batch of published values from scratch and
compares them against frozen expectations; the frozen side mixes literal
integer tables with symbolic entries rebuilt from explicit products, so a
regression in any layer (scalars, series, arrays, determinants) surfaces as
a named failing check rather than a silent drift.
"""

from __future__ import annotations

from fractions import Fraction

from . import cfrac, hankel_toeplitz, orthopoly
from .combinat import (
    binomial,
    catalan,
    colored_path_count,
    level_count_row,
    peak_count_row,
    schroeder_path_statistics,
)
from .lbp import (
    LBPFamily,
    coefficient_array,
    coefficient_matrix,
    moment_gf,
    moment_matrix,
    moments,
    rows_by_recurrence,
    schroeder_binomial_sums,
    shifted_moment_sum,
)
from .report import Check, ScenarioReport, check_equal
from .riordan import binomial_array, has_column_shift, production_matrix, production_of_inverse
from .scalars import PARAM_B, PARAM_C, BivarPoly, DensePoly
from .series import TruncatedSeries

_B = BivarPoly.b()
_C = BivarPoly.c()
#: c alone, for the checks that fix b: their values are polynomials in c
_C_ALONE = DensePoly([0, 1])

SCHROEDER_PREFIX = (1, 2, 6, 22, 90, 394, 1806, 8558, 41586)

PERIODIC_MOMENT_TABLE = (
    (1,),
    (1, 1),
    (3, 4, 1),
    (13, 18, 6, 1),
    (65, 91, 34, 9, 1),
    (355, 500, 199, 64, 11, 1),
    (2061, 2914, 1206, 430, 90, 14, 1),
    (12501, 17721, 7526, 2856, 670, 135, 16, 1),
)

PERIODIC_PRODUCTION_TABLE = (
    (1, 1, 0, 0, 0, 0, 0),
    (2, 3, 1, 0, 0, 0, 0),
    (2, 3, 2, 1, 0, 0, 0),
    (4, 6, 4, 3, 1, 0, 0),
    (4, 6, 4, 3, 2, 1, 0),
    (8, 12, 8, 6, 4, 3, 1),
    (8, 12, 8, 6, 4, 3, 2),
)

SIGNED_COEFFICIENT_TABLE = (
    (1,),
    (0, 1),
    (0, -1, 2),
    (0, 2, -7, 6),
    (0, -5, 25, -41, 22),
    (0, 14, -91, 219, -231, 90),
)

DELANNOY_SIGNED_TABLE = (
    (1,),
    (-1, 1),
    (1, -3, 1),
    (-1, 5, -5, 1),
    (1, -7, 13, -7, 1),
    (-1, 9, -25, 25, -9, 1),
)

SCALED_SCHROEDER_MOMENT_TABLE = (
    (1,),
    (1, 1),
    (2, 3, 1),
    (6, 10, 5, 1),
    (22, 38, 22, 7, 1),
    (90, 158, 98, 38, 9, 1),
)


def _symbolic_production_block(dim: int) -> list[list]:
    """The production block of the moment matrix: first column b^n c, then
    shifted copies of (b+c, b(b+c), b^2(b+c), ...)."""
    block = []
    for i in range(dim):
        row = [_B ** i * _C]
        for k in range(1, dim):
            if k > i + 1:
                row.append(BivarPoly.zero())
            elif k == i + 1:
                row.append(BivarPoly.one())
            else:
                row.append(_B ** (i - k) * (_B + _C))
        block.append(row)
    return block


def _moment_c_rows(b_of_c: DensePoly, n_max: int) -> list[list]:
    """Moments at b = b_of_c, a polynomial in c, as c-coefficient rows."""
    fam = LBPFamily.constant(b_of_c, _C_ALONE)
    return [value.coeffs for value in moments(fam, "gf_expansion", n_max)]


def scenario_example1(order: int = 12) -> ScenarioReport:
    """The b = 1 specialization: peak triangle, u = v, Schroeder numbers."""
    checks = []
    shifted = cfrac.tfraction_closed_form(1, _C_ALONE, order)

    triangle = [value.coeffs for value in shifted.coeffs[:9]]
    expected_rows = [
        [int(binomial(2 * n - k, k) * catalan(n - k)) for k in range(n + 1)]
        for n in range(9)
    ]
    checks.append(check_equal("c-coefficient rows equal binom(2n-k,k)C(n-k)",
                              triangle, expected_rows))

    shifted_at_1 = [int(v) for v in cfrac.tfraction_closed_form(1, 1, 8).coeffs]
    checks.append(check_equal("row n sums to the n-th shifted moment at c=1",
                              [sum(row) for row in triangle], shifted_at_1))

    checks.append(Check("u = v symbolically in c", cfrac.verify_uv_equality(_C_ALONE, order)))
    for cv, label in ((1, "schroeder numbers"), (0, "catalan numbers")):
        checks.append(Check(f"u = v at c={cv} ({label})", cfrac.verify_uv_equality(cv, order)))

    mu_c1 = moments(LBPFamily.constant(1, 1), "gf_expansion", 9)
    checks.append(check_equal("moments at b=c=1 are 1-prefixed schroeder numbers",
                              [int(v) for v in mu_c1],
                              [1, *SCHROEDER_PREFIX]))
    checks.append(check_equal("shifted moments at b=c=1 are schroeder numbers",
                              shifted_at_1, list(SCHROEDER_PREFIX)))

    stats = [schroeder_path_statistics(n) for n in range(9)]
    path_rows = [peak_count_row(s) for s in stats]
    checks.append(check_equal("persistent peak statistic matches the triangle",
                              path_rows, expected_rows))
    checks.append(check_equal("level-step statistic matches the peak statistic",
                              [level_count_row(s) for s in stats], path_rows))
    for colors in (1, 2, 3):
        got = [colored_path_count(s, colors) for s in stats]
        want = [sum(v * colors ** k for k, v in enumerate(row)) for row in triangle]
        checks.append(check_equal(f"colored path counts at c={colors}", got, want))
    return ScenarioReport("example1", checks)


def scenario_example2(order: int = 12) -> ScenarioReport:
    """The periodic-coefficient family b = (1, 2, 1, 2, ...), c = 1."""
    checks = []
    fam = LBPFamily.periodic([1, 2], [1])
    table = moment_matrix(fam, 8)
    checks.append(check_equal("periodic moment matrix rows 0..7",
                              table.rows, [list(r) for r in PERIODIC_MOMENT_TABLE]))

    prod = production_of_inverse(coefficient_matrix(fam, 9))
    checks.append(check_equal("periodic production block 7x7",
                              [row[:7] for row in prod[:7]],
                              [list(r) for r in PERIODIC_PRODUCTION_TABLE]))
    checks.append(Check("column-shift test fails on the periodic production block",
                        not has_column_shift(prod)))

    sym_coeffs = coefficient_matrix(LBPFamily.constant(PARAM_B, PARAM_C), 8)
    sym_prod = production_of_inverse(sym_coeffs)
    expected_block = _symbolic_production_block(6)
    checks.append(check_equal("symbolic production block of the moment matrix",
                              [row[:6] for row in sym_prod[:6]], expected_block))
    checks.append(Check("column-shift test passes on the moment-matrix production block",
                        has_column_shift(sym_prod)))
    coeff_prod = production_matrix(
        coefficient_array(LBPFamily.constant(PARAM_B, PARAM_C), 8).matrix(8)
    )
    checks.append(Check("column-shift test passes on the coefficient-array production block",
                        has_column_shift(coeff_prod)))

    first_column = [int(table.entry(n, 0)) for n in range(1, 8)]
    checks.append(check_equal("first column follows the schroeder binomial sum",
                              first_column, schroeder_binomial_sums(7)))
    return ScenarioReport("example2", checks)


def scenario_example3(order: int = 12) -> ScenarioReport:
    """Moments at b = c-1 (signed triangle) and b = c+1 (unsigned twin)."""
    checks = []
    signed = _moment_c_rows(_C_ALONE - 1, 5)
    checks.append(check_equal("signed c-coefficient triangle at b=c-1",
                              signed, [list(r) for r in SIGNED_COEFFICIENT_TABLE]))
    checks.append(check_equal("signed row sums are all 1",
                              [sum(row) for row in signed], [1] * 6))

    closed = [
        [
            (-1) ** (n - k) * sum(
                binomial(n + j - 1, 2 * j) * binomial(j, n - k) * catalan(j)
                for j in range(n + 1)
            )
            for k in range(n + 1)
        ]
        for n in range(6)
    ]
    checks.append(check_equal("closed-form entries match the signed triangle",
                              closed, signed))

    unsigned = _moment_c_rows(_C_ALONE + 1, 5)
    checks.append(check_equal("unsigned triangle at b=c+1 is the absolute twin",
                              unsigned, [[abs(v) for v in row] for row in signed]))
    checks.append(check_equal("unsigned row sums", [sum(r) for r in unsigned],
                              [1, 1, 3, 15, 93, 645]))

    reversion = TruncatedSeries.ratio([0, 1, -2], [1, 1], 8).reversion()
    checks.append(check_equal("reversion of t(1-2t)/(1+t)",
                              [int(v) for v in reversion.coeffs],
                              [0, 1, 3, 15, 93, 645, 4791, 37275, 299865]))
    return ScenarioReport("example3", checks)


def scenario_example4(order: int = 12) -> ScenarioReport:
    """The b = c family: signed Delannoy triangle and scaled Schroeder moments."""
    checks = []
    fam = LBPFamily.constant(PARAM_C, PARAM_C)
    coeff = coefficient_matrix(fam, 6)
    expected = [
        [int(v) * _C ** (n - k) for k, v in enumerate(row)]
        for n, row in enumerate(DELANNOY_SIGNED_TABLE)
    ]
    checks.append(check_equal("coefficient rows are the signed Delannoy triangle",
                              coeff.rows, expected))

    inv = moment_matrix(fam, 6)
    expected_inv = [
        [int(v) * _C ** (n - k) for k, v in enumerate(row)]
        for n, row in enumerate(SCALED_SCHROEDER_MOMENT_TABLE)
    ]
    checks.append(check_equal("moment rows are scaled Schroeder tables",
                              inv.rows, expected_inv))

    mu = moments(fam, "gf_expansion", 8)
    shifted_schroeder = [1] + [shifted_moment_sum(1, 1, n) for n in range(8)]
    checks.append(check_equal(
        "moments are c^n times the 1-prefixed schroeder numbers",
        mu, [_C ** n * int(v) for n, v in enumerate(shifted_schroeder)]))
    return ScenarioReport("example4", checks)


def scenario_factorizations(order: int = 12) -> ScenarioReport:
    depth = min(order, 8)
    base = orthopoly.verify_factorizations(PARAM_B, PARAM_C, depth)
    checks = list(base.checks)

    qt_inv = orthopoly.ortho_array("qtilde", PARAM_B, PARAM_C, depth).inverse()
    shifted = cfrac.cf_expand(cfrac.constant_tfraction(PARAM_B, PARAM_C, depth), depth)
    checks.append(Check("first column of qtilde-array inverse gives the shifted moments",
                        qt_inv.g == shifted))

    for kind in orthopoly.ORTHO_KINDS:
        arr = orthopoly.ortho_array(kind, PARAM_B, PARAM_C, 6).matrix(7)
        rows = orthopoly.ortho_rows_by_recurrence(kind, PARAM_B, PARAM_C, 6)
        ok = all(list(arr.rows[n]) == rows[n] for n in range(7))
        checks.append(Check(f"{kind} recurrence rows match the array", ok))

    checks.append(Check(
        "binomial array inverse flips the parameter sign",
        binomial_array(PARAM_B, depth).inverse() == binomial_array(-PARAM_B, depth)))
    return ScenarioReport("factorizations", checks)


def scenario_hankel(order: int = 12) -> ScenarioReport:
    checks = []
    mu = moments(LBPFamily.constant(PARAM_B, PARAM_C), "gf_expansion", 12)
    h = hankel_toeplitz.hankel_transform(mu, 5)
    checks.append(check_equal("hankel transform equals (bc)^n (b(b+c))^binom(n,2)",
                              h, hankel_toeplitz.hankel_closed_form(PARAM_B, PARAM_C, 5)))

    mu11 = moments(LBPFamily.constant(1, 1), "gf_expansion", 10)
    checks.append(check_equal("hankel transform at b=c=1",
                              hankel_toeplitz.hankel_transform(mu11, 5),
                              [Fraction(2) ** binomial(n, 2) for n in range(6)]))

    jf = cfrac.jfraction_from_moments(mu)
    checks.append(check_equal("heilermann: raw determinants equal coupling products",
                              h, cfrac.hankel_from_jfraction(jf.sub, 5)))
    return ScenarioReport("hankel", checks)


def scenario_toeplitz(order: int = 12) -> ScenarioReport:
    checks = []
    # backward depth 6 needs the forward moments through mu_7
    mu = moments(LBPFamily.constant(PARAM_B, PARAM_C), "gf_expansion", 7)
    bm = hankel_toeplitz.BiInfiniteMoments(mu, PARAM_C, 6)
    t_seq, tp_seq = hankel_toeplitz.toeplitz_dets(bm, 5)
    checks.append(check_equal("toeplitz determinants equal (-b/c)^binom(n+1,2)",
                              t_seq,
                              hankel_toeplitz.toeplitz_closed_form(PARAM_B, PARAM_C, 5)))

    checks.append(check_equal(
        "parameter recovery is exact for n=1..4",
        [hankel_toeplitz.recover_parameters(t_seq, tp_seq, n) for n in range(1, 5)],
        [(PARAM_B, PARAM_C)] * 4))

    for bv, cv in ((1, 1), (2, 3)):
        m = moments(LBPFamily.constant(bv, cv), "gf_expansion", 7)
        bmn = hankel_toeplitz.BiInfiniteMoments(m, cv, 6)
        ts, tps = hankel_toeplitz.toeplitz_dets(bmn, 5)
        good = all(
            hankel_toeplitz.recover_parameters(ts, tps, n) == (bv, cv)
            for n in range(1, 5)
        )
        checks.append(Check(f"numeric recovery at b={bv}, c={cv}", good))

    checks.append(check_equal("bordered determinant reproduces the recurrence rows",
                              [hankel_toeplitz.lbp_by_determinant(bm, n) for n in range(6)],
                              rows_by_recurrence(LBPFamily.constant(PARAM_B, PARAM_C), 5)))
    return ScenarioReport("toeplitz", checks)


def scenario_cfrac(order: int = 12) -> ScenarioReport:
    checks = []
    # one expansion serves the order-`order` checks and the 14-moment extraction
    mu = moment_gf(PARAM_B, PARAM_C, max(order, 13))
    closed = mu.truncate(order)
    checks.append(Check("s-fraction (c, b, b+c, ...) expands the moments",
                        cfrac.cf_expand(cfrac.moment_sfraction(PARAM_B, PARAM_C, order),
                                        order) == closed))
    checks.append(Check("j-fraction (c, 2b+c, ...) expands the moments",
                        cfrac.cf_expand(cfrac.moment_jfraction(PARAM_B, PARAM_C, order),
                                        order) == closed))
    shifted = cfrac.cf_expand(cfrac.constant_tfraction(PARAM_B, PARAM_C, order), order)
    shifted_closed = cfrac.tfraction_closed_form(PARAM_B, PARAM_C, order)
    checks.append(Check("t-fraction expands the shifted moments", shifted == shifted_closed))
    lifted = 1 + PARAM_C * shifted.shift_up(1).truncate(order)
    checks.append(Check("lifting the shifted moments recovers the moments",
                        lifted == closed))

    checks.append(Check("riordan transform of the catalan series gives the shifted moments",
                        cfrac.tfraction_via_transform(PARAM_B, PARAM_C, order)
                        == shifted_closed))

    sums_ok = all(shifted_moment_sum(PARAM_B, PARAM_C, n) == shifted_closed.coeffs[n]
                  for n in range(order + 1))
    checks.append(Check("binomial-catalan sum matches the shifted moments", sums_ok))

    jf = cfrac.jfraction_from_moments(mu.coeffs[:14])
    checks.append(Check(
        "heilermann extraction returns the constant-coefficient j-fraction",
        list(jf.diag) == [PARAM_C] + [2 * PARAM_B + PARAM_C] * 6
        and list(jf.sub) == [PARAM_B * PARAM_C] + [PARAM_B * (PARAM_B + PARAM_C)] * 5))
    checks.append(Check("extraction round-trip reproduces the moments",
                        cfrac.cf_expand(jf, 13) == mu.truncate(13)))

    checks.append(Check("u = v equality holds symbolically",
                        cfrac.verify_uv_equality(_C_ALONE, order)))
    return ScenarioReport("cfrac", checks)


SCENARIOS = {
    "example1": scenario_example1,
    "example2": scenario_example2,
    "example3": scenario_example3,
    "example4": scenario_example4,
    "factorizations": scenario_factorizations,
    "hankel": scenario_hankel,
    "toeplitz": scenario_toeplitz,
    "cfrac": scenario_cfrac,
}


def run_scenario(name: str, order: int = 12) -> list[ScenarioReport]:
    if name == "all":
        return [SCENARIOS[key](order) for key in SCENARIOS]
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; choose from "
                       f"{('all', *SCENARIOS)}")
    return [SCENARIOS[name](order)]
