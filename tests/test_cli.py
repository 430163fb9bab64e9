"""Command-line interface: output shapes, determinism, exit codes."""

import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riordanlbp import cli, hankel_toeplitz, lbp, oeis, scalars
from riordanlbp.cli import EXIT_BROKEN_PIPE, EXIT_INTERNAL, GENERATE_KINDS, build_parser, main
from riordanlbp.lbp import MOMENT_ROUTES, LBPFamily, moments
from riordanlbp.orthopoly import ORTHO_KINDS, ortho_array
from riordanlbp.riordan import LowerTriangularMatrix, RiordanArray
from riordanlbp.scalars import PARAM_B, PARAM_C, DensePoly
from riordanlbp.series import TruncatedSeries
from riordanlbp.scenarios import SCENARIOS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def products(monkeypatch):
    """The DensePoly x DensePoly products made while the test runs."""
    made = []
    real = DensePoly.__mul__

    def counted(self, other):
        if type(other) is DensePoly:
            made.append(other)
        return real(self, other)

    monkeypatch.setattr(DensePoly, "__mul__", counted)
    return made


class TestGenerate:
    def test_unit_moments(self, capsys):
        code, out, err = run_cli(
            capsys, "generate", "moments", "--b", "1", "--c", "1", "--order", "9"
        )
        assert code == 0
        assert err == ""
        assert out.splitlines() == [
            "1", "1", "2", "6", "22", "90", "394", "1806", "8558", "41586"
        ]

    def test_symbolic_production_block(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "production", "--order", "3")
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "c,1,0,0"
        assert rows[1] == "b*c,c + b,1,0"
        assert rows[2] == "b^2*c,b*c + b^2,c + b,1"

    def test_lbp_coeffs_with_negative_parameter(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "lbp-coeffs", "--b", "3/2", "--c=-1/3", "--order", "3"
        )
        assert code == 0
        assert out.splitlines() == [
            "1",
            "1/3,1",
            "1/9,-5/6,1",
            "1/27,-2/3,-2,1",
        ]

    def test_hankel_match_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "hankel", "--b", "1", "--c", "1", "--order", "5"
        )
        assert code == 0
        assert out.splitlines() == ["1", "1", "2", "8", "64", "1024"]

    def test_toeplitz_two_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "toeplitz", "--b", "1", "--c", "1", "--order", "4"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0] == "1,-1,-1,1,1"
        assert lines[1] == "1,-1,-1,1,1"

    @pytest.mark.parametrize("shape", ["s", "j", "t"])
    def test_cfrac_shapes(self, capsys, shape):
        code, out, _ = run_cli(
            capsys, "generate", "cfrac-expand", "--b", "1", "--c", "1",
            "--order", "6", "--shape", shape,
        )
        assert code == 0
        values = out.splitlines()
        if shape == "t":
            assert values == ["1", "2", "6", "22", "90", "394", "1806"]
        else:
            assert values == ["1", "1", "2", "6", "22", "90", "394"]

    @pytest.mark.parametrize("route", ["catalan_sum", "lagrange", "gf_expansion"])
    def test_moment_routes_agree(self, capsys, route):
        base = run_cli(
            capsys, "generate", "moments", "--b", "2", "--c", "1/2", "--order", "8"
        )
        alt = run_cli(
            capsys, "generate", "moments", "--b", "2", "--c", "1/2",
            "--order", "8", "--route", route,
        )
        assert base[0] == alt[0] == 0
        assert base[1] == alt[1]

    @pytest.mark.parametrize("kind", GENERATE_KINDS)
    def test_every_kind_is_deterministic(self, capsys, kind):
        args = ("generate", kind, "--b", "1", "--c", "2", "--order", "4")
        first = run_cli(capsys, *args)
        second = run_cli(capsys, *args)
        assert first == second
        assert first[0] == 0

    def test_production_inverts_nothing(self, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("LowerTriangularMatrix.inverse called")

        monkeypatch.setattr(LowerTriangularMatrix, "inverse", refuse)
        code, out, err = run_cli(capsys, "generate", "production", "--order", "3")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "b*c,c + b,1,0"

    @pytest.mark.parametrize("kind, n_max", [("toeplitz", 6), ("hankel", 10),
                                             ("moments", 5)])
    def test_moments_come_from_the_recurrence(self, capsys, monkeypatch, kind, n_max):
        """toeplitz reads mu_0..mu_{order+1}, hankel mu_0..mu_{2 order}."""
        asked = []
        real = cli.moments
        monkeypatch.setattr(cli, "moments", lambda fam, route, n_max:
                            asked.append((route, n_max)) or real(fam, route, n_max))
        code, _, _ = run_cli(capsys, "generate", kind, "--b", "1", "--c", "1",
                             "--order", "5")
        assert code == 0
        assert asked == [("p_recurrence", n_max)]

    def test_json_payload_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "moments", "--b", "1", "--c", "1",
            "--order", "4", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "kind": "moments",
            "params": {"b": "1", "c": "1"},
            "order": 4,
            "data": ["1", "1", "2", "6", "22"],
        }

    def test_symbolic_json_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "moments", "--order", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["params"] == {"b": "sym", "c": "sym"}
        assert payload["data"][2] == "c^2 + b*c"


#: every kind with each of its routes, shapes and families
VARIANTS = (
    [("lbp-coeffs",), ("production",), ("hankel",), ("toeplitz",)]
    + [("moments", "--route", route) for route in MOMENT_ROUTES]
    + [("cfrac-expand", "--shape", shape) for shape in "sjt"]
    + [("ortho-array", "--family", family) for family in ORTHO_KINDS]
)
integral = st.integers(-9, 9).map(Fraction)
# denominators up to 10^4, so the lcm D can reach 10^8
rational = st.fractions(min_value=-20, max_value=20, max_denominator=10**4)
parameter = st.one_of(integral, rational)
parameter_pairs = st.one_of(
    st.tuples(parameter, parameter),
    parameter.map(lambda b: (b, -b)),  # b + c = 0
    parameter.map(lambda b: (b, -2 * b)),  # 2b + c = 0
    # l (b0, c0): the integers (Db, Dc) share a factor G up to ~10^4
    st.builds(lambda l, b0, c0: (l * b0, l * c0),
              st.builds(Fraction, st.integers(1, 10**4), st.integers(1, 100)),
              st.fractions(-9, 9, max_denominator=9), st.fractions(-9, 9, max_denominator=9)),
)


def lines_or_error(compute):
    try:
        return compute()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


class TestGradedRoute:
    """Rational (b, c) are computed at the coprime integers (B, C), with
    (b, c) = (G/D) (B, C) for D the lcm of the denominators and G the gcd of
    Db and Dc, and rescaled by (G/D)^degree; that must print what the
    library gives at (b, c) itself."""

    def test_every_kind_has_a_degree(self):
        assert set(cli.DEGREES) == set(GENERATE_KINDS)

    @pytest.mark.parametrize("v", [-12, -7, -1, 0, 1, 7, 12, 360, -360, 10**30 + 6,
                                   Fraction(-9, 4), Fraction(0), Fraction(7)])
    @pytest.mark.parametrize("scale", [Fraction(1), Fraction(1, 2), Fraction(1, 6),
                                       Fraction(1, 360), Fraction(1, 6 ** 17),
                                       Fraction(43, 222), Fraction(2, 3), Fraction(6)])
    def test_entry_prints_as_its_fraction(self, v, scale):
        # negative, zero and divisible entries, a unit scale, scales 1/D and
        # scales G/D with G above 1, at degrees 0, 1 and 3
        show = cli._over_powers(scale)
        for d in (0, 1, 3):
            assert show(v, d) == str(v * scale ** d)

    @pytest.mark.parametrize("b, c, point", [("129/74", "-43/111", (9, -2)),
                                             ("0", "5/3", (0, 1)), ("0", "0", (0, 0)),
                                             ("-6", "-4", (-3, -2)), ("2/3", "4/3", (1, 2))])
    def test_table_is_computed_at_the_primitive_point(self, monkeypatch, b, c, point):
        seen = []
        monkeypatch.setattr(cli, "_table", lambda args, *at: seen.append(at) or [])
        args = build_parser().parse_args(["generate", "moments", f"--b={b}", f"--c={c}"])
        assert cli._generate_data(args) == []
        assert seen == [point]
        assert [type(v) for v in seen[0]] == [int, int]

    @given(parameter_pairs, st.integers(1, 7))
    @example((Fraction(129, 74), Fraction(-43, 111)), 7)
    @settings(max_examples=80, deadline=None)
    def test_graded_lines_equal_the_direct_lines(self, pair, order):
        b, c = pair
        for variant in VARIANTS:
            args = build_parser().parse_args(
                ["generate", *variant, "--order", str(order), f"--b={b}", f"--c={c}"])
            direct = lines_or_error(lambda: [",".join(str(v) for v in row)
                                             for row in cli._table(args, b, c)])
            assert lines_or_error(lambda: cli._generate_data(args)) == direct, variant


class TestDenseRoute:
    """Every table with a sym is computed at (b, c) = (x, 1) on DensePoly and
    made homogeneous again while rendering, at a rational side too; that
    must print what the RationalFunction route prints at (PARAM_B, PARAM_C),
    (PARAM_B, r) and (r, PARAM_C)."""

    @pytest.mark.parametrize("variant", VARIANTS, ids=" ".join)
    def test_dense_lines_equal_the_rational_function_lines(self, capsys, variant):
        floor = cli.MIN_ORDER["generate"].get(variant[0], 0)
        family_kind = variant[0] not in ("cfrac-expand", "ortho-array")
        # the RationalFunction tables grow costly with the order: the mixed
        # points run to order 7
        points = [("sym", "sym", range(11))] + [
            point for r in ("3/2", "-1/3", "1", "-1", "0")
            for point in (("sym", r, range(8)), (r, "sym", range(8)))]
        for b, c, orders in points:
            at = [PARAM_B if b == "sym" else Fraction(b), PARAM_C if c == "sym" else Fraction(c)]
            for order in orders:
                argv = ["generate", *variant, "--order", str(order), f"--b={b}", f"--c={c}"]
                if order < floor:
                    with pytest.raises(SystemExit) as exc:
                        main(argv)
                    assert exc.value.code == 2
                    capsys.readouterr()
                    continue
                args = build_parser().parse_args(argv)
                lines = lines_or_error(lambda: [",".join(str(v) for v in row)
                                                for row in cli._table(args, *at)])
                if "0" in (b, c) and family_kind:
                    # LBPFamily refuses a zero b or c, here and in the CLI
                    error = "recurrence coefficients must be nonzero"
                    assert lines == (ValueError, error)
                    assert run_cli(capsys, *argv) == (2, "", f"error: {error}\n")
                    continue
                assert run_cli(capsys, *argv) == (0, "".join(f"{line}\n" for line in lines), "")
                payload = {"kind": variant[0], "params": {"b": b, "c": c},
                           "order": order, "data": lines}
                assert run_cli(capsys, *argv, "--format", "json") == (
                    0, json.dumps(payload, indent=2) + "\n", "")

    @pytest.mark.parametrize("v, degree, at, shown", [
        (0, 3, {}, "0"), (DensePoly([]), 0, {}, "0"), (1, 0, {}, "1"), (-7, 0, {}, "-7"),
        (Fraction(-1, 2), 0, {}, "-1/2"), (1, 2, {}, "c^2"), (-1, 1, {}, "-c"),
        (12, 1, {}, "12*c"), (DensePoly([0, 1]), 1, {}, "b"),
        (DensePoly([1, -1]), 1, {}, "c - b"), (DensePoly([0, 0, -1]), 0, {}, "(-b^2)/(c^2)"),
        (DensePoly([2, 0, 1]), 1, {}, "(2*c^2 + b^2)/(c)"),
        (DensePoly([Fraction(1, 2), 11, 1]), 2, {}, "1/2*c^2 + 11*b*c + b^2"),
        # (sym, r): a polynomial in b, r^(degree-i) b^i, with no denominator
        (DensePoly([1, -1]), 1, {"c": Fraction(3, 2)}, "3/2 - b"),
        (DensePoly([2, 0, 1]), 1, {"c": Fraction(-1, 3)}, "-2/3 - 3*b^2"),
        (DensePoly([1, 1]), 1, {"c": Fraction(-1)}, "-1 + b"),
        (DensePoly([0, 0, 5]), 2, {"c": Fraction(0)}, "5*b^2"),
        # (r, sym): r^i c^(degree-i) in ascending powers of c, over c^m; t_1
        # and t_2, line 0 of toeplitz, are -x and -x^3 at (x, 1)
        (DensePoly([0, -1]), 0, {"b": Fraction(3, 2)}, "(-3/2)/(c)"),
        (DensePoly([0, 0, 0, -1]), 0, {"b": Fraction(-1, 3)}, "(1/27)/(c^3)"),
        (DensePoly([2, 0, 1]), 1, {"b": Fraction(-1, 3)}, "(1/9 + 2*c^2)/(c)"),
        (DensePoly([1, -1]), 1, {"b": Fraction(1)}, "-1 + c"),
        (7, 2, {"b": Fraction(0)}, "7*c^2"),
    ])
    def test_entry_prints_as_its_rational_function(self, v, degree, at, shown):
        assert scalars._homogeneous_str(v, degree, **at) == shown

    def test_default_moments_route_makes_one_product_a_moment(self, capsys, monkeypatch,
                                                              products):
        """`generate moments` runs the P-recurrence by default: at (sym, sym)
        one DensePoly x DensePoly product per moment from mu_3 on, 24 at
        order 26 as measured (matrix_inverse, the default before, made 622),
        and no coefficient block.  An O(n^2) default fails here."""
        def refuse(*args):
            raise AssertionError("coefficient_matrix called")

        monkeypatch.setattr(lbp, "coefficient_matrix", refuse)
        monkeypatch.setattr(cli, "coefficient_matrix", refuse)
        code, out, err = run_cli(capsys, "generate", "moments", "--order", "26",
                                 "--b", "sym", "--c", "sym")
        assert (code, err, len(out.splitlines())) == (0, "", 27)
        assert len(products) <= 26

    @pytest.mark.parametrize("order, ceiling", [("20", 208), ("64", 2078)])
    def test_production_makes_quadratically_many_products(self, capsys, products, order,
                                                          ceiling):
        """`generate production` reads the block off its A- and Z-sequences,
        on coefficient rows two columns wide: at (sym, sym) 208 DensePoly x
        DensePoly products at order 20 and 2,078 at order 64 as measured,
        190 and 2,016 of them in the A-sequence solve.  Full rows and the
        Z-sequence as a convolution made 587 and 6,109, and the O(n^3) solve
        of P L = L S 1,955 and 49,915."""
        code, out, err = run_cli(capsys, "generate", "production", "--order", order,
                                 "--b", "sym", "--c", "sym")
        assert (code, err, len(out.splitlines())) == (0, "", int(order) + 1)
        assert len(products) <= ceiling

    def test_rational_parameters_never_touch_dense_polys(self, capsys, monkeypatch):
        def outputs():
            return [run_cli(capsys, "generate", *variant, "--order", "6", "--b=3/2", "--c=-1/3")
                    for variant in VARIANTS]

        plain = outputs()
        assert {code for code, _, _ in plain} == {0}

        def refuse(*args, **kwargs):
            raise AssertionError("DensePoly used")

        # the constructors (__init__ and scalars._dense) and the arithmetic
        for name in ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__neg__", "__pow__", "__truediv__",
                     "__rtruediv__", "__eq__", "__bool__", "divexact"):
            monkeypatch.setattr(DensePoly, name, refuse)
        monkeypatch.setattr(scalars, "_dense", refuse)
        assert outputs() == plain
        # the patch bites where the dense route runs
        code, _, err = run_cli(capsys, "generate", "lbp-coeffs", "--order", "2")
        assert code == EXIT_INTERNAL and "DensePoly used" in err

    def test_mixed_parameters_build_no_bivariate_values(self, capsys, monkeypatch):
        # a sym mixed with a rational runs the dense route too: no BivarPoly
        # product and no RationalFunction is built, by either constructor
        def outputs():
            return [run_cli(capsys, "generate", *variant, "--order", "6", *params)
                    for params in (("--b", "sym", "--c=2"), ("--b=-1/3", "--c", "sym"))
                    for variant in VARIANTS]

        plain = outputs()
        assert {code for code, _, _ in plain} == {0}

        def refuse(*args, **kwargs):
            raise AssertionError("BivarPoly or RationalFunction built")

        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(scalars.BivarPoly, name, refuse)
        monkeypatch.setattr(scalars.RationalFunction, "__init__", refuse)
        monkeypatch.setattr(scalars, "_poly", refuse)
        monkeypatch.setattr(scalars, "_value", refuse)
        assert outputs() == plain
        # the patch bites where RationalFunction values are computed
        code, _, err = run_cli(capsys, "verify", "example2")
        assert code == EXIT_INTERNAL and "BivarPoly or RationalFunction built" in err


#: every (b, c) the benchmark's rational workload can draw: lam (3/2, -1/3)
#: for lam = +-p/q, p and q distinct primes of 37, 41, 43 and 47
BENCHMARK_PAIRS = [(f"--b={lam * Fraction(3, 2)}", f"--c={-lam / 3}")
                   for lam in (sign * Fraction(p, q)
                               for p, q in itertools.permutations((37, 41, 43, 47), 2)
                               for sign in (1, -1))]


class TestMinorRoutes:
    """`generate hankel` and `toeplitz` read their minors off the orthogonal
    recurrences; a Bareiss pass is left only as the fallback."""

    @pytest.fixture
    def bareiss_calls(self, monkeypatch):
        calls = []
        real = hankel_toeplitz._bareiss

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(hankel_toeplitz, "_bareiss", counted)
        return calls

    @pytest.mark.parametrize("params", [("--b=sym", "--c=sym"), *BENCHMARK_PAIRS],
                             ids=" ".join)
    @pytest.mark.parametrize("kind, order", [("hankel", "9"), ("toeplitz", "10")])
    def test_benchmark_tables_run_no_bareiss_pass(self, capsys, bareiss_calls, kind, order,
                                                  params):
        code, out, err = run_cli(capsys, "generate", kind, "--order", order, *params)
        assert (code, err) == (0, "")
        assert bareiss_calls == []

    @pytest.mark.parametrize("kind, order, ceiling", [
        # half the parent's 586 and 1,549, most of them in one Bareiss pass
        # per sequence
        ("hankel", "9", 293), ("toeplitz", "10", 774)])
    def test_symbolic_tables_make_half_the_products(self, capsys, products, kind, order,
                                                   ceiling):
        code, _, _ = run_cli(capsys, "generate", kind, "--order", order, "--b", "sym",
                             "--c", "sym")
        assert code == 0
        assert len(products) <= ceiling

    def test_zero_pivot_falls_back_to_bareiss(self, capsys, bareiss_calls):
        # on b+c = 0 h_2 vanishes, so Chebyshev's algorithm cannot go on
        code, out, err = run_cli(capsys, "generate", "hankel", "--b", "1", "--c", "-1")
        assert (code, out, err) == (0, "1\n-1\n" + "0\n" * 11, "")
        assert bareiss_calls


class TestOrthoArray:
    """`generate ortho-array` prints the three-term recurrence rows; they
    must equal the rows of the Riordan array built from its series, the
    route `verify factorizations` checks the recurrence against."""

    @staticmethod
    def run(*argv):
        # capsys is function-scoped, so the Hypothesis tests capture here
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def assert_prints_the_array(self, kind, b, c, order):
        rows = ortho_array(kind, b, c, order).matrix(order + 1).rows
        lines = [",".join(str(v) for v in row) for row in rows]
        params = {"b": "sym" if b is PARAM_B else str(b),
                  "c": "sym" if c is PARAM_C else str(c)}
        argv = ["generate", "ortho-array", f"--b={params['b']}", f"--c={params['c']}",
                "--order", str(order), "--family", kind]
        assert self.run(*argv) == (0, "".join(f"{line}\n" for line in lines), "")
        payload = {"kind": "ortho-array", "params": params, "order": order, "data": lines}
        assert self.run(*argv, "--format", "json") == (
            0, json.dumps(payload, indent=2) + "\n", "")

    @pytest.mark.parametrize("kind", ORTHO_KINDS)
    def test_symbolic_rows_are_the_array_rows(self, kind):
        for order in range(1, 13):
            self.assert_prints_the_array(kind, PARAM_B, PARAM_C, order)

    @given(st.one_of(parameter_pairs,
                     parameter.map(lambda v: (v, Fraction(0))),
                     parameter.map(lambda v: (Fraction(0), v))),
           st.sampled_from(ORTHO_KINDS), st.integers(1, 12))
    @settings(max_examples=120, deadline=None)
    def test_rational_rows_are_the_array_rows(self, pair, kind, order):
        self.assert_prints_the_array(kind, *pair, order)

    @given(st.one_of(parameter, st.just(Fraction(0))), st.booleans(),
           st.sampled_from(ORTHO_KINDS), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_mixed_rows_are_the_array_rows(self, r, sym_first, kind, order):
        b, c = (PARAM_B, r) if sym_first else (r, PARAM_C)
        self.assert_prints_the_array(kind, b, c, order)

    def test_no_series_product(self, monkeypatch):
        # the recurrence costs O(n^2) operations; the array's columns cost one
        # series product each, O(n^3) in all
        def outputs():
            return [self.run("generate", "ortho-array", "--order", "9",
                             "--family", kind, *params, *fmt)
                    for params in (("--b", "sym", "--c", "sym"), ("--b=3/2", "--c=-1/3"),
                                   ("--b", "sym", "--c=2"), ("--b=-1/3", "--c", "sym"))
                    for kind in ORTHO_KINDS
                    for fmt in ((), ("--format", "json"))]

        plain = outputs()
        assert {code for code, _, _ in plain} == {0}

        def refuse(*args, **kwargs):
            raise AssertionError("series route used")

        monkeypatch.setattr(RiordanArray, "matrix", refuse)
        monkeypatch.setattr(TruncatedSeries, "__mul__", refuse)
        assert outputs() == plain
        # the patch bites on the series route
        arr = ortho_array("q", PARAM_B, PARAM_C, 3)
        for route in (lambda: arr.matrix(4), lambda: arr.g * arr.f):
            with pytest.raises(AssertionError, match="series route used"):
                route()


class TestVerify:
    def test_all_scenarios_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--order", "8")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("scenario ") >= 8

    def test_single_scenario_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "factorizations", "--order", "8", "--format", "json"
        )
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 1
        assert reports[0]["passed"] is True
        assert reports[0]["checks"]


class TestOeisCheck:
    def test_all(self, capsys):
        code, out, _ = run_cli(capsys, "oeis-check", "all")
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 5
        assert all(l.startswith("PASS") for l in lines)

    def test_single(self, capsys):
        code, out, _ = run_cli(capsys, "oeis-check", "A006318")
        assert code == 0
        assert "A006318" in out

    def test_corrupt_fixture_fails(self, capsys, tmp_path):
        (tmp_path / "A000108.txt").write_text("0 1\n1 1\n2 2\n3 5\n4 999\n")
        code, out, _ = run_cli(
            capsys, "oeis-check", "A000108", "--fixtures", str(tmp_path)
        )
        assert code == 1
        assert "FAIL" in out


class TestErrorHandling:
    @pytest.mark.parametrize("b, c", [("0", "1"), ("1", "0"), ("0", "0"), ("0", "sym"),
                                      ("sym", "0")])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_zero_b_is_parameter_error(self, capsys, variant, b, c):
        # the recurrence kinds need nonzero b and c; the continued fractions
        # and the companion arrays are defined at 0
        code, out, err = run_cli(
            capsys, "generate", *variant, "--b", b, "--c", c, "--order", "4"
        )
        if variant[0] in ("cfrac-expand", "ortho-array"):
            assert (code, err) == (0, "")
        else:
            assert (code, out, err) == (2, "", "error: recurrence coefficients must be nonzero\n")

    def test_non_rational_parameter(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "moments", "--b", "x", "--c", "1"
        )
        assert code == 2
        assert "rational" in err

    def test_verify_choices_are_the_scenarios(self):
        # the literal list keeps `import riordanlbp.scenarios` out of `generate`
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        (scenario,) = [a for a in sub.choices["verify"]._actions if a.dest == "scenario"]
        assert tuple(scenario.choices) == ("all", *SCENARIOS)

    def test_unknown_scenario(self):
        # rejected by the argument parser itself
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonesuch"])
        assert exc.value.code == 2

    def test_unknown_sequence(self):
        with pytest.raises(SystemExit) as exc:
            main(["oeis-check", "A999999"])
        assert exc.value.code == 2

    def test_internal_key_error_is_not_a_usage_error(self, capsys, monkeypatch):
        def broken(count):
            raise KeyError("internal")

        monkeypatch.setitem(oeis.GENERATORS, "A000108",
                            (oeis.GENERATORS["A000108"][0], broken))
        assert main(["oeis-check", "A000108"]) == EXIT_INTERNAL == 70
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and "KeyError: 'internal'" in err

    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "nonesuch-kind"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, floor", [
        (("generate", "moments", "--order", "-1"), 0),
        (("generate", "cfrac-expand", "--order", "0", "--shape", "j"), 1),
        (("verify", "all", "--order", "0"), 8),
    ])
    def test_order_below_minimum_is_usage_error(self, capsys, argv, floor):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "usage: riordanlbp [-h] {generate,verify,oeis-check} ...\n"
            f"riordanlbp: error: --order must be at least {floor} for {argv[0]} {argv[1]}\n")


#: each subcommand's positionals and options, listed apart from cli.SUBCOMMANDS
VOCABULARY = {
    "generate": (GENERATE_KINDS, ("--b", "--c", "--order", "--format", "--route", "--shape",
                                  "--family")),
    "verify": (("all", *SCENARIOS), ("--order", "--format")),
    "oeis-check": ((*oeis.known_ids(), "all"), ("--fixtures",)),
}
VALUES = ("sym", "1", "-1/3", "-1", "x", "", "json", "csv", "text",
          "s", "j", "t", *ORTHO_KINDS, *MOMENT_ROUTES)
WORDS = (*VOCABULARY, "bogus", *(word for pair in VOCABULARY.values() for words in pair
                                for word in words),
         "-h", "--help", "--", "--ord", "--bogus", *VALUES)


@st.composite
def argvs(draw):
    """A subcommand, its positional and its options in either form, at times
    with one more word anywhere; about one in eight is a plain argv."""
    command = draw(st.sampled_from((*VOCABULARY, "bogus")))
    positionals, options = VOCABULARY.get(command, (WORDS, WORDS))
    option, value = st.sampled_from(options), st.sampled_from(VALUES)
    pieces = draw(st.lists(st.one_of(
        st.tuples(option, value),
        st.builds("{}={}".format, option, value).map(lambda token: (token,)),
    ), max_size=3))
    pieces.insert(draw(st.integers(0, len(pieces))), (draw(st.sampled_from(positionals)),))
    for word in draw(st.lists(st.sampled_from(WORDS), max_size=1)):
        pieces.insert(draw(st.integers(0, len(pieces))), (word,))
    return [command, *(token for piece in pieces for token in piece)]


class TestPlainParse:
    """The direct parse of plain argvs agrees with argparse, or declines."""

    @given(argvs())
    @settings(max_examples=600, deadline=None)
    def test_plain_parse_is_argparse_or_declines(self, argv):
        plain = cli._parse_plain(argv)
        if plain is not None:
            assert vars(build_parser().parse_args(argv)) == vars(plain)


#: src first on the child's PYTHONPATH, however pytest itself found the package
SRC = Path(__file__).resolve().parent.parent / "src"
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


class TestConsoleScript:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "riordanlbp", "generate", "moments",
             "--b", "1", "--c", "1", "--order", "3"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["1", "1", "2", "6"]

    def test_closed_stdout_exits_quietly(self):
        # the reader is gone before the child writes, as with `| head` on a
        # long table: no traceback, and the SIGPIPE exit status
        proc = subprocess.Popen(
            [sys.executable, "-m", "riordanlbp", "generate", "hankel", "--order", "7"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=CHILD_ENV,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == EXIT_BROKEN_PIPE == 141
        assert err == b""

    def test_plain_command_loads_no_parser_modules(self):
        # without site, whose .pth files may import any of them first
        code = ("import sys; sys.path.insert(0, sys.argv[1]); from riordanlbp import cli; "
                "cli.main(['generate', 'moments', '--order', '3', '--b=1', '--c=1']); "
                "print(sorted({'argparse', 'gettext', 'locale', 'json', 'dataclasses', 'inspect', "
                "'traceback'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == ["1", "1", "2", "6", "[]"]


#: 1/10^100: mu_44 at (b, c) = (1, c) has a denominator of 4401 digits
TINY_C = "1/1" + "0" * 100
LONG_VALUE_ARGV = ["generate", "moments", "--order", "44", "--b=1", f"--c={TINY_C}"]
HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")


@pytest.mark.skipif(not HAS_DIGIT_LIMIT or sys.flags.int_max_str_digits != -1,
                    reason="this interpreter has no default int <-> str digit limit")
class TestDigitLimit:
    """CPython refuses int <-> str conversions past 4300 digits by default;
    cli.main lifts that limit while a command runs, and only then."""

    @pytest.fixture
    def limit(self):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4321)
        yield 4321
        sys.set_int_max_str_digits(previous)

    def test_long_value_prints_in_full(self, capsys, limit):
        code, out, err = run_cli(capsys, *LONG_VALUE_ARGV)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        last = out.splitlines()[-1]
        assert len(last) > 4300
        expected = moments(LBPFamily.constant(1, Fraction(TINY_C)), "catalan_sum", 44)[-1]
        sys.set_int_max_str_digits(0)
        assert Fraction(last) == expected

    def test_limit_is_restored_after_a_usage_error(self, capsys, limit):
        with pytest.raises(SystemExit):
            main(["generate", "moments", "--order", "x"])
        assert sys.get_int_max_str_digits() == limit

    def test_limit_the_user_sets_is_kept(self):
        proc = subprocess.run([sys.executable, "-m", "riordanlbp", *LONG_VALUE_ARGV],
                              capture_output=True, text=True,
                              env={**CHILD_ENV, "PYTHONINTMAXSTRDIGITS": "4300"})
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "4300 digits" in proc.stderr
