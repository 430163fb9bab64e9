"""Command-line interface: output shapes, determinism, exit codes."""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlbp import cli, oeis, scalars
from riordanlbp.cli import EXIT_BROKEN_PIPE, EXIT_INTERNAL, GENERATE_KINDS, build_parser, main
from riordanlbp.lbp import MOMENT_ROUTES
from riordanlbp.orthopoly import ORTHO_KINDS
from riordanlbp.riordan import LowerTriangularMatrix
from riordanlbp.scalars import PARAM_B, PARAM_C, DensePoly
from riordanlbp.scenarios import SCENARIOS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_toeplitz_reads_moments_through_order_plus_one(self, capsys, monkeypatch):
        asked = []
        real = cli.moments
        monkeypatch.setattr(cli, "moments", lambda fam, route, n_max:
                            asked.append(n_max) or real(fam, route, n_max))
        code, _, _ = run_cli(capsys, "generate", "toeplitz", "--b", "1", "--c", "1",
                             "--order", "5")
        assert code == 0
        assert asked == [6]

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
)


def lines_or_error(compute):
    try:
        return compute()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


class TestGradedRoute:
    """Rational (b, c) are computed on the integers (Db, Dc) and rescaled by
    degree; that must print what the library gives at (b, c) itself."""

    def test_every_kind_has_a_degree(self):
        assert set(cli.DEGREES) == set(GENERATE_KINDS)

    @pytest.mark.parametrize("v", [-12, -7, -1, 0, 1, 7, 12, 360, -360, 10**30 + 6,
                                   Fraction(-9, 4), Fraction(0), Fraction(7)])
    @pytest.mark.parametrize("power", [1, 2, 6, 360, 6 ** 17])
    def test_entry_prints_as_its_fraction(self, v, power):
        # negative, zero and divisible entries, and D^d = 1
        assert cli._over_power(v, power) == str(Fraction(v, power))

    @given(parameter_pairs, st.integers(1, 7))
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
    """(sym, sym) tables are computed at (b, c) = (x, 1) on DensePoly and made
    homogeneous again while rendering; that must print what the
    RationalFunction route prints at (PARAM_B, PARAM_C)."""

    @pytest.mark.parametrize("variant", VARIANTS, ids=" ".join)
    def test_dense_lines_equal_the_rational_function_lines(self, capsys, variant):
        floor = cli.MIN_ORDER["generate"].get(variant[0], 0)
        for order in range(11):
            argv = ["generate", *variant, "--order", str(order), "--b", "sym", "--c", "sym"]
            if order < floor:
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2
                capsys.readouterr()
                continue
            args = build_parser().parse_args(argv)
            lines = [",".join(str(v) for v in row)
                     for row in cli._table(args, PARAM_B, PARAM_C)]
            assert run_cli(capsys, *argv) == (0, "".join(f"{line}\n" for line in lines), "")
            payload = {"kind": variant[0], "params": {"b": "sym", "c": "sym"},
                       "order": order, "data": lines}
            assert run_cli(capsys, *argv, "--format", "json") == (
                0, json.dumps(payload, indent=2) + "\n", "")

    @pytest.mark.parametrize("v, degree, shown", [
        (0, 3, "0"), (DensePoly([]), 0, "0"), (1, 0, "1"), (-7, 0, "-7"),
        (Fraction(-1, 2), 0, "-1/2"), (1, 2, "c^2"), (-1, 1, "-c"), (12, 1, "12*c"),
        (DensePoly([0, 1]), 1, "b"), (DensePoly([1, -1]), 1, "c - b"),
        (DensePoly([0, 0, -1]), 0, "(-b^2)/(c^2)"), (DensePoly([2, 0, 1]), 1, "(2*c^2 + b^2)/(c)"),
        (DensePoly([Fraction(1, 2), 11, 1]), 2, "1/2*c^2 + 11*b*c + b^2"),
    ])
    def test_entry_prints_as_its_rational_function(self, v, degree, shown):
        assert cli._dense_str(v, degree) == shown

    def test_rational_parameters_never_touch_dense_polys(self, capsys, monkeypatch):
        def outputs():
            # rational parameters, and sym mixed with a rational
            return [run_cli(capsys, "generate", *variant, "--order", "6", *params)
                    for params in (("--b=3/2", "--c=-1/3"), ("--b", "sym", "--c=2"))
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
    def test_zero_b_is_parameter_error(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "moments", "--b", "0", "--c", "1"
        )
        assert code == 2
        assert err.strip()

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
                "print(sorted({'argparse', 'gettext', 'locale', 'json'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == ["1", "1", "2", "6", "[]"]
