"""Named verification scenarios and their reporting surface."""

import sys
from fractions import Fraction

import pytest

from riordanlbp import combinat, hankel_toeplitz, lbp, scalars, scenarios
from riordanlbp.cli import main
from riordanlbp.report import Check, ScenarioReport, check_equal
from riordanlbp.riordan import RiordanArray
from riordanlbp.scalars import BivarPoly, RationalFunction
from riordanlbp.scenarios import SCENARIOS, run_scenario


def count_moment_gf(monkeypatch) -> list:
    """Record the b of every moment_gf call, whichever module makes it."""
    calls = []
    real = lbp.moment_gf

    def counted(b, *args):
        calls.append(b)
        return real(b, *args)

    for module in (lbp, scenarios):
        monkeypatch.setattr(module, "moment_gf", counted)
    return calls


class TestReportPrimitives:
    def test_check_line_formatting(self):
        assert Check("thing", True).line() == "PASS  thing"
        assert Check("thing", False, "boom").line() == "FAIL  thing  (boom)"

    def test_check_equal_scalars_and_nesting(self):
        assert check_equal("x", [1, 2], [1, 2]).passed
        bad = check_equal("x", [[1, 2], [3, 4]], [[1, 2], [3, 5]])
        assert not bad.passed
        assert "index 1" in bad.detail

    def test_check_equal_length_mismatch(self):
        bad = check_equal("x", [1], [1, 2])
        assert not bad.passed
        assert "length" in bad.detail

    def test_scenario_report_surface(self):
        report = ScenarioReport("demo", (Check("a", True), Check("b", False, "d")))
        assert not report.passed
        lines = report.lines()
        assert lines[0] == "scenario demo:"
        assert lines[-1].endswith("1/2 checks passed (FAILED)")
        payload = report.as_dict()
        assert payload["scenario"] == "demo"
        assert payload["checks"][1] == {"name": "b", "passed": False, "detail": "d"}


class TestRunScenario:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_each_scenario_passes(self, name):
        (report,) = run_scenario(name, order=12)
        failed = [c.name for c in report.checks if not c.passed]
        assert not failed, failed

    def test_all_runs_every_scenario(self):
        reports = run_scenario("all", order=8)
        assert {r.scenario for r in reports} == set(SCENARIOS)
        assert all(r.passed for r in reports)

    def test_cfrac_expands_the_moments_once(self, monkeypatch):
        calls = count_moment_gf(monkeypatch)
        (report,) = run_scenario("cfrac", order=12)
        assert report.passed
        assert len(calls) == 1

    def test_hankel_expands_the_symbolic_moments_once(self, monkeypatch):
        calls = count_moment_gf(monkeypatch)
        (report,) = run_scenario("hankel")
        assert report.passed
        assert len([b for b in calls if not isinstance(b, (int, Fraction))]) == 1

    def test_toeplitz_expands_only_the_moments_it_reads(self, monkeypatch):
        # BiInfiniteMoments(..., 6) reads mu_0..mu_7
        n_maxes = []
        real = scenarios.moments
        monkeypatch.setattr(scenarios, "moments",
                            lambda family, route, n_max: n_maxes.append(n_max)
                            or real(family, route, n_max))
        (report,) = run_scenario("toeplitz")
        assert report.passed
        assert n_maxes and max(n_maxes) <= 7

    def test_factorizations_inverts_each_array_once(self, monkeypatch):
        calls = []
        real = RiordanArray.inverse
        monkeypatch.setattr(RiordanArray, "inverse",
                            lambda self: calls.append(self) or real(self))
        (report,) = run_scenario("factorizations")
        assert report.passed
        assert len(calls) == 3  # the q-, qtilde- and binomial arrays

    def test_example1_builds_each_path_statistic_once(self, monkeypatch):
        calls = []
        real = combinat.schroeder_path_statistics

        def counted(n):
            calls.append(n)
            return real(n)

        for module in (combinat, scenarios):
            monkeypatch.setattr(module, "schroeder_path_statistics", counted, raising=False)
        (report,) = run_scenario("example1")
        assert report.passed
        assert sorted(calls) == list(range(9))

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            run_scenario("nonesuch")


#: BivarPoly products, RationalFunction constructions and determinants in
#: one `verify all --order 12`, as the benchmark's scalars.poly_mul.calls,
#: scalars.ratfunc_new.calls and hankel_toeplitz.determinant.calls count
#: them, and the validating BivarPoly constructions and coerce_scalar calls.
#: One product and one reduction per term of each series convolution
#: took 11,116 and 3,155; coercing each int or Fraction operand through the
#: validating constructors, 878 constructions; computing t_{n-1} apart from
#: the bordered minors in lbp_by_determinant, 25 determinants and 4,687
#: products.  Building internal results through the validating
#: constructors took 1,329 BivarPoly constructions and 3,851 coerce_scalar
#: calls, and multiplying out the Bareiss row scales 124 constructions and
#: 4,573 products.  Forming t_n t'_n and t_{n+1} t'_n twice in
#: recover_parameters took 4,474 products, and a shifted_moment_sum call per
#: term of the schroeder binomial sum (28 for 7 distinct k) 1,689
#: coerce_scalar calls.  Computing the b-fixed checks of example1, example3
#: and cfrac on BivarPoly in b and c took 4,466 products, 62
#: RationalFunction and 34 BivarPoly constructions.
SCALAR_OP_CEILINGS = {"BivarPoly.__mul__": 4021, "RationalFunction.__init__": 56,
                      "BivarPoly.__init__": 10, "scalars.coerce_scalar": 1645,
                      "hankel_toeplitz.determinant": 20}


def test_verify_all_scalar_operation_counts(monkeypatch):
    counts = dict.fromkeys(SCALAR_OP_CEILINGS, 0)

    def count(owner, name, key):
        def counted(*args, _original=getattr(owner, name)):
            counts[key] += 1
            return _original(*args)
        monkeypatch.setattr(owner, name, counted)

    count(BivarPoly, "__mul__", "BivarPoly.__mul__")
    count(BivarPoly, "__rmul__", "BivarPoly.__mul__")
    count(RationalFunction, "__init__", "RationalFunction.__init__")
    count(BivarPoly, "__init__", "BivarPoly.__init__")
    count(hankel_toeplitz, "determinant", "hankel_toeplitz.determinant")
    # every module that imported coerce_scalar calls its own binding
    coerce_scalar = scalars.coerce_scalar
    for module in [m for name, m in sys.modules.items() if name.startswith("riordanlbp")]:
        if getattr(module, "coerce_scalar", None) is coerce_scalar:
            count(module, "coerce_scalar", "scalars.coerce_scalar")
    assert main(["verify", "all", "--order", "12"]) == 0
    over = {k: v for k, v in counts.items() if v > SCALAR_OP_CEILINGS[k]}
    assert not over, f"scalar operation counts {counts} above {SCALAR_OP_CEILINGS}"


@pytest.mark.parametrize("argv", [["verify", "example1"], ["verify", "example3"],
                                  ["oeis-check", "A060693"]], ids=" ".join)
def test_b_fixed_checks_build_no_two_variable_value(argv, monkeypatch, capsys):
    """With b fixed, every value is a polynomial in c alone, on DensePoly:
    the same output comes with every BivarPoly and RationalFunction
    constructor refusing."""
    assert main(argv) == 0
    expected = capsys.readouterr().out

    def refused(*args):
        raise AssertionError("a two-variable value was built")

    for owner, name in ((scalars, "_poly"), (scalars, "_value"),
                        (BivarPoly, "__init__"), (RationalFunction, "__init__")):
        monkeypatch.setattr(owner, name, refused)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
