"""The benchmark's output checks must accept what the package prints.

``perfbench/checks.py`` parses each command's stdout and compares it with an
independent route of the library; a change to the package that breaks that
parsing or that comparison would only show as a refused benchmark run.  Here
the same checks run at small orders on every `generate` kind, symbolic with
specialisation points and at two rational pairs, and on `verify all`.  The
file is loaded by path and without writing bytecode, so the benchmark
directory stays untouched.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from riordanlbp import cli

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(module)
    return module


checks = load_checks()

# every generate kind, cfrac-expand once per shape, as the benchmark runs them
GENERATE_ARGS = [[kind] for kind in ("lbp-coeffs", "moments", "production", "hankel",
                                     "toeplitz", "ortho-array")]
GENERATE_ARGS += [["cfrac-expand", "--shape", shape] for shape in ("s", "j", "t")]
# symbolic tables are specialised at these points; all are off b = 0, c = 0,
# b+c = 0 and 2b+c = 0
SYM_POINTS = (("3/2", "-1/3"), ("2", "5/7"))
RATIONAL_PAIRS = (("111/82", "-37/123"), ("-129/94", "43/141"))
COMMANDS = [
    (["generate", *args, "--order", "6", f"--b={b}", f"--c={c}"], points)
    for (b, c), points in [(("sym", "sym"), SYM_POINTS)] + [(p, ()) for p in RATIONAL_PAIRS]
    for args in GENERATE_ARGS
]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


@pytest.mark.parametrize("argv, points", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_generate_output_passes_the_benchmark_checks(argv, points):
    rc, stdout = run(argv)
    result = checks.check(argv, rc, stdout, points)
    assert result["checks"] == 0 and result["max_terms"] >= 1


def test_verify_output_passes_the_benchmark_checks():
    argv = ["verify", "all", "--order", "12"]
    rc, stdout = run(argv)
    assert checks.check(argv, rc, stdout, ())["checks"] == 59
