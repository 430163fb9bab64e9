"""The benchmark's named spans must keep pointing at functions of the package.

``perfbench/tracing.py`` names the functions whose calls and self time it
reports (``SPANS``) and the scenario functions it times (``SCENARIO_NAMES``).
A renamed or deleted function would leave its metric silently empty, so each
name is resolved here against the package, and a child interpreter runs the
traced commands at small orders to check that every named span and every
binding the coverage check expects is still entered.  The file is loaded by
path and without writing bytecode, so the benchmark directory stays untouched.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def resolve(span: str):
    """The package object a span name such as ``scalars.BivarPoly.__mul__`` names."""
    module, *attrs = span.split(".")
    obj = importlib.import_module(f"{tracing.PACKAGE}.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("span", sorted(tracing.SPANS.values()))
def test_named_span_is_a_package_function(span):
    assert inspect.isfunction(resolve(span)), span


@pytest.mark.parametrize("name", tracing.SCENARIO_NAMES)
def test_timed_scenario_is_a_package_function(name):
    assert inspect.isfunction(resolve(f"scenarios.scenario_{name}")), name


# every generate kind, cfrac-expand once per shape, as the benchmark runs them
GENERATE_ARGS = [[kind] for kind in ("lbp-coeffs", "moments", "production", "hankel",
                                     "toeplitz", "ortho-array")]
GENERATE_ARGS += [["cfrac-expand", "--shape", shape] for shape in ("s", "j", "t")]
TRACED_ARGVS = [
    ["generate", *args, "--order", "4", f"--b={b}", f"--c={c}"]
    for b, c in (("sym", "sym"), ("3/2", "-1/3"))
    for args in GENERATE_ARGS
] + [["verify", "all", "--order", "12"]]

# run in a child interpreter, so the wrapping stays out of this test process
TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
path, argvs = sys.argv[1], json.loads(sys.argv[2])
spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import riordanlbp.scenarios  # imported before install, so its registry is wrapped
from riordanlbp import cli
tracer = tracing.Tracer()
tracer.install()
tracer.start()
codes = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
tracer.stop()
summary = tracer.summary()
entered = {name for name, s in summary["spans"].items() if s["calls"]}
print(json.dumps({
    "codes": codes,
    "spans": sorted(tracing.NAMED_SPANS - entered),
    "bindings": sorted(b for b, hits in summary["hits"].items() if not hits),
}))
"""


def test_every_named_span_and_expected_binding_is_entered():
    """The benchmark's coverage check, on small orders: a named span that no
    command enters any more would leave its per-layer metric reading zero."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TRACED_RUN, str(TRACING), json.dumps(TRACED_ARGVS)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(TRACED_ARGVS)
    assert result["spans"] == [], "named spans never entered"
    assert result["bindings"] == [], "expected bindings never entered"
