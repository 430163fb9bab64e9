"""The benchmark's named spans must keep pointing at functions of the package.

``perfbench/tracing.py`` names the functions whose calls and self time it
reports (``SPANS``) and the scenario functions it times (``SCENARIO_NAMES``).
A renamed or deleted function would leave its metric silently empty, so each
name is resolved here against the package.  The file is loaded by path and
without writing bytecode, so the benchmark directory stays untouched.
"""

import importlib
import importlib.util
import inspect
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
