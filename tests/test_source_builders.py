"""Only the private builders call ``__new__``.

Every exact value either enters through a constructor that checks it or is
an arithmetic result, built by one of ``_poly``, ``_value``, ``_dense`` and
``_series`` without a second check.  A ``__new__`` call anywhere else in the
package would be a third way in.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "riordanlbp"
BUILDERS = {"_poly", "_value", "_dense", "_series"}


def new_calls_outside_builders(source: str) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of each ``__new__`` call outside a builder;
    the enclosing function is None at module or class level."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__new__" and function not in BUILDERS):
                found.append((function, child.lineno))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_the_scan_finds_new_outside_a_builder():
    source = (
        "def _poly(terms):\n    return BivarPoly.__new__(BivarPoly)\n"
        "class BivarPoly:\n"
        "    @classmethod\n    def one(cls):\n        return cls.__new__(cls)\n"
        "ZERO = object.__new__(object)\n"
    )
    assert new_calls_outside_builders(source) == [("one", 6), (None, 7)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_builders_call_new(path):
    assert new_calls_outside_builders(path.read_text(encoding="utf-8")) == []
