"""No floating point anywhere in the package, checked on the source itself.

Runtime tests only see the branches they reach.  This walks the syntax tree
of every module and refuses a float or complex literal, any mention of
``float``, any ``math`` name outside the integer-valued ones, and a ``/``
between two int literals (which makes a float).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "riordanlbp"
# the math functions that take and return integers
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def _int_literal(node) -> bool:
    while isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def float_uses(source: str) -> list[str]:
    """Line and description of each floating-point use in the source."""
    tree = ast.parse(source)
    math_names = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "math"
    }
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"{line}: {type(node.value).__name__} literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{line}: reference to float")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{line}: math.{a.name}" for a in node.names if a.name not in INTEGER_MATH]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_names and node.attr not in INTEGER_MATH):
            found.append(f"{line}: math.{node.attr}")
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
              and _int_literal(node.left) and _int_literal(node.right)):
            found.append(f"{line}: int literal / int literal")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_no_floating_point(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "x = 0.5",
    "x = 2j",
    "x = float(y)",
    "from math import sqrt",
    "import math\nx = math.pi",
    "import math as m\nx = m.log(y)",
    "x = -1 / 2",
])
def test_each_float_use_is_caught(source):
    assert float_uses(source)


def test_exact_arithmetic_is_not_flagged():
    source = "from math import comb, lcm\nimport math\nx = math.gcd(4, 6) / y + Fraction(1, 2)"
    assert float_uses(source) == []
