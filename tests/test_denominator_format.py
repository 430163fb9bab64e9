"""Only ``scalars`` sees how a rational function stores its denominator.

A ``RationalFunction`` keeps its denominator b^i c^j (b+c)^k as the
exponents ``exps``, put in lowest terms by ``_lowest`` and built by
``_value``.  Any other module that reads ``.exps`` or imports ``_lowest`` or
``_value`` depends on that format; clearing denominators goes through
``scalars._over_lcm`` instead.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "riordanlbp"
OWNER = "scalars.py"
FORMAT_NAMES = {"_lowest", "_value"}


def format_uses(source: str) -> list[tuple[str, int]]:
    """(name, line) of each ``.exps`` read, and of each import or attribute
    access of ``_lowest`` or ``_value``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in FORMAT_NAMES | {"exps"}:
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found += [(alias.name, node.lineno) for alias in node.names
                      if alias.name in FORMAT_NAMES]
    return sorted(found, key=lambda use: use[1])


def test_the_scan_finds_each_use():
    source = (
        "from .scalars import DensePoly, _lowest\n"
        "from . import scalars\n"
        "def f(v):\n    return v.exps, scalars._value(v.num, (0, 0, 0))\n"
        "def g(v):\n    return v.num, v.exps_of\n"
    )
    assert format_uses(source) == [("_lowest", 1), ("exps", 4), ("_value", 4)]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != OWNER),
                         ids=lambda p: p.name)
def test_no_module_but_scalars_reads_the_denominator_format(path):
    assert format_uses(path.read_text(encoding="utf-8")) == []
