"""Every public function of the package refuses what it cannot compute
exactly.

The sweep finds the public module-level functions by introspection.  It
calls each once on valid arguments, then once for each bad value in each
slot: a float, a bool, a str and a zero in a scalar slot, a negative in a
size slot.  Each call must return an exact value, exact all the way down,
or raise an error whose message names the parameter.  A TypeError may
name the rejected type instead, since the type, not the value, is at
fault.
"""

import inspect
import pkgutil
import re
from fractions import Fraction
from importlib import import_module

import pytest

import riordanlbp
from riordanlbp import cfrac, combinat, hankel_toeplitz, lbp, riordan
from riordanlbp.scalars import PARAM_B, PARAM_C

SCALAR_SLOTS = ("b", "c", "colors", "s", "x")
SIZE_SLOTS = ("order", "n_max", "n", "dim", "count", "depth", "width")
BAD_SCALARS = {"float": 0.5, "bool": True, "str": "1", "zero": 0}
NEGATIVE = -1
ERRORS = (TypeError, ValueError, ZeroDivisionError, IndexError)

_FAMILY = lbp.LBPFamily.constant(1, 2)
_MU = lbp.moments(_FAMILY, "p_recurrence", 12)
_MOMENTS = hankel_toeplitz.BiInfiniteMoments(_MU, 2, 5)
_T, _T_SHIFTED = hankel_toeplitz.toeplitz_dets(_MOMENTS, 5)
_LOWER = lbp.coefficient_matrix(_FAMILY, 4)

# parameter name -> a valid argument, shared by every function with that name
BASE = {
    "b": 1, "c": 2, "colors": Fraction(1, 2), "s": 2, "x": Fraction(3, 2),
    "order": 4, "n_max": 4, "n": 3, "dim": 3, "count": 4, "depth": 2, "width": 2,
    "k": 1, "family": _FAMILY, "route": "p_recurrence", "kind": "q",
    "mu": _MU, "sub": [1, 2, 3, 4], "cf": cfrac.moment_sfraction(1, 2, 4),
    "rows": [[1, 2], [3, 4]], "lower": _LOWER, "m": _LOWER,
    "p": riordan.production_of_inverse(_LOWER), "bm": _MOMENTS,
    "t_seq": _T, "tp_seq": _T_SHIFTED, "stats": combinat.schroeder_path_statistics(3),
    "xs": [1, 2], "ys": [3, 4], "values": [PARAM_B, PARAM_C], "text": "3/2",
    "sequence_id": "A000108", "name": "example1", "got": 1, "expected": 1,
}

# qualified name -> why the sweep does not call it
NOT_SWEPT = {
    "cli.build_parser": "argparse; every argv's output and exit code is pinned by "
                        "tests/test_cli_grid.py",
    "cli.cmd_generate": "takes parsed argv; pinned by tests/test_cli_grid.py",
    "cli.cmd_oeis_check": "takes parsed argv; pinned by tests/test_cli_grid.py",
    "cli.cmd_verify": "takes parsed argv; pinned by tests/test_cli_grid.py",
    "cli.main": "takes argv; pinned by tests/test_cli_grid.py",
    "scalars.check_size": "is the size refusal; tests/test_sizes.py pins its messages",
}

# (qualified name, slot, bad value label) -> (full message, why it is allowed)
ALLOWED = {
    ("scalars.scalar_inv", "s", "zero"): (
        "reciprocal of zero",
        "the inverse itself: its argument is the quantity at fault, and every "
        "entry point that divides by a parameter refuses a zero by name first"),
    **{("orthopoly.verify_factorizations", slot, "zero"): (
        "recurrence coefficients must be nonzero",
        "LBPFamily's refusal, which `generate` prints at a zero b or c: b and c "
        "are the recurrence coefficients") for slot in ("b", "c")},
}


def public_functions():
    for info in pkgutil.iter_modules(riordanlbp.__path__):
        if info.name == "__main__":
            continue
        module = import_module(f"riordanlbp.{info.name}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                yield f"{info.name}.{attr}", obj


FUNCTIONS = dict(public_functions())


def base_arguments(func):
    """BASE's value for each parameter it has a value for; a parameter it
    lacks keeps its default, or is left out for the test below to name."""
    return {name: BASE[name] for name in inspect.signature(func).parameters if name in BASE}


def cases():
    for qualname, func in sorted(FUNCTIONS.items()):
        if qualname in NOT_SWEPT:
            continue
        yield qualname, None, None
        for slot in base_arguments(func):
            if slot in SCALAR_SLOTS:
                for label in BAD_SCALARS:
                    yield qualname, slot, label
            elif slot in SIZE_SLOTS:
                yield qualname, slot, "negative"


def is_exact(value, seen=None) -> bool:
    """No float or complex anywhere in value, its containers or its fields."""
    seen = set() if seen is None else seen
    if id(value) in seen or isinstance(value, (int, Fraction, str, type(None))):
        return True
    if isinstance(value, (float, complex)):
        return False
    seen.add(id(value))
    if isinstance(value, dict):
        return all(is_exact(k, seen) and is_exact(v, seen) for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return all(is_exact(v, seen) for v in value)
    if not type(value).__module__.startswith("riordanlbp."):
        raise AssertionError(f"no exactness rule for {type(value).__name__}")
    fields = [getattr(value, name) for cls in type(value).__mro__
              for name in getattr(cls, "__slots__", ()) if hasattr(value, name)]
    return all(is_exact(v, seen) for v in [*fields, *getattr(value, "__dict__", {}).values()])


def test_every_parameter_has_a_base_value():
    missing = sorted(
        f"{qualname}({name})"
        for qualname, func in FUNCTIONS.items() if qualname not in NOT_SWEPT
        for name, param in inspect.signature(func).parameters.items()
        if name not in BASE and param.default is param.empty
    )
    assert missing == []


def test_tables_name_existing_functions():
    assert set(NOT_SWEPT) <= set(FUNCTIONS)
    assert {qualname for qualname, _, _ in ALLOWED} <= set(FUNCTIONS)


@pytest.mark.parametrize("qualname, slot, label", list(cases()))
def test_exact_result_or_named_refusal(qualname, slot, label):
    func = FUNCTIONS[qualname]
    args = base_arguments(func)
    if slot is not None:
        args[slot] = NEGATIVE if label == "negative" else BAD_SCALARS[label]
    try:
        result = func(**args)
    except ERRORS as error:
        assert slot is not None, f"valid arguments refused: {error!r}"
        message = str(error)
        if (qualname, slot, label) in ALLOWED:
            assert message == ALLOWED[qualname, slot, label][0]
        elif isinstance(error, TypeError) and label in ("float", "str"):
            assert message.endswith(f": {label}") or re.search(rf"\b{slot}\b", message), message
        else:
            assert re.search(rf"\b{slot}\b", message), message
    else:
        assert is_exact(result), result
