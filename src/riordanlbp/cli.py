"""Command-line surface.

Three subcommands:

    generate    print exact tables (sequences or triangular/square blocks)
    verify      run named verification scenarios, exit nonzero on failure
    oeis-check  compare generated sequences against vendored fixture files

Parameters b and c accept rational strings ("2", "-1/3") or "sym" for the
symbolic value.  Output is csv (one sequence value or one comma-joined row
per line) or json (object with kind, params, order and data, every value
rendered as a string so exactness survives serialization).

Exit codes: 0 success, 1 verification failure, 2 usage or parameter error,
70 (sysexits EX_SOFTWARE) for an internal defect, with its traceback on
stderr, 141 (128 + SIGPIPE, what a shell reports for a tool killed by
SIGPIPE) when the reader closes stdout early, as ``riordanlbp ... | head``
does; that ends quietly, without a traceback.
Values print in full however many digits they have: unless the user set
CPython's int <-> str digit limit (``PYTHONINTMAXSTRDIGITS`` or
``-X int_max_str_digits``), ``main`` lifts it while the command runs and
puts the previous limit back when it returns.
``--order`` is checked against the smallest order each generate kind and
verify scenario accepts (``MIN_ORDER``, also listed in ``--help``).

An argv in plain form (the subcommand, one positional, and options spelled
in full as ``--name value`` or ``--name=value``, no separate value starting
with "-") is parsed directly from ``SUBCOMMANDS``; argparse, built from the
same description, parses every other argv and renders ``--help`` and every
usage error.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from functools import cache, partial
from math import gcd, lcm
from types import SimpleNamespace

from . import cfrac, oeis
from .lbp import (
    LBPFamily,
    MOMENT_ROUTES,
    coefficient_matrix,
    moment_production,
    moments,
)
from .hankel_toeplitz import (
    BiInfiniteMoments,
    hankel_transform,
    toeplitz_dets,
)
from .orthopoly import ORTHO_KINDS, ortho_rows_by_recurrence
from .scalars import PARAM_B, PARAM_C, DensePoly, _homogeneous_str, parse_rational

GENERATE_KINDS = (
    "lbp-coeffs",
    "moments",
    "production",
    "hankel",
    "toeplitz",
    "cfrac-expand",
    "ortho-array",
)

#: sysexits EX_SOFTWARE: an exception the program does not expect
EXIT_INTERNAL = 70
#: 128 + SIGPIPE: the reader closed stdout before the output was written
EXIT_BROKEN_PIPE = 141

#: smallest --order each generate kind and verify scenario accepts; 0 if unlisted
MIN_ORDER = {
    "generate": {"toeplitz": 1, "cfrac-expand": 1, "ortho-array": 1},
    "verify": {"all": 8, "example1": 8, "factorizations": 1, "cfrac": 1},
}


def _order_help(command: str) -> str:
    by_floor: dict[int, list[str]] = {}
    for name, floor in MIN_ORDER[command].items():
        by_floor.setdefault(floor, []).append(name)
    floors = "; ".join(f"at least {floor} for {', '.join(names)}"
                       for floor, names in by_floor.items())
    return f"order of the computation; {floors}; at least 0 otherwise"


def _parse_param(text: str, symbol):
    if text == "sym":
        return symbol
    return parse_rational(text)


#: degree in (b, c) of entry k on line n of each kind's output.  Every table
#: is homogeneous: (b, c, x) -> (lb, lc, lx) sends P_n to l^n P_n, so at
#: (b, c) = s (B, C) entry (n, k) is s^degree times its value at (B, C),
#: and where b or c is sym it is c^degree times its value at (b/c, 1).
DEGREES = {
    "lbp-coeffs": lambda n, k: n - k,
    "moments": lambda n, k: n,
    # entries right of the superdiagonal are 0
    "production": lambda n, k: max(n - k + 1, 0),
    "hankel": lambda n, k: n * (n + 1),
    # line 0 is t_k, of degree 0, and line 1 is t'_k, of degree k + 1
    "toeplitz": lambda n, k: n * (k + 1),
    "cfrac-expand": lambda n, k: n,
    "ortho-array": lambda n, k: n - k,
}


def _table(args, b, c) -> list:
    """Rows of the table args asks for at (b, c); a sequence has one value a row.

    ``ortho-array`` is the O(n^2) three-term recurrence; the O(n^3) series
    route, ``ortho_array(...).matrix``, is its reference (see ``orthopoly``).
    ``production`` is the O(n^2) route by the A- and Z-sequences; the O(n^3)
    solve ``production_of_inverse`` is its reference.
    """
    order = args.order
    # the two kinds that take a zero parameter come before the family
    if args.kind == "cfrac-expand":
        builder = {
            "s": cfrac.moment_sfraction,
            "j": cfrac.moment_jfraction,
            "t": cfrac.constant_tfraction,
        }[args.shape]
        series = cfrac.cf_expand(builder(b, c, order), order)
        return [[v] for v in series.coeffs]
    if args.kind == "ortho-array":
        return ortho_rows_by_recurrence(args.family, b, c, order)
    fam = LBPFamily.constant(b, c)
    if args.kind == "lbp-coeffs":
        # tuple rows: with rows_by_recurrence's lists here, glibc could not
        # trim the freed output lines from the heap; peak RSS at order 128
        # rose 1.4 MB
        return coefficient_matrix(fam, order + 1).rows
    if args.kind == "moments":
        return [[v] for v in moments(fam, args.route, order)]
    if args.kind == "production":
        return moment_production(fam, order + 1)
    if args.kind == "hankel":
        mu = moments(fam, "p_recurrence", 2 * order)
        return [[v] for v in hankel_transform(mu, order)]
    if args.kind == "toeplitz":
        # the determinants read mu_{-order}..mu_{order+1}
        mu = moments(fam, "p_recurrence", order + 1)
        return toeplitz_dets(BiInfiniteMoments(mu, c, order), order)
    raise ValueError(f"unknown kind {args.kind!r}")


def _over_powers(scale: Fraction):
    """The printer of an entry computed at the integers (B, C), where
    (b, c) = scale (B, C): an entry v of degree d prints as v scale^d in
    lowest terms.  With scale = p/q, p and q are coprime, so one gcd of an
    int v against q^d is the whole reduction; each power of p and q is
    computed once, and p^d multiplies only where p is not 1."""
    p, q = scale.numerator, scale.denominator
    num_power, den_power = cache(p.__pow__), cache(q.__pow__)
    scaled = p != 1

    def over_power(v, d: int) -> str:
        q_d = den_power(d)
        if type(v) is not int:
            return str(Fraction(v * num_power(d), q_d))
        g = gcd(v, q_d)
        v //= g
        # at G = 1 a multiply by 1 and its cache lookup cost 4-9% of the
        # render of lbp-coeffs 128 on CPython 3.11; Fraction entries (only
        # toeplitz's, two a line) are not worth the branch
        if scaled:
            v *= num_power(d)
        return str(v) if g == q_d else f"{v}/{q_d // g}"
    return over_power


def _generate_data(args) -> list[str]:
    """Lines of the table args asks for.

    Rational (b, c) are computed at the coprime integers (B, C) = (b, c) D/G,
    D the lcm of the denominators and G the gcd of Db and Dc (1 where both
    are 0), so (b, c) = (G/D) (B, C).  (b, c) with a sym are computed on
    DensePoly at (b, c) = (x, 1); a rational side r is 1 there, or 0 where
    r is 0, so that LBPFamily refuses it, and only the printer sees r.
    Entry (n, k) is then rendered from its degree DEGREES[kind](n, k); a
    zero entry, such as production's right of the superdiagonal, prints as
    "0" at every degree, so it skips the printer.
    """
    b = _parse_param(args.b, PARAM_B)
    c = _parse_param(args.c, PARAM_C)
    if isinstance(b, Fraction) and isinstance(c, Fraction):
        den = lcm(b.denominator, c.denominator)
        b, c = int(b * den), int(c * den)
        common = gcd(b, c) or 1
        b, c, show = b // common, c // common, _over_powers(Fraction(common, den))
    else:
        show = (_homogeneous_str if b is PARAM_B and c is PARAM_C
                else partial(_homogeneous_str, b=b, c=c))
        b, c = DensePoly([0, 1]) if b else 0, 1 if c else 0
    degree = DEGREES[args.kind]
    return [",".join(show(v, degree(n, k)) if v else "0" for k, v in enumerate(row))
            for n, row in enumerate(_table(args, b, c))]


def cmd_generate(args) -> int:
    data = _generate_data(args)
    if args.format == "json":
        payload = {
            "kind": args.kind,
            "params": {"b": args.b, "c": args.c},
            "order": args.order,
            "data": data,
        }
        import json

        print(json.dumps(payload, indent=2))
    else:
        for line in data:
            print(line)
    return 0


def cmd_verify(args) -> int:
    from .scenarios import run_scenario

    reports = run_scenario(args.scenario, args.order)
    if args.format == "json":
        import json

        print(json.dumps([r.as_dict() for r in reports], indent=2))
    else:
        for report in reports:
            for line in report.lines():
                print(line)
    return 0 if all(r.passed for r in reports) else 1


def cmd_oeis_check(args) -> int:
    ids = oeis.known_ids() if args.sequence_id == "all" else (args.sequence_id,)
    checks = [oeis.check_sequence(sid, args.fixtures) for sid in ids]
    for chk in checks:
        print(chk.line() + (f"  [{chk.detail}]" if chk.passed and chk.detail else ""))
    return 0 if all(c.passed for c in checks) else 1


#: each subcommand, in --help order: its help, the function that runs it, its
#: one positional (dest, choices) and its options as add_argument keywords
SUBCOMMANDS = {
    "generate": {
        "help": "print exact tables",
        "func": cmd_generate,
        "positional": ("kind", GENERATE_KINDS),
        "options": {
            "--b": {"default": "sym",
                    "help": "rational string or 'sym'; write negatives as --b=-1/3"},
            "--c": {"default": "sym",
                    "help": "rational string or 'sym'; write negatives as --c=-1/3"},
            "--order": {"type": int, "default": 12, "help": _order_help("generate")},
            "--format": {"choices": ("csv", "json"), "default": "csv"},
            "--route": {"choices": MOMENT_ROUTES, "default": "p_recurrence",
                        "help": "moment computation route (moments kind only; "
                        "default: p_recurrence, O(n) operations)"},
            "--shape": {"choices": ("s", "j", "t"), "default": "t",
                        "help": "continued-fraction shape (cfrac-expand kind only)"},
            "--family": {"choices": ORTHO_KINDS, "default": "q",
                         "help": "companion family (ortho-array kind only)"},
        },
    },
    "verify": {
        "help": "run verification scenarios",
        "func": cmd_verify,
        "positional": ("scenario", ("all", "example1", "example2", "example3",
                                    "example4", "factorizations", "hankel",
                                    "toeplitz", "cfrac")),
        "options": {
            "--order": {"type": int, "default": 12,
                        "help": _order_help("verify") + "; only example1, factorizations "
                        "(capped at 8) and cfrac read it, while example2-example4, "
                        "hankel and toeplitz check fixed-size tables"},
            "--format": {"choices": ("text", "json"), "default": "text"},
        },
    },
    "oeis-check": {
        "help": "compare against vendored fixtures",
        "func": cmd_oeis_check,
        "positional": ("sequence_id", (*oeis.known_ids(), "all")),
        "options": {
            "--fixtures": {"default": None,
                           "help": "fixture directory (default: vendored files)"},
        },
    },
}


def build_parser():
    """The argparse parser for SUBCOMMANDS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="riordanlbp",
        description="Exact tables and identity checks for constant-coefficient "
                    "Laurent biorthogonal polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in SUBCOMMANDS.items():
        cmd = sub.add_parser(command, help=spec["help"])
        dest, choices = spec["positional"]
        cmd.add_argument(dest, choices=choices)
        for option, keywords in spec["options"].items():
            cmd.add_argument(option, **keywords)
        cmd.set_defaults(func=spec["func"])
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, for an argv in plain
    form (see the module docstring) whose values their type and choices
    accept; None for any other argv, which argparse then parses.  As in
    argparse, the last of repeated options wins.
    """
    spec = SUBCOMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    options = spec["options"]
    values = {option[2:]: keywords["default"] for option, keywords in options.items()}
    dest, choices = spec["positional"]
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            # the positional's dest is in values once it has been given
            if dest in values or token not in choices:
                return None
            values[dest] = token
            continue
        option, equals, value = token.partition("=")
        keywords = options.get(option)
        if keywords is None:
            return None
        if not equals:
            value = next(tokens, "-")  # a missing value is declined as "-"
            if value.startswith("-"):
                return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[option[2:]] = value
    if dest not in values:
        return None
    return SimpleNamespace(command=argv[0], func=spec["func"], **values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # exact values can pass CPython's int <-> str digit limit (4300 by
    # default since 3.10.7, when the flag came in); lift it for this
    # command unless the user set one
    if getattr(sys.flags, "int_max_str_digits", None) != -1:
        return _run(argv)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(previous)


def _run(argv) -> int:
    args = _parse_plain(argv) or build_parser().parse_args(argv)
    if args.command in MIN_ORDER:
        target = args.kind if args.command == "generate" else args.scenario
        floor = MIN_ORDER[args.command].get(target, 0)
        if args.order < floor:
            build_parser().error(
                f"--order must be at least {floor} for {args.command} {target}")
    try:
        code = args.func(args)
        # flush inside the try, so a closed pipe raises here and not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the recipe in the `signal` docs: point stdout at devnull so the
        # flush at interpreter exit cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, FileNotFoundError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
