"""Output checks, run in the child after the command's timer stops.

Each check parses the command's stdout back into exact values with a parser
of its own and compares them, with no tolerance, against an independent
public route of the library:

    lbp-coeffs    entry_closed_form (binomial double sum)
    moments       the catalan_sum moment route
    production    A- and Z-sequences of the Riordan inverse of the
                  coefficient array: column 0 is Z(t) = (1 - g(t)) / f(t),
                  column k >= 1 is A(t) = t / f(t) pushed down k - 1 rows
    hankel        hankel_closed_form
    toeplitz      toeplitz_closed_form for t_n; recover_parameters(t, t', n)
                  returns (b, c) for every n, which pins down t'_n
    cfrac-expand  moment_gf (shapes s, j), tfraction_closed_form (shape t)
    ortho-array   ortho_rows_by_recurrence
    verify        exit code 0, every scenario ok, EXPECTED_CHECKS checks

Symbolic tables are also specialised at the given rational points and
compared with the output of the same command run with rational parameters.
"""

from __future__ import annotations

import contextlib
import io
import re
from fractions import Fraction

from riordanlbp import cli
from riordanlbp.cfrac import tfraction_closed_form
from riordanlbp.hankel_toeplitz import (
    hankel_closed_form,
    recover_parameters,
    toeplitz_closed_form,
)
from riordanlbp.lbp import (
    LBPFamily,
    coefficient_array,
    entry_closed_form,
    moment_gf,
    moments,
)
from riordanlbp.orthopoly import ortho_rows_by_recurrence
from riordanlbp.scalars import PARAM_B, PARAM_C, BivarPoly, RationalFunction
from riordanlbp.series import TruncatedSeries

# 8 scenarios; a change to this count changes the work `verify` does, so the
# benchmark has to be re-baselined rather than read it as a speed-up
EXPECTED_CHECKS = 59
EXPECTED_SCENARIOS = 8

_VERDICT = re.compile(r"^  -> (\d+)/(\d+) checks passed \((ok|FAILED)\)$")
_FACTOR = re.compile(r"^([bc])(?:\^(\d+))?$")
_ONE = {(0, 0): Fraction(1)}


class CheckFailed(Exception):
    pass


# -- parsing ---------------------------------------------------------------


def _parse_poly(text: str) -> dict:
    """Terms {(i, j): Fraction} of a rendered polynomial in b and c."""
    if text == "0":
        return {}
    tokens = text.split(" ")
    signed = []
    if tokens[0].startswith("-"):
        signed.append((-1, tokens[0][1:]))
    else:
        signed.append((1, tokens[0]))
    if len(tokens) % 2 != 1:
        raise CheckFailed(f"malformed polynomial {text!r}")
    for k in range(1, len(tokens), 2):
        if tokens[k] not in ("+", "-"):
            raise CheckFailed(f"malformed polynomial {text!r}")
        signed.append((1 if tokens[k] == "+" else -1, tokens[k + 1]))
    terms: dict = {}
    for sign, body in signed:
        coeff, i, j = Fraction(1), 0, 0
        for factor in body.split("*"):
            m = _FACTOR.match(factor)
            if m is None:
                coeff *= Fraction(factor)
            elif m.group(1) == "b":
                i += int(m.group(2) or 1)
            else:
                j += int(m.group(2) or 1)
        if (i, j) in terms or not coeff:
            raise CheckFailed(f"repeated or zero term in {text!r}")
        terms[(i, j)] = sign * coeff
    return terms


def parse_value(text: str):
    """A Fraction, or a pair (numerator terms, denominator terms)."""
    if "b" not in text and "c" not in text:
        return Fraction(text)
    if text.startswith("("):
        num, sep, den = text[1:-1].partition(")/(")
        if not sep or not text.endswith(")"):
            raise CheckFailed(f"malformed rational function {text!r}")
        return _parse_poly(num), _parse_poly(den)
    return _parse_poly(text), _ONE


def parse_table(stdout: str) -> list[list]:
    return [[parse_value(v) for v in line.split(",")] for line in stdout.splitlines()]


def as_scalar(value):
    if isinstance(value, Fraction):
        return value
    num, den = value
    return RationalFunction(BivarPoly(num), BivarPoly(den))


def evaluate(value, b_pow: list, c_pow: list) -> Fraction:
    """Value at the point whose powers b^i, c^j are listed."""
    if isinstance(value, Fraction):
        return value
    num, den = (
        sum((v * b_pow[i] * c_pow[j] for (i, j), v in terms.items()), Fraction(0))
        for terms in value
    )
    return num / den


def _degree(value) -> int:
    if isinstance(value, Fraction):
        return 0
    return max(max(i, j) for terms in value for i, j in terms)


def size(value) -> tuple[int, int]:
    """(term count, largest numerator or denominator bit length)."""
    if isinstance(value, Fraction):
        return 1, max(value.numerator.bit_length(), value.denominator.bit_length())
    coeffs = [v for terms in value for v in terms.values()]
    bits = max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in coeffs)
    return len(coeffs), bits


# -- comparisons -------------------------------------------------------------


def _equal(got, want) -> bool:
    # polynomials have one normal form, their term dict: compare it directly
    # instead of cross-multiplying through RationalFunction.__eq__
    if (isinstance(want, RationalFunction) and want.den.is_one
            and not isinstance(got, Fraction) and got[1] == _ONE):
        return got[0] == want.num.terms
    return as_scalar(got) == want


def _compare(name: str, got: list, want: list) -> None:
    if len(got) != len(want):
        raise CheckFailed(f"{name}: {len(got)} values, expected {len(want)}")
    for k, (g, w) in enumerate(zip(got, want)):
        if not _equal(g, w):
            raise CheckFailed(f"{name}: value {k} differs from the independent route")


def _triangle(name: str, table: list[list], want_rows: list[list]) -> None:
    if len(table) != len(want_rows):
        raise CheckFailed(f"{name}: {len(table)} rows, expected {len(want_rows)}")
    for n, (row, want) in enumerate(zip(table, want_rows)):
        _compare(f"{name} row {n}", row, want)


def _production_block(b, c, dim: int) -> list[list]:
    arr = coefficient_array(LBPFamily.constant(b, c), dim + 1)
    f_over_t = arr.f.shift_down(1)
    a_seq = TruncatedSeries.constant(1, f_over_t.order) / f_over_t
    z_seq = (1 - arr.g).shift_down(1) / f_over_t
    zero = 0 * b
    return [
        [z_seq.coeffs[i]] + [
            a_seq.coeffs[i - k + 1] if k <= i + 1 else zero for k in range(1, dim)
        ]
        for i in range(dim)
    ]


def _param(text: str, symbol):
    return symbol if text == "sym" else Fraction(text)


def _flat(table: list[list]) -> list:
    return [v for row in table for v in row]


def check_generate(args, table: list[list]) -> None:
    b, c = _param(args.b, PARAM_B), _param(args.c, PARAM_C)
    n = args.order
    column = [row[0] for row in table] if all(len(r) == 1 for r in table) else None
    if args.kind == "lbp-coeffs":
        _triangle(args.kind, table, [
            [entry_closed_form(i, k, b, c) for k in range(i + 1)] for i in range(n + 1)
        ])
    elif args.kind == "ortho-array":
        _triangle(args.kind, table, ortho_rows_by_recurrence(args.family, b, c, n))
    elif args.kind == "production":
        _triangle(args.kind, table, _production_block(b, c, n + 1))
    elif args.kind == "toeplitz":
        if len(table) != 2:
            raise CheckFailed(f"toeplitz: {len(table)} rows, expected 2")
        _compare("toeplitz t_n", table[0], toeplitz_closed_form(b, c, n))
        t_seq, tp_seq = ([as_scalar(v) for v in row] for row in table)
        for k in range(1, n):
            rb, rc = recover_parameters(t_seq, tp_seq, k)
            if not (rb == b and rc == c):
                raise CheckFailed(f"toeplitz: t'_n does not recover (b, c) at n={k}")
    elif column is None:
        raise CheckFailed(f"{args.kind}: expected one value per line")
    elif args.kind == "moments":
        fam = LBPFamily.constant(b, c, order=n)
        _compare(args.kind, column, list(moments(fam, "catalan_sum", n)))
    elif args.kind == "hankel":
        _compare(args.kind, column, hankel_closed_form(b, c, n))
    elif args.kind == "cfrac-expand":
        if args.shape == "t":
            want = tfraction_closed_form(b, c, n).coeffs
        else:
            want = moment_gf(b, c, n).coeffs
        _compare(f"cfrac-expand {args.shape}", column, list(want))
    else:
        raise CheckFailed(f"no check for kind {args.kind!r}")


def _run_cli(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"rational run {' '.join(argv)} exited {rc}")
    return out.getvalue()


def check_specialisation(argv: list, table: list[list], points) -> None:
    """Symbolic table at (b0, c0) equals the rational code path's table."""
    got = _flat(table)
    degree = max(_degree(v) for v in got)
    for b0, c0 in points:
        rational_argv = [a for a in argv if not a.startswith(("--b=", "--c="))]
        rational_argv += [f"--b={b0}", f"--c={c0}"]
        want = _flat(parse_table(_run_cli(rational_argv)))
        if len(want) != len(got):
            raise CheckFailed(f"specialisation at ({b0}, {c0}): length differs")
        bq, cq = Fraction(b0), Fraction(c0)
        b_pow = [bq ** k for k in range(degree + 1)]
        c_pow = [cq ** k for k in range(degree + 1)]
        for k, (g, w) in enumerate(zip(got, want)):
            if not isinstance(w, Fraction) or evaluate(g, b_pow, c_pow) != w:
                raise CheckFailed(f"specialisation at ({b0}, {c0}): value {k} differs")


def check_verify(rc, stdout: str) -> int:
    """Number of checks `verify` ran; raises unless all passed."""
    if rc != 0:
        raise CheckFailed(f"verify exited {rc}")
    verdicts = [_VERDICT.match(line) for line in stdout.splitlines()]
    verdicts = [m for m in verdicts if m]
    passed = sum(int(m.group(1)) for m in verdicts)
    total = sum(int(m.group(2)) for m in verdicts)
    if len(verdicts) != EXPECTED_SCENARIOS or any(m.group(3) != "ok" for m in verdicts):
        raise CheckFailed(f"verify: {len(verdicts)} scenario verdicts, not all ok")
    if not passed == total == EXPECTED_CHECKS:
        raise CheckFailed(f"verify: {passed}/{total} checks, expected "
                          f"{EXPECTED_CHECKS}/{EXPECTED_CHECKS}")
    return total


def check(argv: list, rc, stdout: str, points) -> dict:
    """Run the checks for one command; returns output sizes and counts."""
    if argv[0] == "verify":
        return {"checks": check_verify(rc, stdout), "max_terms": 0, "max_coeff_bits": 0}
    if rc != 0:
        raise CheckFailed(f"generate exited {rc}")
    args = cli.build_parser().parse_args(argv)
    table = parse_table(stdout)
    check_generate(args, table)
    if points:
        check_specialisation(argv, table, points)
    sizes = [size(v) for v in _flat(table)]
    return {
        "checks": 0,
        "max_terms": max(t for t, _ in sizes),
        "max_coeff_bits": max(bits for _, bits in sizes),
    }
