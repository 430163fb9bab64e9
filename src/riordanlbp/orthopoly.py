"""Companion orthogonal-polynomial families attached to an LBP family.

All three share the quadratic denominator D(t) = 1 + (2b+c)t + b(b+c)t^2
and the three-term recurrence

    y_n(x) = (x - (2b+c)) y_{n-1}(x) - b(b+c) y_{n-2}(x),

differing only in their numerators and hence in their low-order rows:

    kind "q"      ((1+bt)^2/D, t/D)   Q_1 = x - c         recurrence from n=3
    kind "qtilde" ((1+bt)/D,   t/D)   Q~_1 = x - (b+c)    recurrence from n=2
    kind "qhat"   (1/D,        t/D)   Q^_1 = x - (2b+c)   recurrence from n=2

The "q" rows 0..2 are fixed by the array itself; the recurrence only takes
over afterwards (it misses Q_2 by exactly b^2).  The moment sequence of the
LBP family is the first column of the "q" array's inverse, and the shifted
moments (mu_{n+1}/c) form the first column of the "qtilde" array's inverse.

``ortho_rows_by_recurrence`` gives rows 0..n in O(n^2) operations, and
``generate ortho-array`` prints it.  ``ortho_array(...).matrix`` gives the
same rows column by column, one series product per column, O(n^3) in all;
it stays the independent route that the tests and the factorization suite
check the recurrence against.

The factorization suite checks how the LBP coefficient array L splits off
each companion array through a binomial-type prefactor, together with the
equivalent polynomial identities mixing P_n from Q_k with binomial weights.
"""

from __future__ import annotations

from .combinat import binomial
from .lbp import LBPFamily, coefficient_array, moment_gf, rows_by_recurrence
from .report import Check, ScenarioReport, check_equal
from .riordan import RiordanArray, binomial_array
from .scalars import check_size, coerce_scalar
from .series import TruncatedSeries

ORTHO_KINDS = ("q", "qtilde", "qhat")

_NUMERATORS = {
    "q": lambda b: [1, 2 * b, b * b],
    "qtilde": lambda b: [1, b],
    "qhat": lambda b: [1],
}


def _check_kind(kind: str) -> None:
    if kind not in ORTHO_KINDS:
        raise ValueError(f"unknown kind {kind!r}; choose from {ORTHO_KINDS}")


def ortho_array(kind: str, b, c, order: int) -> RiordanArray:
    _check_kind(kind)
    b, c = coerce_scalar(b), coerce_scalar(c)
    den = [1, 2 * b + c, b * (b + c)]
    return RiordanArray(
        TruncatedSeries.ratio(_NUMERATORS[kind](b), den, order),
        TruncatedSeries.ratio([0, 1], den, order),
    )


def ortho_rows_by_recurrence(kind: str, b, c, n_max: int) -> list[list]:
    """Rows 0..n_max of ``ortho_array(kind, b, c, n_max)`` as ascending
    coefficient lists; row n has length n+1."""
    _check_kind(kind)
    check_size("n_max", n_max)
    b, c = coerce_scalar(b), coerce_scalar(c)
    one = b ** 0
    first = {"q": c, "qtilde": b + c, "qhat": 2 * b + c}[kind]
    rows = [[one], [-first, one]]
    if kind == "q":
        rows.append([c * (b + c), -2 * (b + c), one])
    shift, drop = 2 * b + c, b * (b + c)
    for n in range(len(rows), n_max + 1):
        prev = rows[n - 1]
        rows.append([
            x_prev - shift * p - drop * p2
            for x_prev, p, p2 in zip([0, *prev], [*prev, 0], [*rows[n - 2], 0, 0])
        ])
    return rows[:n_max + 1]


def ortho_inverse_f_closed_form(b, c, order: int) -> TruncatedSeries:
    """Second component of the "q" array's inverse:

        (1 - (2b+c)t - sqrt(1 - 2(2b+c)t + c^2 t^2)) / (2b(b+c)t).
    """
    check_size("order", order)
    b, c = coerce_scalar(b), coerce_scalar(c)
    for name, value in (("b", b), ("b + c", b + c)):
        if not value:
            raise ZeroDivisionError(f"{name} must be nonzero")
    root = TruncatedSeries([1, -2 * (2 * b + c), c * c], order + 1).sqrt()
    num = TruncatedSeries([1, -(2 * b + c)], order + 1) - root
    return num.shift_down(1) / (2 * b * (b + c))


def verify_factorizations(b, c, order: int) -> ScenarioReport:
    """Split L off each companion array and cross-check the row identities."""
    b, c = coerce_scalar(b), coerce_scalar(c)
    family = LBPFamily.constant(b, c)
    lbp = coefficient_array(family, order)
    q = ortho_array("q", b, c, order)
    qtilde = ortho_array("qtilde", b, c, order)
    qhat = ortho_array("qhat", b, c, order)

    one = TruncatedSeries.constant(1, order)
    t_over = TruncatedSeries.ratio([0, 1], [1, -b], order)
    checks = [
        Check("lbp = (1, t/(1-bt)) * q-array",
              RiordanArray(one, t_over) * q == lbp),
        Check("lbp = binomial(b) * qtilde-array",
              binomial_array(b, order) * qtilde == lbp),
        Check("q-array = (1+bt, t) * qtilde-array",
              RiordanArray(TruncatedSeries([1, b], order),
                           TruncatedSeries.identity(order)) * qtilde == q),
        Check("lbp = (1/(1-bt)^2, t/(1-bt)) * qhat-array",
              RiordanArray(TruncatedSeries.ratio([1], [1, -2 * b, b * b], order),
                           t_over) * qhat == lbp),
    ]

    n_max = min(order, 6)
    p_rows = rows_by_recurrence(family, n_max)
    for name, rows, weight in (
        ("p_n = sum binom(n-1, n-k) b^(n-k) q_k",
         ortho_rows_by_recurrence("q", b, c, n_max),
         lambda n, k: binomial(n - 1, n - k)),
        ("p_n = sum binom(n, k) b^(n-k) qtilde_k",
         ortho_rows_by_recurrence("qtilde", b, c, n_max),
         lambda n, k: binomial(n, k)),
        ("p_n = sum binom(n+1, k+1) b^(n-k) qhat_k",
         ortho_rows_by_recurrence("qhat", b, c, n_max),
         lambda n, k: binomial(n + 1, k + 1)),
    ):
        mixed = []
        for n in range(n_max + 1):
            weights = [weight(n, k) * b ** (n - k) for k in range(n + 1)]
            mixed.append([sum(weights[k] * rows[k][j] for k in range(j, n + 1))
                          for j in range(n + 1)])
        checks.append(check_equal(name, mixed, p_rows))

    q_inv = q.inverse()
    checks.append(Check("q-array inverse second component matches closed form",
                        q_inv.f == ortho_inverse_f_closed_form(b, c, order)))
    checks.append(Check("first column of q-array inverse gives the moments",
                        q_inv.g == moment_gf(b, c, order)))
    return ScenarioReport("factorizations", checks)
