"""Hankel and Toeplitz determinants of a moment sequence.

Everything here is exact.  Determinants over polynomial scalars use
fraction-free (Bareiss) elimination so intermediate entries stay polynomial;
matrices of rational functions are cleared to polynomial rows first and the
accumulated row factors divided back out at the end.

For the constant-coefficient moment sequence the closed forms are

    hankel:   h_n = (bc)^n (b(b+c))^binom(n,2)
    toeplitz: t_n = (-b/c)^binom(n+1,2)

and the pair of Toeplitz sequences (t_n from mu_{k-j}, t'_n from mu_{1-j+k})
recovers b and c by two-term ratios.  The bordered Toeplitz determinant with
last row 1, x, ..., x^n reproduces P_n(x) after division by t_{n-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combinat import binomial
from .scalars import BivarPoly, RationalFunction, coerce_scalar, scalar_inv


def _bareiss(mat: list[list], divide) -> object:
    """Fraction-free elimination; `divide` must be exact for the entry type."""
    n = len(mat)
    sign = 1
    prev = None
    for k in range(n - 1):
        if not mat[k][k]:
            for r in range(k + 1, n):
                if mat[r][k]:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return mat[0][0] * 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]
                mat[i][j] = num if prev is None else divide(num, prev)
        prev = mat[k][k]
    return mat[n - 1][n - 1] if sign == 1 else -mat[n - 1][n - 1]


def determinant(rows) -> object:
    """Exact determinant of a square matrix of Fraction / polynomial scalars."""
    mat = [[coerce_scalar(v) for v in row] for row in rows]
    n = len(mat)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    if n == 1:
        return mat[0][0]
    if all(isinstance(v, Fraction) for row in mat for v in row):
        return _bareiss(mat, lambda a, b: a / b)

    poly_rows: list[list[BivarPoly]] = []
    cleared = BivarPoly.one()
    for row in mat:
        row = [v if isinstance(v, RationalFunction) else RationalFunction(v) for v in row]
        row_factor = BivarPoly.one()
        for v in row:
            row_factor = row_factor * v.den
        cleared = cleared * row_factor
        poly_rows.append([v.num * row_factor.divexact(v.den) for v in row])
    det = _bareiss(poly_rows, lambda a, b: a.divexact(b))
    return RationalFunction(det, cleared)


def hankel_transform(mu, n_max: int) -> list:
    """h_n = det(mu_{i+j}) for n = 0..n_max; needs 2 n_max + 1 moments."""
    values = list(mu)
    if len(values) < 2 * n_max + 1:
        raise ValueError(f"need {2 * n_max + 1} moments for depth {n_max}")
    return [
        determinant([[values[i + j] for j in range(n + 1)] for i in range(n + 1)])
        for n in range(n_max + 1)
    ]


def hankel_closed_form(b, c, n_max: int) -> list:
    b, c = coerce_scalar(b), coerce_scalar(c)
    return [
        (b * c) ** n * (b * (b + c)) ** binomial(n, 2) for n in range(n_max + 1)
    ]


@dataclass(frozen=True)
class BiInfiniteMoments:
    """Moments extended to negative index by mu_{-k} = mu_{1+k} / c^(1+2k)."""

    forward: tuple
    backward: tuple
    c: object

    def __post_init__(self):
        object.__setattr__(self, "forward", tuple(coerce_scalar(v) for v in self.forward))
        object.__setattr__(self, "backward", tuple(coerce_scalar(v) for v in self.backward))
        object.__setattr__(self, "c", coerce_scalar(self.c))
        if not self.forward or not self.forward[0] == 1:
            raise ValueError("moments are normalized to mu_0 = 1")
        if len(self.forward) < len(self.backward) + 2:
            raise ValueError("backward depth exceeds available forward moments")
        for k, value in enumerate(self.backward):
            if not value * self.c ** (3 + 2 * k) == self.forward[2 + k]:
                raise ValueError(f"backward moment at index -{k + 1} breaks the defining relation")

    @property
    def depth(self) -> int:
        return len(self.backward)

    def moment(self, n: int):
        if n >= 0:
            if n >= len(self.forward):
                raise IndexError(f"forward moment {n} not stored")
            return self.forward[n]
        if -n > len(self.backward):
            raise IndexError(f"backward moment {n} not stored")
        return self.backward[-n - 1]


def extend_moments(mu, c, depth: int) -> BiInfiniteMoments:
    values = [coerce_scalar(v) for v in mu]
    c = coerce_scalar(c)
    if not c:
        raise ValueError("extension to negative index requires invertible c")
    if len(values) < depth + 2:
        raise ValueError(f"need {depth + 2} moments for backward depth {depth}")
    inv_c = scalar_inv(c)
    backward = [values[2 + k] * inv_c ** (3 + 2 * k) for k in range(depth)]
    return BiInfiniteMoments(tuple(values), tuple(backward), c)


def toeplitz_dets(bm: BiInfiniteMoments, n_max: int) -> tuple[list, list]:
    """(t_n, t'_n) for n = 0..n_max with t from mu_{k-j}, t' from mu_{1+k-j}."""
    if bm.depth < n_max:
        raise ValueError(f"backward depth {bm.depth} < {n_max}")
    t_seq = [
        determinant([[bm.moment(k - j) for k in range(n + 1)] for j in range(n + 1)])
        for n in range(n_max + 1)
    ]
    tp_seq = [
        determinant([[bm.moment(1 + k - j) for k in range(n + 1)] for j in range(n + 1)])
        for n in range(n_max + 1)
    ]
    return t_seq, tp_seq


def toeplitz_closed_form(b, c, n_max: int) -> list:
    b, c = coerce_scalar(b), coerce_scalar(c)
    ratio = -b * scalar_inv(c)
    return [ratio ** binomial(n + 1, 2) for n in range(n_max + 1)]


def recover_parameters(t_seq, tp_seq, n: int) -> tuple:
    """(b, c) from consecutive Toeplitz determinants; valid for n >= 1."""
    if n < 1:
        raise ValueError("recovery needs n >= 1")
    if len(t_seq) < n + 2 or len(tp_seq) < n + 2:
        raise ValueError(f"need determinants through index {n + 1}")
    for name, d in (("t_n t'_n", t_seq[n] * tp_seq[n]),
                    ("t_{n+1} t'_n", t_seq[n + 1] * tp_seq[n])):
        if not d:
            raise ZeroDivisionError(f"vanishing denominator {name}")
    b = -t_seq[n - 1] * tp_seq[n + 1] * scalar_inv(t_seq[n] * tp_seq[n])
    c = t_seq[n] * tp_seq[n + 1] * scalar_inv(t_seq[n + 1] * tp_seq[n])
    return b, c


def lbp_by_determinant(bm: BiInfiniteMoments, n: int) -> list:
    """Coefficients of P_n(x) from the bordered Toeplitz determinant.

    The matrix stacks the rows (mu_{k-j})_{k=0..n} for j = 0..n-1 on top of
    the row (1, x, ..., x^n); expanding along that last row and dividing by
    t_{n-1} makes the result monic.
    """
    if n == 0:
        return [coerce_scalar(1)]
    if bm.depth < n - 1:
        raise ValueError(f"backward depth {bm.depth} < {n - 1}")
    moment_rows = [[bm.moment(k - j) for k in range(n + 1)] for j in range(n)]
    t_prev = determinant([row[:n] for row in moment_rows])
    if not t_prev:
        raise ZeroDivisionError("vanishing Toeplitz determinant")
    inv_prev = scalar_inv(t_prev)
    coeffs = []
    for k in range(n + 1):
        minor = determinant(
            [[row[col] for col in range(n + 1) if col != k] for row in moment_rows]
        )
        sign = 1 if (n + k) % 2 == 0 else -1
        coeffs.append(sign * minor * inv_prev)
    return coeffs
