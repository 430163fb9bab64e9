"""Riordan arrays and the triangular matrix algebra around them.

A Riordan array is a pair of truncated series (g, f) with g(0) invertible,
f(0) = 0 and f'(0) invertible; its (n, k) entry is [t^n] g * f^k.  The group
law is (g1, f1) * (g2, f2) = (g1 * g2(f1), f2(f1)), the identity is (1, t)
and inversion uses the compositional inverse of f.

The production matrix of an invertible lower-triangular block M is
P = M^{-1} S M, S M being M with its top row removed.  For M = L^{-1} it is
solved from P L = L S against L itself, with no inverse, in O(n^3).  For
a Riordan array column k >= 2 of P is column 1 pushed down, a test for
showing that a matrix is NOT Riordan, so columns 0 and 1 (the Z- and
A-sequences) fix P; `lbp.production_sequences` solves only those, in
O(n^2), and `lbp.moment_production` lays them out in the rows of P.

Sizes are arguments: `binomial_array` takes the order of its series and
`RiordanArray.matrix` the dimension of the block it materializes.
"""

from __future__ import annotations

from .scalars import check_size, coerce_scalar, scalar_inv
from .series import TruncatedSeries


class LowerTriangularMatrix:
    """Immutable lower-triangular block; row n carries n+1 entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        cleaned = []
        for n, row in enumerate(rows):
            row = tuple(row)
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries, got {len(row)}")
            cleaned.append(row)
        if not cleaned:
            raise ValueError("empty matrix")
        self.rows = tuple(cleaned)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, n: int, k: int):
        if not (0 <= n < self.dim and 0 <= k < self.dim):
            raise IndexError(f"entry ({n}, {k}) outside the {self.dim} x {self.dim} block")
        if k > n:
            return self.rows[0][0] * 0
        return self.rows[n][k]

    def __eq__(self, other):
        if not isinstance(other, LowerTriangularMatrix):
            return NotImplemented
        n = min(self.dim, other.dim)
        return all(self.rows[i] == other.rows[i] for i in range(n))

    __hash__ = None

    def __mul__(self, other):
        if not isinstance(other, LowerTriangularMatrix):
            return NotImplemented
        n = min(self.dim, other.dim)
        rows = []
        for i in range(n):
            row = []
            for j in range(i + 1):
                acc = self.rows[i][j] * other.rows[j][j]
                for m in range(j + 1, i + 1):
                    acc = acc + self.rows[i][m] * other.rows[m][j]
                row.append(acc)
            rows.append(row)
        return LowerTriangularMatrix(rows)

    def _inverse_diagonal(self) -> list:
        """Inverses of the diagonal entries, None for an entry equal to 1.

        A monic block, as every LBP coefficient block is, then multiplies
        by none of them.
        """
        for i in range(self.dim):
            if not self.rows[i][i]:
                raise ZeroDivisionError(f"zero diagonal entry at {i}")
        return [None if d == 1 else scalar_inv(d)
                for d in (self.rows[i][i] for i in range(self.dim))]

    def _solve_column(self, j: int, inv_diag: list) -> list:
        """Entries j..dim-1 of column j of the inverse, by forward substitution."""
        rows = self.rows
        col = [rows[j][j] if inv_diag[j] is None else inv_diag[j]]
        for i in range(j + 1, self.dim):
            acc = rows[i][j] * col[0]
            for m in range(j + 1, i):
                acc = acc + rows[i][m] * col[m - j]
            col.append(-acc if inv_diag[i] is None else -inv_diag[i] * acc)
        return col

    def inverse_column(self, j: int) -> list:
        """Column j of the inverse from row j down, in O(dim^2) operations."""
        if not 0 <= j < self.dim:
            raise IndexError(f"column {j} outside the {self.dim} x {self.dim} block")
        return self._solve_column(j, self._inverse_diagonal())

    def inverse(self) -> "LowerTriangularMatrix":
        """Forward substitution column by column; exact in any field."""
        inv_diag = self._inverse_diagonal()
        cols = [self._solve_column(j, inv_diag) for j in range(self.dim)]
        return LowerTriangularMatrix(
            [[cols[j][i - j] for j in range(i + 1)] for i in range(self.dim)]
        )

    def __repr__(self):
        return f"LowerTriangularMatrix(dim={self.dim})"


class RiordanArray:
    """The pair (g, f) with entries [t^n] g * f^k."""

    __slots__ = ("g", "f")

    def __init__(self, g: TruncatedSeries, f: TruncatedSeries):
        if not g.coeffs[0]:
            raise ValueError("g(0) must be invertible")
        if f.coeffs[0]:
            raise ValueError("f(0) must vanish")
        if f.order < 1:
            raise ValueError(f"f must have order at least 1, got {f.order}")
        if not f.coeffs[1]:
            raise ValueError("f'(0) must be invertible")
        self.g = g
        self.f = f

    @property
    def order(self) -> int:
        return min(self.g.order, self.f.order)

    def matrix(self, dim: int) -> LowerTriangularMatrix:
        check_size("dim", dim, 1)
        if dim > self.order + 1:
            raise ValueError(
                f"dim must be at most {self.order + 1} for order {self.order}, got {dim}")
        rows = [[None] * (n + 1) for n in range(dim)]
        col = self.g
        for k in range(dim):
            for n in range(k, dim):
                rows[n][k] = col.coeffs[n]
            if k + 1 < dim:
                col = col * self.f
        return LowerTriangularMatrix(rows)

    def __mul__(self, other):
        if not isinstance(other, RiordanArray):
            return NotImplemented
        return RiordanArray(
            self.g * other.g.compose(self.f), other.f.compose(self.f)
        )

    def inverse(self) -> "RiordanArray":
        fbar = self.f.reversion()
        return RiordanArray(self.g.compose(fbar).reciprocal(), fbar)

    def __eq__(self, other):
        if not isinstance(other, RiordanArray):
            return NotImplemented
        return self.g == other.g and self.f == other.f

    __hash__ = None

    def __repr__(self):
        return f"RiordanArray(order={self.order})"


def binomial_array(b, order: int) -> RiordanArray:
    """(1/(1-bt), t/(1-bt)); entries binomial(n, k) * b^(n-k)."""
    g = TruncatedSeries.ratio([1], [1, -coerce_scalar(b)], order)
    return RiordanArray(g, g.shift_up(1).truncate(order))


def production_of_inverse(lower: LowerTriangularMatrix) -> list[list]:
    """Production block of L^-1 for L = lower, of dimension L.dim - 1, from P L = L S.

    P is lower Hessenberg and (L S)[i][j] = L[i][j-1], so row i of P comes
    from rows 0..i+1 of L, right to left:
    P[i][j] = (L[i][j-1] - sum_{k=j+1..i+1} P[i][k] L[k][j]) / L[j][j].
    """
    check_size("dim", lower.dim, 2)
    dim = lower.dim - 1
    inv_diag = lower._inverse_diagonal()
    rows = lower.rows
    zero = rows[0][0] * 0
    out = []
    for i in range(dim):
        row = [zero] * (i + 2)
        for j in range(i + 1, -1, -1):
            acc = rows[i][j - 1] if j else zero
            for k in range(j + 1, i + 2):
                acc = acc - row[k] * rows[k][j]
            row[j] = acc if inv_diag[j] is None else acc * inv_diag[j]
        out.append((row + [zero] * dim)[:dim])
    return out


def production_matrix(m: LowerTriangularMatrix) -> list[list]:
    """Production block of m, M^-1 (M minus its top row), of dimension m.dim - 1."""
    return production_of_inverse(m.inverse())


def has_column_shift(p: list[list]) -> bool:
    """Riordan production structure: column k >= 2 is column 1 pushed down."""
    dim = len(p)
    check_size("dim", dim, 3)
    zero = p[0][0] * 0
    for k in range(2, dim):
        for i in range(dim):
            want = p[i - k + 1][1] if i - k + 1 >= 0 else zero
            if not p[i][k] == want:
                return False
    return True
