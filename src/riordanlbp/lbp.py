"""Laurent biorthogonal polynomial families and their moment theory.

A family is defined by the recurrence

    P_n(x) = (x - c_{n-1}) P_{n-1}(x) - b_{n-1} x P_{n-2}(x),   n >= 2,

with P_0 = 1 and P_1 = x - c_0.  When b and c are constant the coefficient
array is the Riordan array (1/(1+ct), t(1-bt)/(1+ct)) and the moment matrix
is its inverse; the moment sequence mu_n (the inverse's first column) begins
1, c, c(b+c), c(b+c)(2b+c), ...  Its production block comes from its A- and
Z-sequences (`moment_production`).

Six independent routes compute the moments and must agree; `moments`
returns mu_0..mu_n_max by any of them as a plain list:

* matrix_inverse     -- forward-solve the first column of the inverse of the
                        materialized coefficient block (works for arbitrary,
                        e.g. periodic, coefficient sequences);
* catalan_sum        -- mu_n = c mu~_{n-1}, the shifted moments given by the
                        binomial-Catalan sum `shifted_moment_sum`
                        mu~_n = sum_k C(n+k, 2k) c^(n-k) b^k C_k;
* lagrange           -- the k = 0 case of the Lagrange-inversion entry formula;
* shifted_tfraction  -- solve u = 1/(1 - ct - btu) order by order and shift
                        through mu(t) = 1 + c t u(t);
* gf_expansion       -- expand the closed form
                        (c + 2b - c^2 t - c sqrt(1 - 2(2b+c)t + c^2 t^2))/(2b);
* p_recurrence       -- the P-recurrence of that algebraic series, O(n)
                        operations: mu_0 = 1, mu_1 = c, mu_2 = c(b+c) and
                        (n+1) mu_{n+1} = (2b+c)(2n-1) mu_n - c^2 (n-2) mu_{n-1}
                        for n >= 2 (the large Schroeder recurrence at b = c = 1).

Sizes are arguments: every function here takes the order, `n_max` or `dim`
it computes to.  `LBPFamily.order` is not read by any of them.
"""

from __future__ import annotations

from fractions import Fraction

from .combinat import binomial, catalan
from .riordan import LowerTriangularMatrix, RiordanArray
from .scalars import DensePoly, _quotient, check_size, coerce_scalar
from .series import TruncatedSeries

MOMENT_ROUTES = (
    "matrix_inverse",
    "catalan_sum",
    "lagrange",
    "shifted_tfraction",
    "gf_expansion",
    "p_recurrence",
)

#: default of `LBPFamily.order`, a size that no function reads
DEFAULT_ORDER = 16


class LBPFamily:
    """Recurrence data; b_seq and c_seq are cycled indefinitely by index.

    `order` is stored for callers that pass it; every function takes its
    size as an argument instead.
    """

    __slots__ = ("b_seq", "c_seq", "order")

    def __init__(self, b_seq, c_seq, order: int = DEFAULT_ORDER):
        self.b_seq = tuple(coerce_scalar(v) for v in b_seq)
        self.c_seq = tuple(coerce_scalar(v) for v in c_seq)
        self.order = order
        if not self.b_seq or not self.c_seq:
            raise ValueError("coefficient sequences must be nonempty")
        for v in (*self.b_seq, *self.c_seq):
            if not v:
                raise ValueError("recurrence coefficients must be nonzero")

    @classmethod
    def constant(cls, b, c, order: int = DEFAULT_ORDER) -> "LBPFamily":
        return cls((b,), (c,), order)

    @classmethod
    def periodic(cls, b_seq, c_seq, order: int = DEFAULT_ORDER) -> "LBPFamily":
        return cls(tuple(b_seq), tuple(c_seq), order)

    @property
    def is_constant(self) -> bool:
        return all(v == self.b_seq[0] for v in self.b_seq[1:]) and all(
            v == self.c_seq[0] for v in self.c_seq[1:]
        )

    def b_at(self, n: int):
        return self.b_seq[n % len(self.b_seq)]

    def c_at(self, n: int):
        return self.c_seq[n % len(self.c_seq)]

    @property
    def b(self):
        if any(v != self.b_seq[0] for v in self.b_seq[1:]):
            raise ValueError("family does not have constant b")
        return self.b_seq[0]

    @property
    def c(self):
        if any(v != self.c_seq[0] for v in self.c_seq[1:]):
            raise ValueError("family does not have constant c")
        return self.c_seq[0]


def rows_by_recurrence(family: LBPFamily, n_max: int, width: int | None = None) -> list[list]:
    """Polynomial rows as ascending coefficient lists; row n has length n+1,
    or min(n+1, width) when a width is given.

    Row n is x P_{n-1} - c_{n-1} P_{n-1} - b_{n-1} x P_{n-2}, built entry by
    entry from the previous two rows padded with zeros to length n+1.  Entry
    k reads entries k-1 and k of the rows before it, so a row cut at width
    needs only its parents cut there: it is the same recurrence in
    O(n_max * width) operations.
    """
    check_size("n_max", n_max)
    if width is not None:
        check_size("width", width, 1)
    one = family.c_at(0) ** 0
    rows = [[one], [-family.c_at(0), one][:width]][:n_max + 1]
    for n in range(2, n_max + 1):
        b, c, prev = family.b_at(n - 1), family.c_at(n - 1), rows[n - 1]
        # a cut row ends where its cut parents end, with no zero after them
        end = (0,) if width is None or n < width else ()
        rows.append([
            x_prev - c * p - b * x_prev2
            for x_prev, p, x_prev2 in zip([0, *prev], [*prev, *end], [0, *rows[n - 2], *end])
        ])
    return rows


def coefficient_matrix(family: LBPFamily, dim: int) -> LowerTriangularMatrix:
    check_size("dim", dim, 1)
    return LowerTriangularMatrix(rows_by_recurrence(family, dim - 1))


def _check_riordan(family: LBPFamily) -> None:
    if not family.is_constant:
        raise ValueError("only constant-coefficient families form a Riordan array")


def coefficient_array(family: LBPFamily, order: int) -> RiordanArray:
    """(1/(1+ct), t(1-bt)/(1+ct)); constant-coefficient families only."""
    _check_riordan(family)
    b, c = family.b, family.c
    return RiordanArray(
        TruncatedSeries.ratio([1], [1, c], order),
        TruncatedSeries.ratio([0, 1, -b], [1, c], order),
    )


def moment_matrix(family: LBPFamily, dim: int) -> LowerTriangularMatrix:
    """Inverse of the coefficient block; first column is the moment sequence."""
    return coefficient_matrix(family, dim).inverse()


def moment_production(family: LBPFamily, dim: int) -> list[list]:
    """Production block of the moment matrix L^-1, of dimension dim, in
    O(dim^2) operations; constant-coefficient families only.

    Row i is z_i, a_i, ..., a_1, a_0 (Deutsch, Ferrari and Rinaldi 2005),
    from columns 1 and 0 of P L = L S on the monic coefficient rows L, which
    are built two columns wide: a_i = L[i][0] - sum_{k=2..i+1} a_{i-k+1}
    L[k][1], the one O(dim^2) part, and z_i = -sum_{k=1..i+1} a_{i-k+1}
    L[k][0], which L[k][0] = (-c)^k turns into z_i = c (a_i - z_{i-1}) with
    z_{-1} = 0.  Each value has the type `production_of_inverse`, the
    O(dim^3) solve of all of P L = L S, gives it; a_0 = 1 has the type of
    the diagonal L[i][i], which is 1 - c*0 - b*0 from row 2 on.
    """
    check_size("dim", dim, 1)
    _check_riordan(family)
    b, c = family.b, family.c
    rows = rows_by_recurrence(family, dim, width=2)
    one = rows[0][0]
    zero, diagonal = one * 0, one - c * 0 - b * 0
    a, z, out = [], zero, []
    for i in range(dim):
        acc = rows[i][0]
        for k in range(2, i + 2):
            acc = acc - a[i - k + 1] * rows[k][1]
        a.append(acc)
        z = c * (acc - z)
        out.append(([z, *a[:0:-1], one if i < 2 else diagonal] + [zero] * dim)[:dim])
    return out


def entry_closed_form(n: int, k: int, b, c):
    """Coefficient-array entry sum_j C(k,j) C(n-j, n-k-j) (-b)^j (-c)^(n-k-j)."""
    if not 0 <= k <= n:
        raise IndexError("need 0 <= k <= n")
    b, c = coerce_scalar(b), coerce_scalar(c)
    total = b * 0
    for j in range(n - k + 1):
        coeff = binomial(k, j) * binomial(n - j, n - k - j)
        if not coeff:
            continue
        total = total + coeff * (-b) ** j * (-c) ** (n - k - j)
    return total


def inverse_entry_lagrange(n: int, k: int, b, c):
    """Moment-matrix entry via the Lagrange-inversion double sum."""
    if not 0 <= k <= n:
        raise IndexError("need 0 <= k <= n")
    b, c = coerce_scalar(b), coerce_scalar(c)
    if n == 0:
        return b ** 0
    total = b * 0
    for j in range(n + 1):
        w = k * binomial(n, j) * binomial(2 * n - k - j - 1, n - k - j)
        if w:
            total = total + Fraction(w, n) * c ** j * b ** (n - k - j)
    for j in range(n + 1):
        w = (k + 1) * binomial(n, j) * binomial(2 * n - k - j - 2, n - k - j - 1)
        if w:
            total = total + Fraction(w, n) * c ** (j + 1) * b ** (n - k - j - 1)
    return total


def moment_gf(b, c, order: int) -> TruncatedSeries:
    """Closed form (c + 2b - c^2 t - c sqrt(1 - 2(2b+c)t + c^2 t^2)) / (2b)."""
    b, c = coerce_scalar(b), coerce_scalar(c)
    if not b:
        raise ZeroDivisionError("b must be nonzero")
    root = TruncatedSeries([1, -2 * (2 * b + c), c * c], order).sqrt()
    num = TruncatedSeries([c + 2 * b, -c * c], order) - c * root
    return num / (2 * b)


def tfraction_fixed_point(b, c, order: int) -> TruncatedSeries:
    """Solve u = 1/(1 - ct - btu), i.e. u_n = c u_{n-1} + b [t^(n-1)] u^2."""
    check_size("order", order)
    b, c = coerce_scalar(b), coerce_scalar(c)
    u = [b ** 0]
    for n in range(1, order + 1):
        square = u[0] * 0
        for i in range(n):
            square = square + u[i] * u[n - 1 - i]
        u.append(c * u[n - 1] + b * square)
    return TruncatedSeries(u)


def shifted_moment_sum(b, c, n: int):
    """mu~_n = sum_k binom(n+k, 2k) c^(n-k) b^k C_k."""
    check_size("n", n)
    b, c = coerce_scalar(b), coerce_scalar(c)
    total = b * 0
    for k in range(n + 1):
        w = binomial(n + k, 2 * k) * catalan(k)
        if w:
            total = total + w * c ** (n - k) * b ** k
    return total


def schroeder_binomial_sums(count: int) -> list:
    """sum_k binom(n+k, 2k) S_k for n = 0..count-1, where S_k = mu~_k at
    b = c = 1 is the k-th large Schroeder number (OEIS A155867)."""
    check_size("count", count)
    schroeder = [shifted_moment_sum(1, 1, k) for k in range(count)]
    return [sum(binomial(n + k, 2 * k) * schroeder[k] for k in range(n + 1))
            for n in range(count)]


def moment_recurrence(b, c, n_max: int) -> list:
    """mu_0..mu_n_max by the P-recurrence, a fixed number of operations per
    term.

    n+1 divides the right-hand side exactly, so an int or a DensePoly is
    divided without building a Fraction.  The values have the types
    `catalan_sum` gives them.
    """
    check_size("n_max", n_max)
    b, c = coerce_scalar(b), coerce_scalar(c)
    one = b ** 0
    mu = [one, c * one, c * (b + c)][:n_max + 1]
    s, c2 = 2 * b + c, c * c
    for n in range(2, n_max):
        rhs = s * (2 * n - 1) * mu[n] - c2 * (n - 2) * mu[n - 1]
        if type(rhs) is int:
            mu.append(_quotient(rhs, n + 1))
        elif type(rhs) is DensePoly:
            mu.append(rhs.divexact(n + 1))
        else:
            mu.append(rhs * Fraction(1, n + 1))
    return mu


def moments(family: LBPFamily, route: str, n_max: int) -> list:
    """mu_0..mu_n_max by the named route, as a list.

    Every route but matrix_inverse needs a constant-coefficient family.
    p_recurrence takes O(n) operations, every other route O(n^2) or more.
    """
    if route not in MOMENT_ROUTES:
        raise ValueError(f"unknown moment route {route!r}; choose from {MOMENT_ROUTES}")
    check_size("n_max", n_max)
    if route == "matrix_inverse":
        return coefficient_matrix(family, n_max + 1).inverse_column(0)
    if not family.is_constant:
        raise ValueError(f"route {route!r} applies to constant-coefficient families only")
    b, c = family.b, family.c
    if route == "catalan_sum":
        return [b ** 0] + [c * shifted_moment_sum(b, c, n - 1) for n in range(1, n_max + 1)]
    if route == "lagrange":
        return [inverse_entry_lagrange(n, 0, b, c) for n in range(n_max + 1)]
    if route == "shifted_tfraction":
        u = tfraction_fixed_point(b, c, max(n_max - 1, 0))
        return [b ** 0] + [c * u.coeffs[n - 1] for n in range(1, n_max + 1)]
    if route == "p_recurrence":
        return moment_recurrence(b, c, n_max)
    return list(moment_gf(b, c, n_max).coeffs)  # gf_expansion

