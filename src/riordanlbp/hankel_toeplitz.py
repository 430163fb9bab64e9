"""Hankel and Toeplitz determinants of a moment sequence.

Everything here is exact.  `hankel_transform` and `toeplitz_dets` read the
leading minors of a Hankel or Toeplitz matrix off the three-term recurrence
of the orthogonal polynomials of its moments, in O(n^2) operations:
Chebyshev's algorithm (Gautschi, Orthogonal Polynomials, 2004, 2.1.7) for
Hankel, and its analogue for the LBP recurrence
P_{n+1} = (x - d_n) P_n - a_n x P_{n-1} (Zhedanov, J. Comput. Appl. Math. 98,
1998) for Toeplitz.  Each minor is the one before times a pivot of the
recurrence: h_k = h_{k-1} L(x^k pi_k) and t_k = t_{k-1} L(x^-k P_k), L the
moment functional.  The recurrence runs in the ring of the moments: the
sequence is cleared once, by one common factor, to ints or polynomials, and
every quotient must be exact there.  For the LBP moments it is: alpha_0 = c,
alpha_k = 2b+c, beta_1 = bc, beta_k = b(b+c), d_k = c and a_k = b.  A zero
pivot, as on the b+c = 0 locus where h_2 = 0, or a quotient that leaves the
ring sends the whole call to `leading_minors`.

`leading_minors` and `determinant` use fraction-free (Bareiss) elimination,
so intermediate entries stay integral or polynomial.  They clear a matrix as
the recurrences clear a sequence: every entry is multiplied by the one lcm F
of all its denominators, ints and Fractions to ints, eliminated with exact
integer division, and rational functions to polynomials, with F kept inside
`scalars`.  A minor of order m is then divided by F^m at the end.  Entries
that include a DensePoly have no denominators and are eliminated with
`DensePoly.divexact` as they are.

The pivots of one Bareiss pass without row swaps are exactly the leading
principal minors (Bareiss, Math. Comp. 22, 1968, via Sylvester's identity),
so `leading_minors` reads all of them off a single O(n^3) pass.  A zero pivot
ends the pass; each larger block then goes to `determinant`, which shares
the clearing and the elimination code.  `hankel_and_shifted` runs the same
pass over the Hankel matrix with one more column, which also yields the
determinants s_n of the J-fraction extraction.  Bareiss stays the route of
the J-fraction extraction and of the bordered determinants, so `verify`
compares independent routes, and the tests compare the recurrences with it.

For the constant-coefficient moment sequence the closed forms are

    hankel:   h_n = (bc)^n (b(b+c))^binom(n,2)
    toeplitz: t_n = (-b/c)^binom(n+1,2)

and the pair of Toeplitz sequences (t_n from mu_{k-j}, t'_n from mu_{1-j+k})
recovers b and c by two-term ratios.  The bordered Toeplitz determinant with
last row 1, x, ..., x^n reproduces P_n(x) after division by t_{n-1}.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .combinat import binomial
from .scalars import DensePoly, _over_lcm, check_size, coerce_scalar, scalar_inv


def _int_divexact(a: int, b: int) -> int:
    """a // b; ValueError where b does not divide a."""
    q, r = divmod(a, b)
    if r:
        raise ValueError("inexact integer division")
    return q


def _clear(mat: list[list]) -> tuple[list[list], object, object]:
    """Entries ready for fraction-free elimination.

    Returns (rows, exact divide, unscale).  Every entry is multiplied by the
    one lcm F of all the denominators, so a minor of order m of the cleared
    rows is F^m times the original one, and unscale(v, m) is v / F^m.  Ints
    and Fractions clear to ints, divided with `_int_divexact`, and unscale
    is None when F = 1, as for an int matrix.  Entries that include a
    DensePoly need no clearing: they become DensePoly values, divided with
    `DensePoly.divexact`, and unscale is None.  Any other entries clear to
    polynomials by `scalars._over_lcm`, whose unscale also puts the result
    back in lowest terms.
    """
    values = [v for row in mat for v in row]
    if all(isinstance(v, (int, Fraction)) for v in values):
        factor = lcm(*(v.denominator for v in values))
        rows = [[v.numerator * (factor // v.denominator) for v in row] for row in mat]
        return rows, _int_divexact, None if factor == 1 else (
            lambda v, m: Fraction(v, factor ** m))
    if all(isinstance(v, (int, Fraction, DensePoly)) for v in values):
        rows = [[v if type(v) is DensePoly else DensePoly([v]) for v in row] for row in mat]
        return rows, DensePoly.divexact, None
    nums, unscale = _over_lcm(values)
    nums = iter(nums)
    return [[next(nums) for _ in row] for row in mat], lambda a, b: a.divexact(b), unscale


def _bareiss(mat: list[list], divide, swap: bool) -> tuple[int, list]:
    """Fraction-free elimination in place; `divide` must be exact for the entries.

    Returns (sign, pivots), pivot k being mat[k][k] when step k starts.
    Without row swaps pivot k is the leading principal minor of order k + 1
    (Sylvester's identity), and elimination stops at the first zero pivot.
    Rows may be longer than the matrix is tall: entry (k, j) for j > k is
    then, from step k on, the minor of rows 0..k and columns 0..k-1, j, as
    no later step touches row k.
    With swaps a zero pivot is replaced from a row below it when one has a
    nonzero entry in that column, and the determinant is sign times the last
    pivot, which is 0 if no row could replace a zero pivot.
    """
    n = len(mat)
    sign = 1
    prev = None
    pivots = []
    for k in range(n):
        if swap and not mat[k][k]:
            for r in range(k + 1, n):
                if mat[r][k]:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
        pivot = mat[k][k]
        pivots.append(pivot)
        if not pivot:
            break
        for i in range(k + 1, n):
            for j in range(k + 1, len(mat[k])):
                num = mat[i][j] * pivot - mat[i][k] * mat[k][j]
                mat[i][j] = num if prev is None else divide(num, prev)
        prev = pivot
    return sign, pivots


def _unscale(minors: list, unscale) -> list:
    """Minors of orders 1, 2, ... of a `_clear`ed matrix, divided back to the original."""
    return minors if unscale is None else [unscale(v, m) for m, v in enumerate(minors, 1)]


def _square(rows) -> list[list]:
    mat = [[coerce_scalar(v) for v in row] for row in rows]
    for i, row in enumerate(mat):
        if len(row) != len(mat):
            raise ValueError(f"matrix is not square: row {i} has length {len(row)}, "
                             f"the row count is {len(mat)}")
    return mat


def determinant(rows) -> object:
    """Exact determinant of a square matrix of int / Fraction / polynomial
    scalars; an int matrix has an int determinant."""
    mat = _square(rows)
    if not mat:
        return 1
    mat, divide, unscale = _clear(mat)
    sign, pivots = _bareiss(mat, divide, swap=True)
    det = pivots[-1] if sign == 1 else -pivots[-1]
    return det if unscale is None else unscale(det, len(mat))


def leading_minors(rows) -> list:
    """Determinants of the leading k x k blocks, k = 1..n, from one pass.

    Bareiss elimination without row swaps has the leading principal minors
    as its pivots, so one O(n^3) pass replaces n determinants.  After a zero
    pivot (the b+c = 0 locus makes h_2 vanish) elimination cannot go on
    without swaps, so each larger block falls back to `determinant`.
    """
    mat = _square(rows)
    cleared, divide, unscale = _clear(mat)
    _, pivots = _bareiss(cleared, divide, swap=False)
    return _unscale(pivots, unscale) + [
        determinant([row[:m] for row in mat[:m]])
        for m in range(len(pivots) + 1, len(mat) + 1)
    ]


def _minors_by_recurrence(values: list, recurrence, rows) -> list:
    """Leading minors of the Hankel or Toeplitz matrix of values from
    recurrence, or leading_minors(rows()) where the recurrence cannot run.

    The values are cleared by one common factor F, so a minor of order m of
    the cleared matrix is F^m times the original one.  recurrence(cleared,
    divide) returns the minors of orders 1, 2, ...; divide is exact
    division in the ring of the cleared values, and raises ValueError for a
    quotient outside it and ZeroDivisionError for a zero divisor.
    """
    [cleared], divide, unscale = _clear([values])
    try:
        minors = recurrence(cleared, divide)
    except (ValueError, ZeroDivisionError):
        return leading_minors(rows())
    return _unscale(minors, unscale)


def _chebyshev(mu: list, divide) -> list:
    """h_0..h_n of the Hankel matrix of mu_0..mu_2n by Chebyshev's algorithm.

    Row k holds sigma_k[l] = L(x^l pi_k) for l = k..2n-k, from index 0 on,
    pi_k the monic orthogonal polynomial of degree k, and
    sigma_k[l] = sigma_{k-1}[l+1] - alpha_{k-1} sigma_{k-1}[l]
    - beta_{k-1} sigma_{k-2}[l].  The quotient sigma_k[k+1] / sigma_k[k] is
    alpha_0 + ... + alpha_k, beta_k = sigma_k[k] / sigma_{k-1}[k-1], and
    h_k = h_{k-1} sigma_k[k].
    """
    minors, older, old = [mu[0]], None, mu
    for _ in range(len(mu) // 2):
        pivot = old[0]
        total = divide(old[1], pivot)
        if older is None:
            new = [x2 - total * x1 for x1, x2 in zip(old[1:], old[2:])]
        else:
            alpha, beta = total - prev_total, divide(pivot, older[0])
            new = [x2 - alpha * x1 - beta * y
                   for x1, x2, y in zip(old[1:], old[2:], older[2:])]
        minors.append(minors[-1] * new[0])
        older, old, prev_total = old, new, total
    return minors


def _lbp_analogue(mu: list, divide) -> list:
    """t_0..t_n of the Toeplitz matrix (mu_{k-j}) of mu_{-n}..mu_n by the
    analogue of Chebyshev's algorithm for P_{k+1} = (x - d_k) P_k - a_k x P_{k-1}.

    Row k holds sigma_k[l] = L(x^l P_k) for l = -n..n-k, from index 0 on, and
    sigma_{k+1}[l] = sigma_k[l+1] - d_k sigma_k[l] - a_k sigma_{k-1}[l+1].
    With g_k = sigma_k[-k] and w_k = sigma_k[1], d_0 = w_0 / g_0, a_0 = 0,
    and for k > 0, where orthogonality makes sigma_k[0] vanish,
    d_k = -w_k g_{k-1} / (g_k w_{k-1}) and a_k = -d_k g_k / g_{k-1};
    t_k = t_{k-1} g_k.
    """
    n = len(mu) // 2
    minors, older, old = [mu[n]], None, mu
    for k in range(n):
        g, w = old[n - k], old[n + 1]
        if older is None:
            d = divide(w, g)
            new = [x1 - d * x0 for x0, x1 in zip(old, old[1:])]
        else:
            d = divide(-(w * g_prev), g * w_prev)
            a = divide(-(d * g), g_prev)
            new = [x1 - d * x0 - a * y for x0, x1, y in zip(old, old[1:], older[1:])]
        minors.append(minors[-1] * new[n - k - 1])
        older, old, g_prev, w_prev = old, new, g, w
    return minors


def hankel_transform(mu, n_max: int) -> list:
    """h_n = det(mu_{i+j}) for n = 0..n_max; needs 2 n_max + 1 moments."""
    values = list(mu)
    check_size("n_max", n_max)
    if len(values) < 2 * n_max + 1:
        raise ValueError(f"need {2 * n_max + 1} moments for depth {n_max}")
    values = [coerce_scalar(v) for v in values[:2 * n_max + 1]]
    size = range(n_max + 1)
    return _minors_by_recurrence(values, _chebyshev,
                                 lambda: [[values[i + j] for j in size] for i in size])


def hankel_and_shifted(mu, depth: int) -> tuple[list, list]:
    """(h_n, s_n) for n = 0..depth from one Bareiss pass; needs 2 depth + 2 moments.

    s_n is h_n with its last column advanced one step, det(mu_{i+j}) over
    columns j = 0..n-1, n+1.  The swap-free pass over the (depth+1) x
    (depth+2) Hankel matrix leaves h_n on the diagonal of row n and s_n
    just to its right.  Raises ZeroDivisionError at the first h_n = 0,
    where the pass has to stop.
    """
    values = [coerce_scalar(v) for v in mu]
    check_size("depth", depth)
    if len(values) < 2 * depth + 2:
        raise ValueError(f"need {2 * depth + 2} moments for depth {depth}")
    mat, divide, unscale = _clear([values[i:i + depth + 2] for i in range(depth + 1)])
    _, pivots = _bareiss(mat, divide, swap=False)
    if not pivots[-1]:
        raise ZeroDivisionError(f"vanishing Hankel determinant at depth {len(pivots) - 1}")
    return (_unscale(pivots, unscale),
            _unscale([mat[n][n + 1] for n in range(depth + 1)], unscale))


def hankel_closed_form(b, c, n_max: int) -> list:
    check_size("n_max", n_max)
    b, c = coerce_scalar(b), coerce_scalar(c)
    return [
        (b * c) ** n * (b * (b + c)) ** binomial(n, 2) for n in range(n_max + 1)
    ]


class BiInfiniteMoments:
    """Moments mu_0.. as `forward`, extended to mu_{-1}..mu_{-depth} as `backward`.

    The backward moments follow from mu_{-k} = mu_{1+k} / c^(1+2k), so they
    need c != 0 and the forward moments through mu_{depth+1}.
    """

    __slots__ = ("forward", "c", "depth", "backward")

    def __init__(self, forward, c, depth: int):
        forward = tuple(coerce_scalar(v) for v in forward)
        c = coerce_scalar(c)
        if not c:
            raise ValueError("extension to negative index requires invertible c")
        check_size("backward depth", depth)
        if len(forward) < depth + 2:
            raise ValueError(f"need {depth + 2} moments for backward depth {depth}")
        if not forward or not forward[0] == 1:
            raise ValueError("moments are normalized to mu_0 = 1")
        inv_c = scalar_inv(c)
        self.forward = forward
        self.c = c
        self.depth = depth
        self.backward = tuple(forward[2 + k] * inv_c ** (3 + 2 * k) for k in range(depth))

    def moment(self, n: int):
        if n >= 0:
            if n >= len(self.forward):
                raise IndexError(f"forward moment {n} not stored")
            return self.forward[n]
        if -n > self.depth:
            raise IndexError(f"backward moment {n} not stored")
        return self.backward[-n - 1]


def toeplitz_dets(bm: BiInfiniteMoments, n_max: int) -> tuple[list, list]:
    """(t_n, t'_n) for n = 0..n_max with t from mu_{k-j}, t' from mu_{1+k-j}."""
    check_size("n_max", n_max)
    check_size("backward depth", bm.depth, n_max)
    size = range(n_max + 1)
    return tuple(
        _minors_by_recurrence(
            [bm.moment(shift + l) for l in range(-n_max, n_max + 1)], _lbp_analogue,
            lambda: [[bm.moment(shift + k - j) for k in size] for j in size])
        for shift in (0, 1))


def toeplitz_closed_form(b, c, n_max: int) -> list:
    check_size("n_max", n_max)
    b, c = coerce_scalar(b), coerce_scalar(c)
    if not c:
        raise ZeroDivisionError("c must be nonzero")
    ratio = -b * scalar_inv(c)
    return [ratio ** binomial(n + 1, 2) for n in range(n_max + 1)]


def recover_parameters(t_seq, tp_seq, n: int) -> tuple:
    """(b, c) from consecutive Toeplitz determinants; valid for n >= 1."""
    check_size("n", n, 1)
    if len(t_seq) < n + 2 or len(tp_seq) < n + 2:
        raise ValueError(f"need determinants through index {n + 1}")
    den_b, den_c = t_seq[n] * tp_seq[n], t_seq[n + 1] * tp_seq[n]
    for name, d in (("t_n t'_n", den_b), ("t_{n+1} t'_n", den_c)):
        if not d:
            raise ZeroDivisionError(f"vanishing denominator {name}")
    b = -t_seq[n - 1] * tp_seq[n + 1] * scalar_inv(den_b)
    c = t_seq[n] * tp_seq[n + 1] * scalar_inv(den_c)
    return b, c


def lbp_by_determinant(bm: BiInfiniteMoments, n: int) -> list:
    """Coefficients of P_n(x) from the bordered Toeplitz determinant.

    The matrix stacks the rows (mu_{k-j})_{k=0..n} for j = 0..n-1 on top of
    the row (1, x, ..., x^n); expanding along that last row and dividing by
    t_{n-1} makes the result monic.
    """
    check_size("n", n)
    if n == 0:
        return [1]
    check_size("backward depth", bm.depth, n - 1)
    moment_rows = [[bm.moment(k - j) for k in range(n + 1)] for j in range(n)]
    # minor k drops column k; the one without column n is t_{n-1}
    minors = [determinant([row[:k] + row[k + 1:] for row in moment_rows])
              for k in range(n + 1)]
    if not minors[n]:
        raise ZeroDivisionError("vanishing Toeplitz determinant")
    inv_prev = scalar_inv(minors[n])
    coeffs = []
    for k, minor in enumerate(minors):
        sign = 1 if (n + k) % 2 == 0 else -1
        coeffs.append(sign * minor * inv_prev)
    return coeffs
