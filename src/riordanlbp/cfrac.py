"""Continued fractions attached to the moment sequences.

Three shapes, all in the minus convention:

    S:  1/(1 - a1 t/(1 - a2 t/(1 - ...)))
    J:  1/(1 - d0 t - l1 t^2/(1 - d1 t - l2 t^2/(1 - ...)))
    T:  1/(1 - c0 t - b1 t/(1 - c1 t - b2 t/(1 - ...)))

Descriptors store a finite prefix of levels; expansion truncates the fraction
by replacing the first unstored level with 1, which is exact to the order the
adequacy rule guarantees (level k first touches t^k for S/T shapes and t^(2k)
for the J shape).  `cf_expand` sums the weighted lattice paths the fraction
counts (Flajolet 1980), height by height, with no series division.

The moment series mu(t) is expanded by the S-fraction with coefficients
(c, b, b+c, b, b+c, ...) and by the J-fraction with diagonal (c, 2b+c,
2b+c, ...) over couplings (bc, b(b+c), b(b+c), ...).  The T-fraction with
diagonal c_0, c_1, ... over numerators b_1, b_2, ... expands the shifted
moments mu~(t), where mu(t) = 1 + c_0 t mu~(t), periodic families too.
The J-fraction is also recoverable from raw moments through ratios of
Hankel determinants.  `verify_uv_equality` returns one bool: the constant
T-fraction in c equals the S-fraction (c+1, 1, c+1, ...) and the closed
form at b = 1.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, mul

from .hankel_toeplitz import hankel_and_shifted
from .scalars import check_size, coerce_scalar, dot, scalar_inv
from .series import TruncatedSeries, _holds_ratfunc, _series, catalan_series


class SFraction:
    __slots__ = ("alphas",)

    def __init__(self, alphas):
        self.alphas = tuple(coerce_scalar(v) for v in alphas)

    def levels_for(self, order: int) -> int:
        if len(self.alphas) < order:
            raise ValueError(f"{len(self.alphas)} levels cannot reach order {order}")
        return order


class JFraction:
    __slots__ = ("diag", "sub")

    def __init__(self, diag, sub):
        self.diag = tuple(coerce_scalar(v) for v in diag)
        self.sub = tuple(coerce_scalar(v) for v in sub)

    def levels_for(self, order: int) -> int:
        if 2 * len(self.diag) < order or 2 * len(self.sub) + 1 < order:
            raise ValueError(
                f"{len(self.diag)} diagonal / {len(self.sub)} coupling levels "
                f"cannot reach order {order}"
            )
        return min(len(self.diag), (order + 2) // 2)


class TFraction:
    __slots__ = ("diag", "num")

    def __init__(self, diag, num):
        self.diag = tuple(coerce_scalar(v) for v in diag)
        self.num = tuple(coerce_scalar(v) for v in num)

    def levels_for(self, order: int) -> int:
        if len(self.diag) < order or len(self.num) < order - 1:
            raise ValueError(
                f"{len(self.diag)} diagonal / {len(self.num)} numerator levels "
                f"cannot reach order {order}"
            )
        return order


def cf_expand(cf, order: int) -> TruncatedSeries:
    """Truncated series of the fraction, exact through the requested order.

    The fraction is the generating function of weighted lattice paths from
    height 0 back to 0 (Flajolet, "Combinatorial aspects of continued
    fractions", Discrete Math. 32, 1980).  A level step at height k weighs
    the diagonal entry d_k (c_k of the T shape; the S shape has none) and
    takes one unit of length.  An up step from height k weighs the
    numerator below level k, e_(k+1) (a, l or b), and takes s units: s = 2
    for the J shape (Motzkin paths), 1 for the S and T shapes (Dyck and
    Schroeder paths).  A down step costs nothing, so a path is fixed by its
    steps through the last one that is not down, and [t^n] sums the paths
    of length n wherever they stand.  With H_n[k] the weight of those that
    stand at height k or above, [t^n] = H_n[0] and

        H_n[k] = d_k H_(n-1)[k] + e_k H_(n-s)[k-1] + H_n[k+1],

    from H_0 = [1].  Heights stop at the first unstored level, where only
    down steps are taken: the fraction's tail replaced by 1.  That takes
    O(N^2) products, each a level entry times a path sum, and no series
    division.  Where an entry is a RationalFunction, each H_n[k] is one
    ``scalars.dot``, reduced once; otherwise the plain operators sum a row
    of products.
    """
    check_size("order", order)
    if isinstance(cf, SFraction):
        step, diag, nums = 1, (), cf.alphas
    elif isinstance(cf, JFraction):
        step, diag, nums = 2, cf.diag, cf.sub
    elif isinstance(cf, TFraction):
        step, diag, nums = 1, cf.diag, cf.num
    else:
        raise TypeError(f"not a continued fraction descriptor: {type(cf).__name__}")
    entries = diag + nums
    one = entries[0] ** 0 if entries else 1
    fused = _holds_ratfunc(entries)
    levels = cf.levels_for(order)
    diag, nums = diag[:levels], nums[:levels]
    # above[n][k] is H_n[k]; stay and climb are the rows a level step and
    # an up step into row n leave from
    above = [[one]]
    for n in range(1, order + 1):
        stay = above[n - 1]
        climb = above[n - step] if n >= step else ()
        if fused:
            flat, rise = min(len(diag), len(stay)), min(len(nums), len(climb))
            row = []
            for k in range(max(flat - 1, rise), -1, -1):
                weights, paths = ([diag[k]], [stay[k]]) if k < flat else ([], [])
                if 0 < k <= rise:
                    weights.append(nums[k - 1])
                    paths.append(climb[k - 1])
                if row:
                    weights.append(1)
                    paths.append(row[-1])
                row.append(dot(weights, paths))
            above.append(row[::-1])
            continue
        level = [*map(mul, diag, stay)] or [0]
        up = [*map(mul, nums, climb)]
        # level[k] and up[k - 1] both end at height k
        cells = [level[0], *map(add, level[1:], up), *level[len(up) + 1:],
                 *up[len(level) - 1:]]
        above.append(list(accumulate(reversed(cells)))[::-1])
    return _series([row[0] for row in above])


def moment_sfraction(b, c, order: int) -> SFraction:
    """Coefficients (c, b, b+c, b, b+c, ...), enough levels for `order`."""
    check_size("order", order)
    b, c = coerce_scalar(b), coerce_scalar(c)
    alphas = [c]
    while len(alphas) < order:
        alphas.append(b if len(alphas) % 2 == 1 else b + c)
    return SFraction(tuple(alphas[:max(order, 1)]))


def moment_jfraction(b, c, order: int) -> JFraction:
    """Diagonal (c, 2b+c, ...), couplings (bc, b(b+c), ...)."""
    check_size("order", order)
    b, c = coerce_scalar(b), coerce_scalar(c)
    depth = order // 2 + 1
    diag = (c,) + (2 * b + c,) * (depth - 1)
    sub = (b * c,) + (b * (b + c),) * (depth - 1)
    return JFraction(diag, sub)


def constant_tfraction(b, c, order: int) -> TFraction:
    """The T-shape with constant entries; expands the shifted moments."""
    check_size("order", order)
    b, c = coerce_scalar(b), coerce_scalar(c)
    return TFraction((c,) * max(order, 1), (b,) * max(order, 1))


def tfraction_closed_form(b, c, order: int) -> TruncatedSeries:
    """Shifted moments mu~(t) = (1 - ct - sqrt(1 - 2(2b+c)t + c^2 t^2))/(2bt)."""
    check_size("order", order)
    b, c = coerce_scalar(b), coerce_scalar(c)
    if not b:
        raise ZeroDivisionError("b must be nonzero")
    root = TruncatedSeries([1, -2 * (2 * b + c), c * c], order + 1).sqrt()
    num = TruncatedSeries([1, -c], order + 1) - root
    return num.shift_down(1) / (2 * b)


def tfraction_via_transform(b, c, order: int) -> TruncatedSeries:
    """mu~(t) by pushing the Catalan series through (1/(1-ct), t/(1-ct)^2)."""
    check_size("order", order)
    b, c = coerce_scalar(b), coerce_scalar(c)
    cat = catalan_series(order)
    inner = TruncatedSeries.ratio([0, b], [1, -2 * c, c * c], order)
    prefix = TruncatedSeries.ratio([1], [1, -c], order)
    return prefix * cat.compose(inner)


def jfraction_from_moments(mu) -> JFraction:
    """Recover the J-fraction from raw moments via Hankel determinant ratios.

    With h_n = det(mu_{i+j})_{0..n} and s_n the same determinant with its
    last column advanced one step, the diagonal entries are consecutive
    differences of s_n/h_n and the couplings are h_n h_{n-2} / h_{n-1}^2.
    The depth is the deepest the moments reach, (len(mu) - 2) // 2.
    """
    mu = list(mu)
    depth = (len(mu) - 2) // 2
    if depth < 1:
        raise ValueError(f"a j-fraction needs depth >= 1, i.e. 4 moments; "
                         f"got depth {depth} from {len(mu)} moments")
    h, s = hankel_and_shifted(mu, depth)
    ratios = [s[n] * scalar_inv(h[n]) for n in range(depth + 1)]
    diag = [ratios[0]]
    diag.extend(ratios[n] - ratios[n - 1] for n in range(1, depth + 1))
    sub = [h[1] * scalar_inv(h[0] * h[0])]
    sub.extend(
        h[n] * h[n - 2] * scalar_inv(h[n - 1] * h[n - 1]) for n in range(2, depth + 1)
    )
    return JFraction(tuple(diag), tuple(sub))


def hankel_from_jfraction(sub, n_max: int) -> list:
    """h_n = prod_k lambda_k^(n+1-k) = h_{n-1} lambda_1 ... lambda_n; inverse
    direction of the extraction."""
    check_size("n_max", n_max)
    subs = [coerce_scalar(v) for v in sub]
    if len(subs) < n_max:
        raise ValueError(f"need {n_max} couplings")
    out, running = [1], 1
    for lam in subs[:n_max]:
        running = running * lam
        out.append(out[-1] * running)
    return out


def verify_uv_equality(c, order: int) -> bool:
    """The constant T-fraction u in c equals the S-fraction v = (c+1, 1, c+1, ...)
    and the shifted-moment closed form at b = 1."""
    c = coerce_scalar(c)
    u = cf_expand(constant_tfraction(1, c, order), order)
    alphas = tuple(c + 1 if i % 2 == 0 else 1 for i in range(order))
    return u == cf_expand(SFraction(alphas), order) and u == tfraction_closed_form(1, c, order)
