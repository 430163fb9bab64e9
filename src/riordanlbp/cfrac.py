"""Continued fractions attached to the moment sequences.

Three shapes, all in the minus convention:

    S:  1/(1 - a1 t/(1 - a2 t/(1 - ...)))
    J:  1/(1 - d0 t - l1 t^2/(1 - d1 t - l2 t^2/(1 - ...)))
    T:  1/(1 - c0 t - b1 t/(1 - c1 t - b2 t/(1 - ...)))

Descriptors store a finite prefix of levels; expansion truncates the fraction
by replacing the first unstored level with 1, which is exact to the order the
adequacy rule guarantees (level k first touches t^k for S/T shapes and t^(2k)
for the J shape).

The moment series mu(t) is expanded by the S-fraction with coefficients
(c, b, b+c, b, b+c, ...) and by the J-fraction with diagonal (c, 2b+c,
2b+c, ...) over couplings (bc, b(b+c), b(b+c), ...).  The T-fraction with
constant coefficients expands the shifted moments mu~(t), where
mu(t) = 1 + c t mu~(t).  The J-fraction is also recoverable from raw moments
through ratios of Hankel determinants.  `verify_uv_equality` returns one
bool: the constant T-fraction in c equals the S-fraction (c+1, 1, c+1, ...)
and the closed form at b = 1.
"""

from __future__ import annotations

from .hankel_toeplitz import hankel_and_shifted
from .scalars import check_size, coerce_scalar, scalar_inv
from .series import TruncatedSeries, catalan_series


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

    The convergent is A_0/B_0, built backward over the stored levels from
    A = B = 1 (the first unstored level replaced by 1) by the Euler-Wallis
    recurrence A_k = B_{k+1}, B_k = (1 - d_k t) B_{k+1} - n_k t^s A_{k+1},
    with s = 1 for the S and T shapes and 2 for the J shape (Jones & Thron,
    *Continued Fractions*, 1980).  A and B are coefficient lists truncated
    mod t^(order+1), so the cost is O(N^2) scalar operations and one series
    division, where a reciprocal per level costs O(N^3).  B_0(0) = 1, so the
    division always succeeds.

    B_0 is also the denominator Q_L of the convergent with L levels, which
    the forward recurrence Q_{k+1} = (1 - d_k t) Q_k - n_{k-1} t^s Q_{k-1}
    gives.  For a T-fraction with diagonal c_0, c_1, ... and numerators
    b_1, b_2, ... that is `lbp.rows_by_recurrence`: x^k Q_k(1/x) is the LBP
    row P_k (Hendriksen & van Rossum 1986; Zhedanov 1998).  For the moment
    J-fraction the reversed Q_k are the "q" rows (Flajolet 1980).
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
    levels = cf.levels_for(order)
    entries = diag + nums
    one = entries[0] ** 0 if entries else 1
    num, den = [one], [one]
    for k in reversed(range(levels)):
        new = _minus_shifted(den, 1, diag[k], den, order) if diag else den
        if k < len(nums):
            new = _minus_shifted(new, step, nums[k], num, order)
        num, den = den, new
    return TruncatedSeries(num, order) / TruncatedSeries(den, order)


def _minus_shifted(p: list, s: int, coeff, q: list, order: int) -> list:
    """Coefficients of p - coeff t^s q, truncated mod t^(order+1)."""
    zero = p[0] - p[0]
    out = p + [zero] * (min(len(q) + s, order + 1) - len(p))
    for i, v in zip(range(s, len(out)), q):
        out[i] = out[i] - coeff * v
    return out


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
    u = cf_expand(TFraction((c,) * order, (1,) * order), order)
    alphas = tuple(c + 1 if i % 2 == 0 else 1 for i in range(order))
    return u == cf_expand(SFraction(alphas), order) and u == tfraction_closed_form(1, c, order)
