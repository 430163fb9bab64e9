"""Truncated formal power series over exact scalars.

A series is an eager coefficient list of length order + 1.  Binary operations
truncate to the smaller operand order, so every result is exact through the
order it reports.  Composition requires the inner series to vanish at 0;
division requires an invertible constant term; reversion uses Lagrange
inversion; square root assumes constant term 1 and a ring containing 1/2.

Products, division and square root sum products of coefficients, one sum
per output coefficient.  Each operation chooses how once, from the
coefficient types it sees: through ``scalars.dot``, which reduces each sum
to lowest terms once, when a coefficient is a RationalFunction, whose cost
is per reduction; term by term otherwise, as the plain operators are the
cheapest route on int, Fraction and DensePoly values.  Products with a
scalar, the halving of ``sqrt`` and the 1/m of ``reversion`` scale each
coefficient through ``scalars._times``, so they keep an int series int
where its values are integral.  ``+`` and ``-`` share ``_combine``.
Coefficients are checked where they enter, built once:
``TruncatedSeries(coeffs, order)`` and the decorator ``_scalar``, for the
scalar operand of a binary operation, coerce them with ``coerce_scalar``,
and every operation builds its result with the private ``_series``.

Sizes are arguments: every constructor takes the order it builds to, and
nothing falls back to a default size.  Only ``TruncatedSeries(coeffs)``
without an order takes it from the length of ``coeffs``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from itertools import accumulate, repeat
from operator import add, mul, sub

from .scalars import (
    DensePoly, RationalFunction, _power, _times, check_size, coerce_scalar, dot,
    scalar_inv,
)


def _scalar(method):
    """`method` taking a series operand as it is and any other operand as
    the coefficient ``coerce_scalar`` makes of it; NotImplemented when the
    operand is not an exact scalar."""

    @wraps(method)
    def coerced(self, other, *args):
        if not isinstance(other, TruncatedSeries):
            try:
                other = coerce_scalar(other)
            except TypeError:
                return NotImplemented
        return method(self, other, *args)

    return coerced


class TruncatedSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        cs = [coerce_scalar(v) for v in coeffs]
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        if order is not None:
            check_size("order", order)
            if len(cs) > order + 1:
                cs = cs[: order + 1]
            else:
                pad = cs[0] * 0
                cs.extend(pad for _ in range(order + 1 - len(cs)))
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value, order: int) -> "TruncatedSeries":
        return cls([value], order)

    @classmethod
    def monomial(cls, k: int, coeff, order: int) -> "TruncatedSeries":
        if not 0 <= k <= order:
            raise ValueError(f"monomial degree {k} outside 0..{order}")
        coeffs = [0] * (order + 1)
        coeffs[k] = coeff
        return cls(coeffs, order)

    @classmethod
    def identity(cls, order: int) -> "TruncatedSeries":
        """The series t."""
        return cls.monomial(1, 1, order)

    @classmethod
    def ratio(cls, num, den, order: int) -> "TruncatedSeries":
        """Series of num(t)/den(t) for polynomial coefficient lists."""
        return cls(num, order) / cls(den, order)

    # -- structure ----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncate(self, order: int) -> "TruncatedSeries":
        check_size("order", order)
        if order > self.order:
            raise ValueError(f"order must be at most {self.order}, got {order}")
        return _series(self.coeffs[: order + 1])

    def valuation(self) -> int | None:
        for n, v in enumerate(self.coeffs):
            if v:
                return n
        return None

    # -- ring operations -----------------------------------------------------

    @_scalar
    def _combine(self, other, op):
        """self + other or self - other, as op is add or sub."""
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            return _series([op(self.coeffs[k], other.coeffs[k]) for k in range(n + 1)])
        return _series((op(self.coeffs[0], other),) + self.coeffs[1:])

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return _series([-v for v in self.coeffs])

    def __sub__(self, other):
        return self._combine(other, sub)

    @_scalar
    def __rsub__(self, other):
        return _series([other - self.coeffs[0]] + [-v for v in self.coeffs[1:]])

    @_scalar
    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return _series([_times(v, other) for v in self.coeffs])
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        # a[k] = 0 below the valuation va and b[k] = 0 below vb, so the
        # product starts at t^(va+vb) and its sums run over va..m-vb
        zero = a[0] * b[0]
        va, vb = self.valuation(), other.valuation()
        if va is None or vb is None:
            return _series([zero] * (n + 1))
        fused = _holds_ratfunc(a, b)
        out = [zero] * min(va + vb, n + 1)
        for m in range(va + vb, n + 1):
            if fused:
                acc = dot(a[va:m - vb + 1], b[vb:m - va + 1][::-1])
            else:
                acc = a[va] * b[m - va]
                for k in range(va + 1, m - vb + 1):
                    acc = acc + a[k] * b[m - k]
            out.append(acc)
        return _series(out)

    __rmul__ = __mul__

    @_scalar
    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return _series_div(self, other)
        if type(other) is DensePoly and len(other.coeffs) > 1:
            # no inverse among polynomials: divide each coefficient exactly
            return _series([v / other for v in self.coeffs])
        return self * scalar_inv(other)

    @_scalar
    def __rtruediv__(self, other):
        return _series_div(TruncatedSeries([other], self.order), self)

    def reciprocal(self) -> "TruncatedSeries":
        return _series_div(TruncatedSeries([1], self.order), self)

    def __pow__(self, exp: int):
        if exp < 0:
            return self.reciprocal() ** (-exp)
        return _power(self, exp, TruncatedSeries([1], self.order))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return all(self.coeffs[k] == other.coeffs[k] for k in range(n + 1))

    __hash__ = None

    # -- shifts --------------------------------------------------------------

    def shift_up(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k; all new coefficients are known, so order grows."""
        check_size("shift exponent k", k)
        if k == 0:
            return self
        pad = self.coeffs[0] * 0
        return _series([pad] * k + list(self.coeffs))

    def shift_down(self, k: int) -> "TruncatedSeries":
        """Divide by t^k; requires the first k coefficients to vanish."""
        check_size("shift exponent k", k)
        if k == 0:
            return self
        if k > self.order:
            raise ValueError(f"shift exponent k must be at most {self.order}, got {k}")
        if any(self.coeffs[:k]):
            raise ValueError(f"series not divisible by t^{k}")
        return _series(self.coeffs[k:])

    # -- composition, reversion, square root ---------------------------------

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)) through t^n, n = min(orders); inner must have zero
        constant term.

        Horner's rule, truncated: the partial sum r_k = sum_{j>=k} f_j
        inner^(j-k) enters the result times inner^k, which starts at t^k,
        so r_k is only needed through t^(n-k).  With inner = t h, r_k is
        f_k + t (h r_{k+1}), and each product is taken at the order of
        r_{k+1}, one less than r_k's.
        """
        if inner.coeffs[0]:
            raise ValueError("composition requires inner series with f(0) = 0")
        n = min(self.order, inner.order)
        result = _series([self.coeffs[n]])
        if n:
            h = inner.truncate(n).shift_down(1)
            for k in range(n - 1, -1, -1):
                result = (h * result).shift_up(1) + self.coeffs[k]
        return result

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse g with self(g(t)) = t, by Lagrange inversion:
        [t^m] g = [t^(m-1)] (t/self)^m / m (Stanley, EC2 5.4)."""
        check_size("order", self.order, 1)
        if self.coeffs[0]:
            raise ValueError("reversion requires f(0) = 0")
        if not self.coeffs[1]:
            raise ValueError("reversion requires an invertible linear coefficient")
        h = self.shift_down(1).reciprocal()
        powers = accumulate(repeat(h, self.order), mul)
        return _series([self.coeffs[0]] + [
            _times(power.coeffs[m - 1], Fraction(1, m)) for m, power in enumerate(powers, 1)])

    def sqrt(self) -> "TruncatedSeries":
        """Square root of a series with constant term 1."""
        if not self.coeffs[0] == 1:
            raise ValueError("sqrt requires constant term 1")
        half = Fraction(1, 2)
        fused = _holds_ratfunc(self.coeffs)
        out = [self.coeffs[0]]
        for m in range(1, self.order + 1):
            if fused:
                acc = self.coeffs[m] - dot(out[1:m], out[m - 1:0:-1])
            else:
                acc = self.coeffs[m]
                for k in range(1, m):
                    acc = acc - out[k] * out[m - k]
            out.append(_times(acc, half))
        return _series(out)

    def __str__(self):
        return " + ".join(f"({v})*t^{n}" for n, v in enumerate(self.coeffs))

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, [{', '.join(str(v) for v in self.coeffs[:5])}...])"


def _series_div(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    if not den.coeffs[0]:
        raise ZeroDivisionError("series division needs an invertible constant term")
    n = min(num.order, den.order)
    inv0 = scalar_inv(den.coeffs[0])
    fused = _holds_ratfunc(num.coeffs, den.coeffs)
    out = [num.coeffs[0] * inv0]
    for m in range(1, n + 1):
        if fused:
            acc = num.coeffs[m] - dot(den.coeffs[1:m + 1], out[::-1])
        else:
            acc = num.coeffs[m]
            for k in range(1, m + 1):
                acc = acc - den.coeffs[k] * out[m - k]
        out.append(acc * inv0)
    return _series(out)


def _series(coeffs: list) -> TruncatedSeries:
    """A TruncatedSeries around coeffs, which are already exact scalars: the
    results of arithmetic on them, so not coerced a second time."""
    res = TruncatedSeries.__new__(TruncatedSeries)
    res.coeffs = tuple(coeffs)
    return res


def _holds_ratfunc(*coeff_lists) -> bool:
    """Whether a coefficient is a RationalFunction: then each sum of
    products goes through the fused ``scalars.dot``, and otherwise through
    the term-by-term loop, which int, Fraction and DensePoly run faster."""
    return any(RationalFunction in map(type, cs) for cs in coeff_lists)


def catalan_series(order: int) -> TruncatedSeries:
    """Generating function of the Catalan numbers, (1 - sqrt(1-4t))/(2t)."""
    check_size("order", order)
    inner = TruncatedSeries([1, -4], order + 1)
    num = 1 - inner.sqrt()
    return num.shift_down(1) * Fraction(1, 2)
