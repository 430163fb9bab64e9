"""Exact scalar arithmetic for the whole package.

Five kinds of scalar circulate here:

* ``int``             -- exact integers, kept as ``int`` so that integer
                         parameters compute without a single gcd; an inverse
                         that leaves the integers is a Fraction;
* ``Fraction``        -- arbitrary-precision rationals (stdlib);
* ``BivarPoly``       -- sparse polynomials in the two recurrence parameters
                         b and c, with exact coefficients stored as ``int``
                         when integral and as ``Fraction`` otherwise;
* ``RationalFunction``-- a BivarPoly over b^i c^j (b+c)^k in lowest terms,
                         the denominators of the paper's closed forms; any
                         other denominator raises ValueError;
* ``DensePoly``       -- a dense coefficient list in one indeterminate x,
                         the one-variable polynomial type: x is b/c in
                         ``generate``, which computes every table with a
                         sym on it at (b, c) = (x, 1), and x is c in the
                         ``verify`` checks that fix b, whose values are
                         polynomials in c alone.

Polynomials in the indeterminate x of the LBP rows are not a scalar kind: a
row P_n(x) is the plain list of its coefficients, ascending in the power of
x.

Every exact polynomial prints through one printer, ``_sum_str``:
``BivarPoly`` (and so ``RationalFunction``), and through
``_homogeneous_str`` the values ``generate`` computes on ``DensePoly``.
``BivarPoly``, ``DensePoly`` and ``TruncatedSeries`` share one power
routine, ``_power``.

The symbolic values of ``verify`` are polynomials of a few terms, so their
cost is per operation, not per term pair.  So each coefficient of a series
convolution over ``RationalFunction`` is one call of the fused kernel
``dot``, which sums the term products over each product denominator into
one numerator and reduces it once; ``series`` picks it once per operation
from the coefficient types, so int, Fraction and DensePoly series keep
their plain arithmetic.  Values over different denominators meet in one
lift to their common denominator, ``RationalFunction._over``.  A
one-term ``BivarPoly`` operand, and an int or Fraction factor of a
``RationalFunction``, are scaled copies.  Every product of a coefficient
with an int or Fraction constant goes through ``_times``: an int times
p/q is the integer quotient of v p by q, so scaling by a rational constant
builds a Fraction only for a non-integral result.  Any other int or Fraction
operand becomes a polynomial in one place, ``BivarPoly._coerce``, through
the checked ``BivarPoly.const``; ``RationalFunction._coerce`` puts it over
the denominator 1.  ``+`` and ``-`` are one ``_combine`` per type.

Values are checked where they enter, built once: ``BivarPoly(dict)``,
``RationalFunction(num, den)`` and ``DensePoly(list)`` check their input
and put it in normal form, and every arithmetic result, in normal form
already, goes through a private builder that checks nothing: ``_poly``,
``_value`` or ``_dense``.

Everything is exact.  No floating point is used anywhere in this module or in
the rest of the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import count, repeat
from operator import add, mul, sub


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal such as '3', '-5/2' or '0'."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def check_size(name: str, value: int, minimum: int = 0) -> None:
    """Refuse a size below its minimum, naming the quantity and the value."""
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


def as_fraction(x) -> Fraction:
    """An int or Fraction as a Fraction; anything else, a float included, is
    not an exact rational."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {type(x).__name__}")


def _exact(q):
    """q in coefficient normal form: an integral Fraction becomes its int."""
    if type(q) is Fraction and q.denominator == 1:
        return q.numerator
    return q


def _quotient(a, b):
    """Exact a / b of two coefficients, in coefficient normal form."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return _exact(Fraction(a, b))


def _times(v, k):
    """v * k for a coefficient or scalar v and an int or Fraction k, in
    coefficient normal form; an int v times a Fraction k is the integer
    quotient v * num(k) / den(k), a Fraction only when it is not integral."""
    if type(v) is int and type(k) is Fraction:
        return _quotient(v * k.numerator, k.denominator)
    return _exact(v * k)


class BivarPoly:
    """Sparse polynomial in b and c: maps exponent pairs (i, j), non-negative
    ints, to coefficients.

    Every value of ``terms`` is an ``int`` when the coefficient is integral and
    a ``Fraction`` with denominator > 1 otherwise, and every operation
    restores that form.  The paper's moments, coefficient arrays and
    determinants have integer coefficients, so their arithmetic builds no
    Fraction at all; scaling by a Fraction constant, as ``/`` by an int or
    Fraction does, builds one only for a non-integral result.  ``terms`` is
    the public map from exponent pair to exact value, never a float:
    equality and hashing of polynomials are those of the dict, and callers
    compare it with dicts of Fractions, which works because an int compares
    and hashes equal to the integral Fraction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned: dict[tuple[int, int], int | Fraction] = {}
        if terms:
            try:
                items = terms.items()
            except AttributeError:
                raise TypeError("BivarPoly expects a dict from exponent pairs (i, j) "
                                f"to coefficients, got {type(terms).__name__}") from None
            for key, val in items:
                if not isinstance(val, (int, Fraction)):
                    raise TypeError(f"not an exact rational: {type(val).__name__}")
                if type(key) is not tuple or len(key) != 2 or not all(
                        type(e) is int and e >= 0 for e in key):
                    raise ValueError(f"not a pair of non-negative int exponents: {key!r}")
                if val:
                    cleaned[key] = _exact(+val)  # +val: a bool becomes its int
        self.terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value) -> "BivarPoly":
        """The constant polynomial of an int or Fraction, in coefficient
        normal form (``+value`` turns a bool into an int)."""
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"not an exact rational: {type(value).__name__}")
        value = _exact(+value)
        return _poly({(0, 0): value} if value else {})

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls()

    @classmethod
    def one(cls) -> "BivarPoly":
        return _poly({(0, 0): 1})

    @classmethod
    def b(cls) -> "BivarPoly":
        return cls({(1, 0): 1})

    @classmethod
    def c(cls) -> "BivarPoly":
        return cls({(0, 1): 1})

    @classmethod
    def monomial(cls, i: int, j: int, coeff=1) -> "BivarPoly":
        return cls({(i, j): coeff})

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0, 0)}

    @property
    def is_one(self) -> bool:
        return self.terms == {(0, 0): 1}

    def constant_value(self) -> int | Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms.get((0, 0), 0)

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other):
        """other as a BivarPoly, None when it is not an exact scalar."""
        if isinstance(other, BivarPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BivarPoly.const(other)
        return None

    def _combine(self, other, op):
        """self + other or self - other, as op is add or sub."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, val in other.terms.items():
            acc = op(out.get(key, 0), val)
            if acc:
                out[key] = _exact(acc)
            else:
                del out[key]
        return _poly(out)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return _poly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        small, large = self.terms, other.terms
        if len(small) > len(large):
            small, large = large, small
        if len(small) == 1:
            # a shifted, scaled copy: no two products share a key, none is 0
            ((i1, j1), v1), = small.items()
            return _poly({(i1 + i2, j1 + j2): _exact(v1 * v2)
                          for (i2, j2), v2 in large.items()})
        out: dict[tuple[int, int], int | Fraction] = {}
        for (i1, j1), v1 in small.items():
            for (i2, j2), v2 in large.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + v1 * v2
        return _poly({k: _exact(v) for k, v in out.items() if v})

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative power of a polynomial; use RationalFunction")
        return _power(self, exp, BivarPoly.one())

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            inv = 1 / other if isinstance(other, Fraction) else Fraction(1, other)
            return _poly({k: _times(v, inv) for k, v in self.terms.items()})
        if isinstance(other, BivarPoly):
            return RationalFunction(self, other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, BivarPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        # equal to an int or Fraction when constant, as __eq__ is
        if self.is_constant:
            return hash(self.constant_value())
        return hash(frozenset(self.terms.items()))

    # -- exact division and substitution -----------------------------------

    def divexact(self, other: "BivarPoly") -> "BivarPoly":
        """Quotient self/other when the division is exact; raise otherwise.

        Leading-term elimination under the lex order.  The loop terminates
        because the leading monomial of the remainder strictly decreases.
        """
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if other.is_constant:
            return self / other.constant_value()
        rem = dict(self.terms)
        out: dict[tuple[int, int], int | Fraction] = {}
        lead = max(other.terms)  # lex order with b > c
        lead_coeff = other.terms[lead]
        while rem:
            key = max(rem)
            qi, qj = key[0] - lead[0], key[1] - lead[1]
            if qi < 0 or qj < 0:
                raise ValueError("inexact polynomial division")
            q = _quotient(rem[key], lead_coeff)
            out[(qi, qj)] = q
            for (oi, oj), oc in other.terms.items():
                k = (oi + qi, oj + qj)
                acc = rem.get(k, 0) - q * oc
                if acc:
                    rem[k] = acc
                else:
                    rem.pop(k, None)
        return _poly(out)

    def substitute(self, b_value=None, c_value=None) -> "BivarPoly":
        """Substitute polynomials or rationals for b and/or c."""
        bp = BivarPoly.b() if b_value is None else self._coerce(b_value)
        cp = BivarPoly.c() if c_value is None else self._coerce(c_value)
        if bp is None or cp is None:
            raise TypeError("substitution values must be rationals or BivarPoly")
        out = BivarPoly.zero()
        for (i, j), v in self.terms.items():
            out = out + (bp ** i) * (cp ** j) * v
        return out

    def evaluate(self, b_value, c_value) -> Fraction:
        bq, cq = as_fraction(b_value), as_fraction(c_value)
        total = Fraction(0)
        for (i, j), v in self.terms.items():
            total += v * bq ** i * cq ** j
        return total

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        # ascending total degree, then ascending b exponent
        keys = sorted(self.terms, key=lambda k: (k[0] + k[1], k[0], k[1]))
        return _sum_str([(self.terms[key], _times_monomial(*key)) for key in keys])

    def __repr__(self):
        return f"BivarPoly({self})"


def _power(base, exp: int, one):
    """base ** exp for an int exp >= 0 by repeated squaring, starting from
    one; the last square, which nothing uses, is not computed."""
    result = one
    while exp:
        if exp & 1:
            result = result * base
        exp >>= 1
        if exp:
            base = base * base
    return result


def _times_monomial(i: int, j: int) -> str:
    """b^i c^j as it follows a coefficient: "*b^i*c^j", with a factor of
    exponent 0 left out and an exponent 1 not written; "" for b^0 c^0."""
    b = "" if i == 0 else "*b" if i == 1 else f"*b^{i}"
    c = "" if j == 0 else "*c" if j == 1 else f"*c^{j}"
    return b + c


def _sum_str(terms) -> str:
    """The sum of (coefficient, _times_monomial) terms, in their order, as
    every exact polynomial prints: each term after the first as "+ a*mono"
    or "- |a|*mono", the first as "a*mono", a coefficient 1 or -1 not
    written before a monomial, terms with coefficient 0 left out, and "0"
    when none is left.
    """
    # a coefficient 1 is then the only one that reads " 1*", as every
    # coefficient follows a space and no monomial holds one
    text = " " + " ".join([f"- {-a}{mono}" if a < 0 else f"+ {a}{mono}"
                           for a, mono in terms if a])
    if len(text) == 1:
        return "0"
    text = text.replace(" 1*", " ")
    return text[3:] if text[1] == "+" else "-" + text[3:]


class RationalFunction:
    """num / (b^i c^j (b+c)^k) in lowest terms, stored as num and exps = (i, j, k).

    Every denominator in the paper is a product of b, c and b+c.  No factor of
    the denominator divides num, so the form is canonical: equality compares
    the parts, and ``den`` is derived from exps.  A denominator with any other
    factor raises ValueError.
    """

    __slots__ = ("num", "exps")

    def __init__(self, num, den=None):
        num = _as_bivar(num)
        if den is None:
            self.num, self.exps = num, _NO_DEN
            return
        den = _as_bivar(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        i = min(i for i, _ in den.terms)
        j = min(j for _, j in den.terms)
        rest, k = _shift(den, i, j), 0
        while (quotient := _over_b_plus_c(rest)) is not None:
            rest, k = quotient, k + 1
        if not rest.is_constant:
            raise ValueError(f"denominator {den} has a factor other than b, c and b+c")
        scale = rest.constant_value()
        self.num, self.exps = _lowest(num if scale == 1 else num / scale, (i, j, k))

    # -- coercion ------------------------------------------------------------

    @staticmethod
    def _coerce(other):
        """other as a RationalFunction, None when it is not an exact scalar."""
        if isinstance(other, RationalFunction):
            return other
        num = BivarPoly._coerce(other)
        return None if num is None else _value(num, _NO_DEN)

    # -- predicates ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.exps == _NO_DEN

    @property
    def den(self) -> BivarPoly:
        i, j, k = self.exps
        return _shift(_B_PLUS_C ** k, -i, -j)

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other, op):
        """self + other or self - other, as op is add or sub."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.exps == other.exps == _NO_DEN:
            return _value(op(self.num, other.num), _NO_DEN)
        exps = tuple(map(max, self.exps, other.exps))
        return _value(*_lowest(op(self._over(exps), other._over(exps)), exps))

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def _over(self, exps) -> BivarPoly:
        """The numerator of self over the multiple b^i c^j (b+c)^k of den."""
        (si, sj, sk), (i, j, k) = self.exps, exps
        num = self.num if k == sk else self.num * _B_PLUS_C ** (k - sk)
        return _shift(num, si - i, sj - j)

    def __neg__(self):
        return _value(-self.num, self.exps)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is int or type(other) is Fraction:
            # a nonzero constant factor leaves the form reduced
            if not other:
                return _value(_poly({}), _NO_DEN)
            num = _poly({k: _times(v, other) for k, v in self.num.terms.items()})
            return _value(num, self.exps)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.exps == other.exps == _NO_DEN:
            return _value(self.num * other.num, _NO_DEN)
        exps = tuple(e + f for e, f in zip(self.exps, other.exps))
        return _value(*_lowest(self.num * other.num, exps))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def reciprocal(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of zero")
        return RationalFunction(self.den, self.num)

    def __pow__(self, exp: int):
        if exp < 0:
            return self.reciprocal() ** (-exp)
        # b, c and b+c are prime, so a power of a reduced value stays reduced
        return _value(self.num ** exp, tuple(e * exp for e in self.exps))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.exps == other.exps and self.num.terms == other.num.terms

    __hash__ = None

    # -- evaluation and rendering ------------------------------------------

    def evaluate(self, b_value, c_value) -> Fraction:
        den = self.den.evaluate(b_value, c_value)
        if not den:
            raise ZeroDivisionError("denominator vanishes at this point")
        return self.num.evaluate(b_value, c_value) / den

    def __str__(self):
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


def _poly(terms: dict) -> BivarPoly:
    """A BivarPoly around terms, which must already be in coefficient normal
    form: no zero value, and an int for every integral one."""
    res = BivarPoly.__new__(BivarPoly)
    res.terms = terms
    return res


_NO_DEN = (0, 0, 0)
_B_PLUS_C = BivarPoly.b() + BivarPoly.c()


def _shift(poly: BivarPoly, i: int, j: int) -> BivarPoly:
    """poly / (b^i c^j), for a monomial that divides poly (i, j may be negative)."""
    if not (i or j):
        return poly
    return _poly({(a - i, e - j): v for (a, e), v in poly.terms.items()})


def _over_b_plus_c(poly: BivarPoly) -> BivarPoly | None:
    """poly / (b+c) when b+c divides the nonzero poly, else None.

    Synthetic division in b, from the highest power of b down: row a then
    holds the quotient's terms in b^(a-1), and row 0 what is left over.
    """
    rows = [{} for _ in range(1 + max(poly.terms)[0])]
    for (a, e), v in poly.terms.items():
        rows[a][e] = v
    for a in range(len(rows) - 1, 0, -1):
        for e, v in rows[a].items():
            rows[a - 1][e + 1] = rows[a - 1].get(e + 1, 0) - v
    if any(rows[0].values()):
        return None
    return _poly({(a - 1, e): _exact(v) for a in range(1, len(rows))
                  for e, v in rows[a].items() if v})


def _value(num: BivarPoly, exps) -> RationalFunction:
    res = RationalFunction.__new__(RationalFunction)
    res.num, res.exps = num, exps
    return res


def _lowest(num: BivarPoly, exps):
    """(num, exps) for num / (b^i c^j (b+c)^k), exps = (i, j, k), in lowest terms."""
    if not num.terms:
        return num, _NO_DEN
    if exps == _NO_DEN:
        return num, exps
    i, j, k = exps
    si = min(i, min(a for a, _ in num.terms))
    sj = min(j, min(e for _, e in num.terms))
    num = _shift(num, si, sj)
    while k and (quotient := _over_b_plus_c(num)) is not None:
        num, k = quotient, k - 1
    return num, (i - si, j - sj, k)


def dot(xs, ys):
    """sum(x * y for x, y in zip(xs, ys)) for int, Fraction and
    RationalFunction values, equal in normal form to the left fold
    acc = acc + x * y from acc = 0: a RationalFunction when any pair holds
    one, else the plain sum.

    Every term product goes straight into one numerator dict per product
    denominator b^i c^j (b+c)^k, the int and Fraction part into the one of
    denominator 1.  Each numerator is put in coefficient normal form and
    lowest terms once, where the fold builds, normalizes and reduces one
    polynomial and one rational function per product and per sum.  The
    nonzero groups are then added with RationalFunction ``+``; a single
    group, the common case, needs no addition.
    """
    plain, groups = 0, {}
    for x, y in zip(xs, ys):
        if type(x) is RationalFunction:
            if type(y) is RationalFunction:
                exps = (x.exps[0] + y.exps[0], x.exps[1] + y.exps[1], x.exps[2] + y.exps[2])
                out = groups.setdefault(exps, {})
                large = y.num.terms
                for (i1, j1), v1 in x.num.terms.items():
                    for (i2, j2), v2 in large.items():
                        key = (i1 + i2, j1 + j2)
                        out[key] = out.get(key, 0) + v1 * v2
                continue
            x, y = y, x
        elif type(y) is not RationalFunction:
            plain = plain + x * y
            continue
        # x is an int or Fraction, y a RationalFunction
        out = groups.setdefault(y.exps if x else _NO_DEN, {})
        if x:
            for key, v in y.num.terms.items():
                out[key] = out.get(key, 0) + x * v
    if not groups:
        return plain
    if plain:
        out = groups.setdefault(_NO_DEN, {})
        out[(0, 0)] = out.get((0, 0), 0) + plain
    total = _value(_poly({}), _NO_DEN)
    for exps, out in groups.items():
        num = _poly({k: _exact(v) for k, v in out.items() if v})
        if num.terms:
            part = _value(*_lowest(num, exps))
            total = total + part if total else part
    return total


def _over_lcm(values) -> tuple[list[BivarPoly], object]:
    """Numerators of values over their lcm F = b^I c^J (b+c)^K, and the map
    (v, m) -> v / F^m, a RationalFunction in lowest terms."""
    values = [RationalFunction._coerce(v) for v in values]
    exps = tuple(map(max, zip(*(v.exps for v in values))))
    return ([v._over(exps) for v in values],
            lambda v, m: _value(*_lowest(v, tuple(m * e for e in exps))))


def _as_bivar(x) -> BivarPoly:
    poly = BivarPoly._coerce(x)
    if poly is None:
        raise TypeError(f"cannot interpret {type(x).__name__} as a polynomial")
    return poly


#: symbolic parameter values, ready to be mixed with Fractions and ints
PARAM_B = RationalFunction(BivarPoly.b())
PARAM_C = RationalFunction(BivarPoly.c())


class DensePoly:
    """Dense polynomial in one indeterminate: ``coeffs[i]`` multiplies x^i.

    Here x stands for a parameter, not for the variable of the rows P_n(x).
    In ``generate`` x is b/c: a value homogeneous of degree d in (b, c) is
    c^d times a polynomial in x = b/c, so a table of such values computed
    at (b, c) = (x, 1) on this type loses nothing, and x^i becomes
    b^i c^(d-i) again when it is rendered.  In the ``verify`` checks that
    fix b (b = 1, c - 1 or c + 1) x is c, and ``coeffs`` is the row of
    c-coefficients they compare.

    ``coeffs`` is a list of int and Fraction values whose last entry is
    nonzero, so zero has no coefficients.  Arithmetic on int coefficients
    builds no Fraction, and multiplying by a Fraction scalar builds one
    only for a non-integral coefficient.  Only adding or multiplying by a
    Fraction scalar reduces an integral result to its int: an integral
    Fraction coefficient compares and prints as its int anyway.  ``/`` is
    exact division and raises ValueError when the quotient is not a
    polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        for val in coeffs:
            if not isinstance(val, (int, Fraction)):
                raise TypeError(f"not an exact rational: {type(val).__name__}")
        self.coeffs = _trimmed([int(v) if type(v) is bool else _exact(v) for v in coeffs])

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other):
        if type(other) is DensePoly:
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ([other] if other else [])
        return NotImplemented

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        a = self.coeffs
        if type(other) is not DensePoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return self
            if not a:
                return _dense([_exact(+other)])  # +other: a bool becomes its int
            return _dense(_trimmed([_exact(a[0] + other), *a[1:]]))
        b = other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if len(a) > len(b):
            return _dense([*map(add, a, b), *a[len(b):]])
        return _dense(_trimmed(list(map(add, a, b))))

    __radd__ = __add__

    def __neg__(self):
        return _dense([-v for v in self.coeffs])

    def __sub__(self, other):
        if type(other) is not DensePoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self + (-other)
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            return _dense([*map(sub, a, b), *a[len(b):]])
        if len(a) < len(b):
            return _dense([*map(sub, a, b), *[-v for v in b[len(a):]]])
        return _dense(_trimmed(list(map(sub, a, b))))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if type(other) is not DensePoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self._scaled(other)
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        if len(a) <= 1:
            return _dense(b)._scaled(a[0]) if a else _dense([])
        # a convolution row by row, from the lowest nonzero a[low], which
        # writes its row; each later a[i] adds a[i] * b into out[i:i+len(b)]
        low = 0
        while not a[low]:
            low += 1
        first = a[low]
        out = [0] * low
        out += b if first == 1 else [first * v for v in b]
        out.extend(repeat(0, len(a) - 1 - low))
        width = len(b)
        for i in range(low + 1, len(a)):
            ai = a[i]
            if ai:
                out[i:i + width] = map(add, out[i:i + width], map(mul, repeat(ai), b))
        return _dense(out)

    __rmul__ = __mul__

    def _scaled(self, k):
        """self * k for an int or Fraction k."""
        if not k:
            return _dense([])
        if k == 1:
            return self
        if type(k) is int:
            return _dense([v * k for v in self.coeffs])
        return _dense([_times(v, k) for v in self.coeffs])

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, exp, _dense([1]))

    def divexact(self, other) -> "DensePoly":
        """Quotient self / other when the division is exact; raise otherwise.

        The power of x that divides other must divide self; both lose it,
        and long division from the top coefficient down must leave no
        remainder.
        """
        if type(other) is not DensePoly:
            other = DensePoly([other])
        den, rem = other.coeffs, self.coeffs
        if not den:
            raise ZeroDivisionError("division by the zero polynomial")
        # x^low divides den, and must divide self: take it out of both
        low = den.index(next(filter(None, den)))
        if low:
            if any(rem[:low]):
                raise ValueError("inexact polynomial division")
            den = den[low:]
        rem = rem[low:]
        lead, shift = den[-1], len(den) - 1
        if len(rem) <= shift:
            if rem:
                raise ValueError("inexact polynomial division")
            return _dense([])
        # dividing by a unit lead is multiplying by it
        unit = lead == 1 or lead == -1
        if not shift:
            return _dense([v * lead if unit else _quotient(v, lead) for v in rem])
        quo = [0] * (len(rem) - shift)
        tail = den[:-1]
        for k in range(len(quo) - 1, -1, -1):
            top = rem.pop()
            if top:
                q = quo[k] = top * lead if unit else _quotient(top, lead)
                rem[k:] = map(sub, rem[k:], map(mul, repeat(q), tail))
        if any(rem):
            raise ValueError("inexact polynomial division")
        return _dense(quo)

    def __truediv__(self, other):
        if not isinstance(other, (DensePoly, int, Fraction)):
            return NotImplemented
        return self.divexact(other)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return DensePoly([other]).divexact(self)

    def __repr__(self):
        return f"DensePoly({self.coeffs})"


def _homogeneous_str(v, degree: int, b=PARAM_B, c=PARAM_C) -> str:
    """str() at (b, c), both sym or one a rational r, of the homogeneous
    value of the given degree that is v, a DensePoly or a constant, at (x, 1).

    x^i becomes b^i c^(degree-i), or r^(degree-i) b^i at (sym, r) and
    r^i c^(degree-i) at (r, sym).  Where i exceeds the degree, by m at
    most, every term in c gains c^m and the sum is printed over c^m, as
    RationalFunction prints it.  Terms come in ascending powers of b, or
    of c at (r, sym), the order BivarPoly prints them in.  At r = 0 no i
    may exceed the degree, and only x^degree or x^0 is read.
    """
    # maps, not comprehensions: up to Python 3.11 a comprehension reading a
    # local makes it a cell, which slows every call, (sym, sym) ones included
    coeffs = v.coeffs if type(v) is DensePoly else (v,)
    if c is not PARAM_C:
        scaled = map(mul, coeffs, map(c.__pow__, count(degree, -1)))
        return _sum_str(zip(scaled, map(_times_monomial, count(), repeat(0))))
    top = max(len(coeffs) - 1, degree)
    if b is PARAM_B:
        body = _sum_str(zip(coeffs, _monomials(top)))
    else:
        scaled = list(map(mul, coeffs, map(b.__pow__, count())))
        body = _sum_str(zip(reversed(scaled),
                            map(_times_monomial, repeat(0), count(top + 1 - len(scaled)))))
    if top == degree:
        return body
    return f"({body})/({_times_monomial(0, top - degree)[1:]})"


@cache
def _monomials(degree: int) -> list[str]:
    """_times_monomial(i, degree - i) for i = 0..degree."""
    return [_times_monomial(i, degree - i) for i in range(degree + 1)]


def _dense(coeffs: list) -> DensePoly:
    """A DensePoly around coeffs, which must already be in normal form."""
    res = DensePoly.__new__(DensePoly)
    res.coeffs = coeffs
    return res


def _trimmed(coeffs: list) -> list:
    """coeffs without its trailing zeros."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def coerce_scalar(x):
    """Pass exact scalars (int, DensePoly, Fraction, RationalFunction) through,
    but a bool becomes its int; a BivarPoly becomes a RationalFunction."""
    if isinstance(x, (int, DensePoly, Fraction, RationalFunction)):
        return int(x) if type(x) is bool else x
    if isinstance(x, BivarPoly):
        return RationalFunction(x)
    raise TypeError(f"not an exact scalar: {type(x).__name__}")


def scalar_inv(s):
    """Multiplicative inverse inside the ambient field of s; the inverse of
    an int is an int only for the units 1 and -1 (also for a bool, which
    ``+s`` turns into its int), and a DensePoly has one only when it is a
    nonzero constant."""
    if isinstance(s, (int, Fraction)):
        if not s:
            raise ZeroDivisionError("reciprocal of zero")
        return +s if s in (1, -1) else Fraction(1, s)
    if isinstance(s, RationalFunction):
        return s.reciprocal()
    if isinstance(s, BivarPoly):
        return RationalFunction(1, s)
    if isinstance(s, DensePoly):
        return 1 / s
    raise TypeError(f"not an exact scalar: {type(s).__name__}")
