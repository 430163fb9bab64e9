"""Exact scalar arithmetic for the whole package.

Three kinds of scalar circulate here:

* ``Rational``        -- arbitrary-precision rationals (stdlib Fraction);
* ``BivarPoly``       -- sparse polynomials in the two recurrence parameters
                         b and c, with exact coefficients stored as ``int``
                         when integral and as ``Fraction`` otherwise;
* ``RationalFunction``-- quotients of two BivarPoly, the field the symbolic
                         identities live in.

Polynomials in the indeterminate x are not a scalar kind: a row P_n(x) is
the plain list of its coefficients, ascending in the power of x.

Everything is exact.  No floating point is used anywhere in this module or in
the rest of the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Rational = Fraction

#: total ordering used for leading terms and for rendering: exponent pairs
#: (i, j) for b^i c^j compare lexicographically with b heavier than c.


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal such as '3', '-5/2' or '0'."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def _fraction_content(values) -> Fraction:
    """gcd of a nonempty collection of exact coefficients, normalized positive."""
    num = 0
    den = 1
    for v in values:
        num = gcd(num, v.numerator)
        den = lcm(den, v.denominator)
    return Fraction(num, den) if num else Fraction(1)


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


class BivarPoly:
    """Sparse polynomial in b and c: maps exponent pairs (i, j) to coefficients.

    Every value of ``terms`` is an ``int`` when the coefficient is integral and
    a ``Fraction`` with denominator > 1 otherwise, and every operation
    restores that form.  The paper's moments, coefficient arrays and
    determinants have integer coefficients, so their arithmetic builds no
    Fraction at all.  ``terms`` is the public map from exponent pair to exact
    value, never a float: equality and hashing of polynomials are those of
    the dict, and callers compare it with dicts of Fractions, which works
    because an int compares and hashes equal to the integral Fraction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned: dict[tuple[int, int], int | Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, val in items:
                if not isinstance(val, (int, Fraction)):
                    val = Fraction(val)
                key = (int(key[0]), int(key[1]))
                acc = cleaned.get(key, 0) + val
                if acc:
                    cleaned[key] = _exact(acc)
                else:
                    cleaned.pop(key, None)
        self.terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value) -> "BivarPoly":
        return cls({(0, 0): value})

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls()

    @classmethod
    def one(cls) -> "BivarPoly":
        return cls({(0, 0): 1})

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

    def leading_key(self) -> tuple[int, int]:
        # lex order with b > c; tuple comparison does exactly that
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms)

    def content(self) -> Fraction:
        if not self.terms:
            return Fraction(1)
        return _fraction_content(self.terms.values())

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, BivarPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BivarPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, val in other.terms.items():
            acc = out.get(key, 0) + val
            if acc:
                out[key] = _exact(acc)
            else:
                del out[key]
        res = BivarPoly.__new__(BivarPoly)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = BivarPoly.__new__(BivarPoly)
        res.terms = {k: -v for k, v in self.terms.items()}
        return res

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return BivarPoly.zero()
        small, large = self.terms, other.terms
        if len(small) > len(large):
            small, large = large, small
        out: dict[tuple[int, int], int | Fraction] = {}
        for (i1, j1), v1 in small.items():
            for (i2, j2), v2 in large.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + v1 * v2
        res = BivarPoly.__new__(BivarPoly)
        res.terms = {k: _exact(v) for k, v in out.items() if v}
        return res

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative power of a polynomial; use RationalFunction")
        result = BivarPoly.one()
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            inv = Fraction(1) / Fraction(other)
            res = BivarPoly.__new__(BivarPoly)
            res.terms = {k: _exact(v * inv) for k, v in self.terms.items()}
            return res
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
        lead = other.leading_key()
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
        res = BivarPoly.__new__(BivarPoly)
        res.terms = out
        return res

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
        bq, cq = Fraction(b_value), Fraction(c_value)
        total = Fraction(0)
        for (i, j), v in self.terms.items():
            total += v * bq ** i * cq ** j
        return total

    def c_coefficients(self) -> list[int | Fraction]:
        """Coefficient list in c (ascending), for polynomials free of b."""
        if any(i for i, _ in self.terms):
            raise ValueError("polynomial still involves b")
        deg = max((j for _, j in self.terms), default=0)
        out = [0] * (deg + 1)
        for (_, j), v in self.terms.items():
            out[j] = v
        return out

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        # ascending total degree, then ascending b exponent
        keys = sorted(self.terms, key=lambda k: (k[0] + k[1], k[0], k[1]))
        parts = []
        for key in keys:
            coeff = self.terms[key]
            mono = _monomial_str(key)
            mag = abs(coeff)
            if mono:
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"BivarPoly({self})"


def _monomial_str(key: tuple[int, int]) -> str:
    i, j = key
    parts = []
    if i == 1:
        parts.append("b")
    elif i > 1:
        parts.append(f"b^{i}")
    if j == 1:
        parts.append("c")
    elif j > 1:
        parts.append(f"c^{j}")
    return "*".join(parts)


_POLY_ZERO = BivarPoly.zero()
_POLY_ONE = BivarPoly.one()


class RationalFunction:
    """Quotient of two bivariate polynomials, kept lightly reduced.

    Canonicalization divides out the common monomial factor and the integer
    content of the denominator, fixes the sign of the denominator's leading
    coefficient, folds constant denominators into the numerator, and attempts
    one exact division.  Equality never relies on full gcd reduction: it is
    decided by cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_bivar(num)
        den = _POLY_ONE if den is None else _as_bivar(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = _POLY_ZERO, _POLY_ONE
            return
        if den.is_constant:
            cv = den.constant_value()
            self.num = num if cv == 1 else num / cv
            self.den = _POLY_ONE
            return
        # cancel the common monomial factor
        nb = min(i for i, _ in num.terms)
        nc = min(j for _, j in num.terms)
        db = min(i for i, _ in den.terms)
        dc = min(j for _, j in den.terms)
        sb, sc = min(nb, db), min(nc, dc)
        if sb or sc:
            num = BivarPoly({(i - sb, j - sc): v for (i, j), v in num.terms.items()})
            den = BivarPoly({(i - sb, j - sc): v for (i, j), v in den.terms.items()})
        if den.is_constant:
            cv = den.constant_value()
            self.num = num if cv == 1 else num / cv
            self.den = _POLY_ONE
            return
        try:
            quotient = num.divexact(den)
        except ValueError:
            pass
        else:
            self.num, self.den = quotient, _POLY_ONE
            return
        scale = den.content()
        if den.terms[den.leading_key()] < 0:
            scale = -scale
        if scale != 1:
            num = num / scale
            den = den / scale
        self.num, self.den = num, den

    # -- coercion ------------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction, BivarPoly)):
            return RationalFunction(other)
        return None

    # -- predicates ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.is_one

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.is_one and other.den.is_one:
            res = RationalFunction.__new__(RationalFunction)
            res.num, res.den = self.num + other.num, _POLY_ONE
            return res
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        res = RationalFunction.__new__(RationalFunction)
        res.num, res.den = -self.num, self.den
        return res

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.is_one and other.den.is_one:
            res = RationalFunction.__new__(RationalFunction)
            res.num, res.den = self.num * other.num, _POLY_ONE
            return res
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.den, self.den * other.num)

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
        res = RationalFunction.__new__(RationalFunction)
        res.num, res.den = self.num ** exp, self.den ** exp
        return res

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    # -- evaluation and rendering ------------------------------------------

    def evaluate(self, b_value, c_value) -> Fraction:
        den = self.den.evaluate(b_value, c_value)
        if not den:
            raise ZeroDivisionError("denominator vanishes at this point")
        return self.num.evaluate(b_value, c_value) / den

    def __str__(self):
        if self.den.is_one:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


def _as_bivar(x) -> BivarPoly:
    if isinstance(x, BivarPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return BivarPoly.const(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a polynomial")


#: symbolic parameter values, ready to be mixed with Fractions and ints
PARAM_B = RationalFunction(BivarPoly.b())
PARAM_C = RationalFunction(BivarPoly.c())


def coerce_scalar(x):
    """Normalize raw ints to Fractions; pass exact scalars through."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, BivarPoly):
        return RationalFunction(x)
    if isinstance(x, (Fraction, RationalFunction)):
        return x
    raise TypeError(f"not an exact scalar: {type(x).__name__}")


def scalar_inv(s):
    """Multiplicative inverse inside the ambient field of s."""
    if isinstance(s, Fraction):
        return Fraction(1) / s
    if isinstance(s, RationalFunction):
        return s.reciprocal()
    if isinstance(s, BivarPoly):
        return RationalFunction(_POLY_ONE, s)
    raise TypeError(f"not an exact scalar: {type(s).__name__}")
