"""Exact arithmetic substrate.

Rationals are stdlib ``fractions.Fraction``.  On top of those this module
provides the quadratic field Q(alpha) with alpha^2 = -3, dense polynomials
over either coefficient field, Sylvester resultants and discriminants.  A
bivariate polynomial in (s, t) is a ``Poly`` in s whose coefficients are
``Poly``s in t (Knuth, *TAOCP* vol. 2, sec. 4.6).  Everything is immutable
and exact; no floats appear anywhere.

An element of Q(alpha) is stored as integer numerators over one common
denominator, (a + b*alpha)/d with d > 0 and gcd(a, b, d) == 1 (the usual
representation of number-field elements, Cohen, *A Course in Computational
Algebraic Number Theory*, 1993, ch. 4).  Its arithmetic runs on Python ints
with one gcd per result and builds no Fraction; only the ``a``, ``b`` and
``norm()`` accessors return Fractions.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional, Union

Scalar = Union[int, Fraction, "QuadElement"]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational scalar: {x!r}")


def _num_den(x):
    # (numerator, denominator) of an int or a Fraction
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"not a rational scalar: {x!r}")


def sqrt_fraction(x: Fraction) -> Optional[Fraction]:
    """Exact square root of a rational, or None if it is not a square."""
    if x < 0:
        return None
    rn = isqrt(x.numerator)
    rd = isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


class QuadElement:
    """Element (a + b*alpha)/d of Q(alpha), alpha^2 = -3.

    The value is held as three ints normalised to d > 0 and
    gcd(a, b, d) == 1, so each value has exactly one representation.  Every
    ring operation works on the ints and normalises its result with one
    gcd; ``a`` and ``b`` read the rational coordinates back as Fractions.
    """

    __slots__ = ("_abd",)

    def __init__(self, a: Union[int, Fraction] = 0, b: Union[int, Fraction] = 0):
        an, ad = _num_den(a)
        bn, bd = _num_den(b)
        # a and b are reduced, so over the lcm of their denominators
        # gcd(a, b, d) is already 1
        d = lcm(ad, bd)
        _set_abd(self, (an * (d // ad), bn * (d // bd), d))

    def __setattr__(self, *_):
        raise AttributeError("QuadElement is immutable")

    @property
    def a(self) -> Fraction:
        return Fraction(self._abd[0], self._abd[2])

    @property
    def b(self) -> Fraction:
        return Fraction(self._abd[1], self._abd[2])

    @classmethod
    def coerce(cls, x: Scalar) -> "QuadElement":
        if isinstance(x, QuadElement):
            return x
        return cls(x)

    def __add__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        a, b, d = self._abd
        oa, ob, od = o
        if d == od:
            return _quad(a + oa, b + ob, d)
        return _quad(a * od + oa * d, b * od + ob * d, d * od)

    __radd__ = __add__

    def __neg__(self):
        a, b, d = self._abd
        return _from_abd((-a, -b, d))

    def __sub__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        a, b, d = self._abd
        oa, ob, od = o
        if d == od:
            return _quad(a - oa, b - ob, d)
        return _quad(a * od - oa * d, b * od - ob * d, d * od)

    def __rsub__(self, other):
        if _operand(other) is None:
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        a, b, d = self._abd
        oa, ob, od = o
        # (a + b alpha)(c + e alpha) = (ac - 3be) + (ae + bc) alpha
        return _quad(a * oa - 3 * b * ob, a * ob + b * oa, d * od)

    __rmul__ = __mul__

    def conj(self) -> "QuadElement":
        a, b, d = self._abd
        return _from_abd((a, -b, d))

    def norm(self) -> Fraction:
        # (a^2 + 3 b^2) / d^2, multiplicative over Q(alpha)
        a, b, d = self._abd
        return Fraction(a * a + 3 * b * b, d * d)

    def inverse(self) -> "QuadElement":
        # d / (a + b alpha) = d (a - b alpha) / (a^2 + 3 b^2)
        a, b, d = self._abd
        n = a * a + 3 * b * b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(alpha)")
        return _quad(a * d, -b * d, n)

    def __truediv__(self, other):
        if _operand(other) is None:
            return NotImplemented
        return self * QuadElement.coerce(other).inverse()

    def __rtruediv__(self, other):
        if _operand(other) is None:
            return NotImplemented
        return QuadElement.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        if n < 2:
            return self if n else QuadElement(1)
        half = self ** (n >> 1)
        out = half * half
        return out * self if n & 1 else out

    def __eq__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return self._abd == o

    def __hash__(self):
        a, b, d = self._abd
        if b == 0:
            # equal to the hash of the equal int or Fraction
            return hash(a if d == 1 else Fraction(a, d))
        return hash(self._abd)

    def is_rational(self) -> bool:
        return self._abd[1] == 0

    def __bool__(self):
        a, b, _ = self._abd
        return a != 0 or b != 0

    def __repr__(self):
        return f"QuadElement({self.a!r}, {self.b!r})"

    def __str__(self):
        return format_quad(self)


_new = object.__new__
_set_abd = QuadElement._abd.__set__


def _from_abd(abd) -> QuadElement:
    # abd must already be normalised
    z = _new(QuadElement)
    _set_abd(z, abd)
    return z


def _quad(a: int, b: int, d: int) -> QuadElement:
    """(a + b*alpha)/d for ints with d > 0, normalised."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    z = _new(QuadElement)
    _set_abd(z, (a, b, d))
    return z


def _operand(x):
    """The (a, b, d) triple of a scalar operand; None for any other type."""
    if type(x) is QuadElement:
        return x._abd
    if isinstance(x, int):
        return (x, 0, 1)
    if isinstance(x, Fraction):
        return (x.numerator, 0, x.denominator)
    return None


ALPHA = QuadElement(0, 1)
ZERO = QuadElement(0)
ONE = QuadElement(1)


def format_quad(z: QuadElement) -> str:
    """Canonical text form: 'a', 'b*alpha' or 'a+b*alpha' with sign folded in."""
    if z.b == 0:
        return str(z.a)
    bpart = "alpha" if z.b == 1 else ("-alpha" if z.b == -1 else f"{z.b}*alpha")
    if z.a == 0:
        return bpart
    sign = "+" if z.b > 0 else ""
    return f"{z.a}{sign}{bpart}"


def exact_sqrt(z: QuadElement) -> Optional[QuadElement]:
    """Square root of z inside Q(alpha), or None when z is not a square there.

    No field extension is ever constructed: the result exists iff
    norm(z) is a rational square and the induced rational pieces are squares.
    """
    if not z:
        return ZERO
    if z.b == 0:
        r = sqrt_fraction(z.a)
        if r is not None:
            return QuadElement(r)
        # a < 0 may be a square of a pure-alpha element: (y alpha)^2 = -3 y^2
        r = sqrt_fraction(-z.a / 3)
        if r is not None:
            return QuadElement(0, r)
        return None
    n = sqrt_fraction(z.norm())
    if n is None:
        return None
    # (x + y alpha)^2 = z needs x^2 = (a +- n)/2 and y = b/(2x)
    for sign in (1, -1):
        x2 = (z.a + sign * n) / 2
        x = sqrt_fraction(x2)
        if x is None or x == 0:
            continue
        cand = QuadElement(x, z.b / (2 * x))
        if cand * cand == z:
            return cand
    return None


def _inv_coeff(c):
    # exact inverse; int and Fraction go through Fraction so no float sneaks in
    return c.inverse() if isinstance(c, QuadElement) else 1 / _as_fraction(c)


def _zero_like(c):
    return c * 0


class Poly:
    """Dense univariate polynomial over Fraction, QuadElement or Poly;
    trailing zero coefficients, zero inner Polys included, are trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, c) -> "Poly":
        return cls([c])

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def lc(self):
        if not self:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return Poly([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.const(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([c * other for c in self.coeffs])
        if not self or not other:
            return Poly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n < 2:
            return self if n else Poly.const(1)
        half = self ** (n >> 1)
        out = half * half
        return out * self if n & 1 else out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def evaluate(self, x):
        out = _zero_like(x)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if not self:
            return self
        return self * _inv_coeff(self.lc())

    def __repr__(self):
        return f"Poly([{','.join(map(str, self.coeffs))}])"


def _det(matrix):
    """Exact determinant by Gaussian elimination over a field."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    det = 1
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            return 0 * det
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        pv = m[col][col]
        det = det * pv
        pinv = _inv_coeff(pv)
        for r in range(col + 1, n):
            f = m[r][col] * pinv
            if not f:
                continue
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det * sign


def resultant(p: Poly, q: Poly):
    """Sylvester-matrix resultant; exact over the coefficient field."""
    if not p or not q:
        raise ValueError("resultant of the zero polynomial")
    m, n = p.degree(), q.degree()
    if m == 0:
        return p.coeffs[0] ** n
    if n == 0:
        return q.coeffs[0] ** m
    size = m + n
    rows = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for i in range(n):
        rows.append([0] * i + pc + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + qc + [0] * (size - n - 1 - i))
    return _det(rows)


def discriminant(p: Poly):
    """disc(p) = (-1)^(n(n-1)/2) res(p, p') / lc(p)."""
    n = p.degree()
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    r = resultant(p, p.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return r * _inv_coeff(p.lc()) * sign
