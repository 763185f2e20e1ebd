"""Exact arithmetic substrate.

Rationals are stdlib ``fractions.Fraction``.  On top of those this module
provides the quadratic field Q(alpha) with alpha^2 = -3, dense univariate
polynomials over Q or Q(alpha), Sylvester resultants and discriminants.
Everything is immutable and exact; no floats appear anywhere.

An element of Q(alpha) is stored as integer numerators over one common
denominator, (a + b*alpha)/d with d > 0 and gcd(a, b, d) == 1 (the usual
representation of number-field elements, Cohen, *A Course in Computational
Algebraic Number Theory*, 1993, ch. 4).  Its arithmetic, ``exact_sqrt``,
and the evaluation (Horner) and product of polynomials run on Python ints
over one common denominator, with one gcd per result, and build no
Fraction; only the ``a``, ``b`` and ``norm()`` accessors return Fractions.
A polynomial's values and products are QuadElements whatever its
coefficients, rational ones included.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional, Union

Scalar = Union[int, Fraction, "QuadElement"]


def _num_den(x):
    # (numerator, denominator) of an int or a Fraction
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"not a rational scalar: {x!r}")


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


def _isqrt_exact(n: int) -> Optional[int]:
    # the root of a square int, else None
    r = isqrt(max(n, 0))
    return r if r * r == n else None


def exact_sqrt(z: QuadElement) -> Optional[QuadElement]:
    """Square root of z inside Q(alpha), or None when z is not a square there.

    With z = (a + b alpha)/d, sqrt(z) = sqrt(w)/d for the integral
    w = ad + bd alpha, and a root of w in Q(alpha) lies in Z[alpha], so the
    search runs on ints.  The root returned has a positive rational part,
    or a positive alpha part when its rational part is 0.
    """
    a, b, d = z._abd
    a *= d
    if b == 0:
        # a rational root, else for a < 0 a pure-alpha one: (y alpha)^2 = -3 y^2
        r = _isqrt_exact(a)
        if r is not None:
            return _quad(r, 0, d)
        r = _isqrt_exact(-3 * a)
        return None if r is None else _quad(0, r // 3, d)
    b *= d
    n = _isqrt_exact(a * a + 3 * b * b)
    if n is None:
        return None
    # (x + y alpha)^2 = w: x^2 = (a + n)/2, y = b/(2x), and b != 0 so x != 0
    x = _isqrt_exact((a + n) // 2)
    if not x:
        return None
    cand = _quad(x, b // (2 * x), d)
    return cand if cand * cand == z else None


def _inv_coeff(c):
    # exact inverse; Fraction(1, c) takes int and Fraction and rejects floats
    return c.inverse() if isinstance(c, QuadElement) else Fraction(1, c)


def _int_rows(coeffs):
    """The coefficients as ([(a, b), ...], D) with c = (a + b*alpha)/D for
    one common D; TypeError unless each is an int, Fraction or QuadElement."""
    abds = [_operand(c) for c in coeffs]
    if None in abds:
        raise TypeError(f"not a field scalar: {coeffs[abds.index(None)]!r}")
    den = lcm(*[d for _, _, d in abds])
    return [(a * (den // d), b * (den // d)) for a, b, d in abds], den


class Poly:
    """Dense univariate polynomial over Q or Q(alpha): int, Fraction or
    QuadElement coefficients (TypeError otherwise), trailing zeros trimmed.
    Products and values are QuadElements, on integer pairs over one common
    denominator with one gcd each."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        for c in cs:
            if _operand(c) is None:
                raise TypeError(f"not a field scalar: {c!r}")
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
        # the convolution on integer pairs, alpha^2 = -3
        xs, dx = _int_rows(self.coeffs)
        ys, dy = _int_rows(other.coeffs)
        ra = [0] * (len(xs) + len(ys) - 1)
        rb = ra[:]
        for i, (a, b) in enumerate(xs):
            for j, (c, e) in enumerate(ys, i):
                ra[j] += a * c - 3 * b * e
                rb[j] += a * e + b * c
        return Poly([_quad(a, b, dx * dy) for a, b in zip(ra, rb)])

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

    def evaluate(self, x) -> QuadElement:
        if not self:
            return ZERO
        # Horner on ints: with x = (p + q alpha)/e, D e^n f(x) is the sum
        # of (D c_i) (p + q alpha)^i e^(n-i)
        cs, den = _int_rows(self.coeffs)
        [(p, q)], e = _int_rows((x,))
        a, b = cs[-1]
        scale = 1
        for ca, cb in reversed(cs[:-1]):
            scale *= e
            a, b = a * p - 3 * b * q + ca * scale, a * q + b * p + cb * scale
        return _quad(a, b, den * scale)

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
