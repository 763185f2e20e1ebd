"""Exact arithmetic substrate.

Rationals are stdlib ``fractions.Fraction``.  On top of those this module
provides the quadratic field Q(alpha) with alpha^2 = -3, dense univariate
polynomials over Q or Q(alpha), and resultants and discriminants by the
Euclidean remainder sequence.
Everything is immutable and exact; no floats appear anywhere.

An element of Q(alpha) is stored as integer numerators over one common
denominator, (a + b*alpha)/d with d > 0 and gcd(a, b, d) == 1 (the usual
representation of number-field elements, Cohen, *A Course in Computational
Algebraic Number Theory*, 1993, ch. 4), and a polynomial as integer pairs
(a_i, b_i) over one denominator shared by all its coefficients.  The field
and polynomial arithmetic, division, remainders (pseudo-division),
``exact_sqrt`` and evaluation (Horner) run on Python ints with one gcd per
result and build no Fraction; only the ``a`` and ``b`` accessors return
Fractions.  A polynomial's coefficients and values are
QuadElements, rational ones included.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, lcm
from typing import Optional, Union

Scalar = Union[int, Fraction, "QuadElement"]


class QuadElement:
    """Element (a + b*alpha)/d of Q(alpha), alpha^2 = -3.

    The value is held as three ints normalised to d > 0 and
    gcd(a, b, d) == 1, so each value has exactly one representation.  Every
    ring operation works on the ints and normalises its result with one
    gcd; ``a`` and ``b`` read the rational coordinates back as Fractions.
    """

    __slots__ = ("_abd",)

    def __init__(self, a: Union[int, Fraction] = 0, b: Union[int, Fraction] = 0):
        for x in (a, b):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"not a rational scalar: {x!r}")
        # a and b are reduced, so over the lcm of their denominators
        # gcd(a, b, d) is already 1
        ad, bd = a.denominator, b.denominator
        d = lcm(ad, bd)
        _set_abd(self, (a.numerator * (d // ad), b.numerator * (d // bd), d))

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
        return _quad(a * od + oa * d, b * od + ob * d, d * od)

    __radd__ = __add__

    def __neg__(self):
        a, b, d = self._abd
        return _quad(-a, -b, d)

    def __sub__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        a, b, d = self._abd
        oa, ob, od = o
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
        return _quad(a, -b, d)

    def inverse(self) -> "QuadElement":
        return _div((1, 0, 1), self._abd)

    def __truediv__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _div(self._abd, o)

    def __rtruediv__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _div(o, self._abd)

    def __pow__(self, n: int):
        if n < 0:
            return _pow(self.inverse(), -n)
        return _pow(self, n) if n else ONE

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

    def __bool__(self):
        a, b, _ = self._abd
        return a != 0 or b != 0

    def __repr__(self):
        return f"QuadElement({self.a!r}, {self.b!r})"

    def __str__(self):
        return format_quad(self)


_new = object.__new__
_set_abd = QuadElement._abd.__set__


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


def _div(x, y) -> QuadElement:
    """x / y for (a, b, d) triples with one gcd: (a + b alpha)/d over
    (c + e alpha)/f is f (a + b alpha)(c - e alpha) / (d (c^2 + 3 e^2))."""
    a, b, d = x
    c, e, f = y
    n = c * c + 3 * e * e
    if n == 0:
        raise ZeroDivisionError("division by zero in Q(alpha)")
    return _quad(f * (a * c + 3 * b * e), f * (b * c - a * e), d * n)


def _pow(x, n: int):
    """x ** n for n >= 1 by repeated squaring: one product per bit of n
    below the top one, and one more per set bit among them."""
    if n == 1:
        return x
    half = _pow(x, n >> 1)
    out = half * half
    return out * x if n & 1 else out


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


def _horner(rows, x):
    """(a, b, e^n) with e^n f(x) = a + b*alpha for f's integer pairs (c_0,
    ..., c_n), f's denominator left out, and x = (p + q alpha)/e as (p, q, e)."""
    p, q, e = x
    a, b = rows[-1] if rows else (0, 0)
    scale = 1
    for ca, cb in reversed(rows[:-1]):
        scale *= e
        a, b = a * p - 3 * b * q + ca * scale, a * q + b * p + cb * scale
    return a, b, scale


class Poly:
    """Dense univariate polynomial over Q or Q(alpha), built from int,
    Fraction or QuadElement coefficients (TypeError otherwise).  It holds
    int pairs _rows over one _den > 0, coefficient i (a_i + b_i*alpha)/den,
    trailing zero pairs trimmed and gcd(den, a_0, b_0, a_1, ...) == 1: one
    representation per polynomial.  Each operation normalises its result
    with one gcd; ``coeffs`` and ``lc`` build QuadElements when read."""

    __slots__ = ("_rows", "_den")

    def __init__(self, coeffs):
        cs = list(coeffs)
        abds = [_operand(c) for c in cs]
        if None in abds:
            raise TypeError(f"not a field scalar: {cs[abds.index(None)]!r}")
        den = lcm(*[d for _, _, d in abds])
        f = _poly([(a * (den // d), b * (den // d)) for a, b, d in abds], den)
        _set_rows(self, f._rows)
        _set_den(self, f._den)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self):
        den = self._den
        return tuple(_quad(a, b, den) for a, b in self._rows)

    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self._rows) - 1

    def __bool__(self):
        return bool(self._rows)

    def lc(self):
        if not self:
            raise ValueError("zero polynomial has no leading coefficient")
        return _quad(*self._rows[-1], self._den)

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        pairs = zip_longest(self._rows, other._rows, fillvalue=(0, 0))
        dx, dy = self._den, other._den
        return _poly([(a * dy + c * dx, b * dy + e * dx)
                      for (a, b), (c, e) in pairs], dx * dy)

    __radd__ = __add__

    def __neg__(self):
        return _poly([(-a, -b) for a, b in self._rows], self._den)

    def __sub__(self, other):
        return self + -(other if isinstance(other, Poly) else Poly([other]))

    def __rsub__(self, other):
        return Poly([other]) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            o = _operand(other)
            if o is None:
                return NotImplemented
            c, e, d = o
            return _poly([(a * c - 3 * b * e, a * e + b * c)
                          for a, b in self._rows], self._den * d)
        if not self or not other:
            return Poly([])
        # the convolution on integer pairs, alpha^2 = -3
        xs, ys = self._rows, other._rows
        ra = [0] * (len(xs) + len(ys) - 1)
        rb = ra[:]
        for i, (a, b) in enumerate(xs):
            for j, (c, e) in enumerate(ys, i):
                ra[j] += a * c - 3 * b * e
                rb[j] += a * e + b * c
        return _poly(list(zip(ra, rb)), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _pow(self, n) if n else Poly([1])

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._rows == other._rows and self._den == other._den

    def __hash__(self):
        return hash((self._rows, self._den))

    def evaluate(self, x) -> QuadElement:
        o = _operand(x)
        if o is None:
            raise TypeError(f"not a field scalar: {x!r}")
        a, b, scale = _horner(self._rows, o)
        return _quad(a, b, self._den * scale)

    def derivative(self) -> "Poly":
        return _poly([(i * a, i * b) for i, (a, b) in enumerate(self._rows)][1:],
                     self._den)

    def monic(self) -> "Poly":
        return self * (1 / self.lc()) if self else self

    def __repr__(self):
        return f"Poly([{','.join(map(str, self.coeffs))}])"


_set_rows = Poly._rows.__set__
_set_den = Poly._den.__set__


def _poly(rows, den: int) -> Poly:
    """The Poly of the list of int pairs rows over den > 0, with one gcd."""
    while rows and not (rows[-1][0] or rows[-1][1]):
        rows.pop()
    g = gcd(den, *[x for row in rows for x in row])
    if g != 1:
        rows = [(a // g, b // g) for a, b in rows]
        den //= g
    f = _new(Poly)
    _set_rows(f, tuple(rows))
    _set_den(f, den)
    return f


def evaluate_rows(rows, s, t) -> QuadElement:
    """f(s, t) for f's rows, one Poly in t per power of s, with one gcd: for
    t = (p + q alpha)/e each row at t is an unnormalised pair over D e^n (D
    the rows' lcm denominator, n + 1 the longest row, shorter rows times the
    powers of e they lack), then Horner in s runs on the pairs."""
    xt = _operand(t)
    n = max(len(row._rows) for row in rows) or 1  # all rows zero: n - 1 = 0
    den = lcm(*[row._den for row in rows])
    pairs = []
    for row in rows:
        a, b, _ = _horner(row._rows, xt)
        k = den // row._den * xt[2] ** (n - len(row._rows))
        pairs.append((a * k, b * k))
    a, b, scale = _horner(pairs, _operand(s))
    return _quad(a, b, den * xt[2] ** (n - 1) * scale)


def _rem(f: Poly, g: Poly) -> Poly:
    """f mod g for g != 0 by pseudo-division on the stored pairs (Cohen,
    1993, sec. 3.1): with g's leading pair (c, e) and m = c^2 + 3e^2, each
    step scales the remainder by m and subtracts top*(c - e alpha)*x^shift*g
    to cancel its top pair, so the result is over den(f) * m^steps."""
    r, gs = list(f._rows), g._rows
    n = len(gs) - 1
    c, e = gs[-1]
    m = c * c + 3 * e * e
    steps = max(len(r) - n, 0)
    while len(r) > n:
        ta, tb = r.pop()
        qa, qb = ta * c + 3 * tb * e, tb * c - ta * e
        shift = len(r) - n
        r[:shift] = [(a * m, b * m) for a, b in r[:shift]]
        for i, (ga, gb) in enumerate(gs[:-1], shift):
            a, b = r[i]
            r[i] = (a * m - qa * ga + 3 * qb * gb, b * m - qa * gb - qb * ga)
    return _poly(r, f._den * m ** steps)


def resultant(p: Poly, q: Poly):
    """res(p, q) over the coefficient field by the Euclidean remainder
    sequence (Cohen, 1993, sec. 3.3): with r = p mod q,
    res(p, q) = (-1)^(mn) lc(q)^(m - deg r) res(q, r) for m = deg p,
    n = deg q; res(p, q) = lc(q)^m for constant q and 0 when r = 0."""
    if not p or not q:
        raise ValueError("resultant of the zero polynomial")
    out = ONE
    while q.degree() > 0:
        m, n = p.degree(), q.degree()
        r = _rem(p, q)
        if not r:
            return ZERO
        out *= (-1) ** (m * n) * q.lc() ** (m - r.degree())
        p, q = q, r
    return out * q.lc() ** p.degree()


def discriminant(p: Poly):
    """disc(p) = (-1)^(n(n-1)/2) res(p, p') / lc(p)."""
    n = p.degree()
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    r = resultant(p, p.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return r / p.lc() * sign
