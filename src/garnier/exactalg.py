"""Exact arithmetic substrate.

Rationals are stdlib ``fractions.Fraction``.  On top of those this module
provides the quadratic field Q(alpha) with alpha^2 = -3, dense univariate and
bivariate polynomials over either coefficient field, reduced rational
functions, Sylvester resultants and discriminants.  Everything is immutable
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
        out = QuadElement(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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

    def is_zero(self) -> bool:
        return not self

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


def parse_quad(text: str) -> QuadElement:
    """Inverse of format_quad."""
    s = text.strip().replace(" ", "")
    if "alpha" not in s:
        return QuadElement(Fraction(s))
    # split off the alpha term; the rational part, if any, comes first
    head, _, _ = s.partition("alpha")
    if head.endswith("*"):
        head = head[:-1]
    # find boundary between rational part and the b coefficient
    cut = 0
    for i in range(1, len(head)):
        if head[i] in "+-" and head[i - 1] not in "+-/*":
            cut = i
    if cut == 0:
        a_text, b_text = "0", head
    else:
        a_text, b_text = head[:cut], head[cut:]
    if b_text in ("", "+"):
        b = Fraction(1)
    elif b_text == "-":
        b = Fraction(-1)
    else:
        b = Fraction(b_text)
    return QuadElement(Fraction(a_text) if a_text not in ("", "+") else Fraction(0), b)


def exact_sqrt(z: QuadElement) -> Optional[QuadElement]:
    """Square root of z inside Q(alpha), or None when z is not a square there.

    No field extension is ever constructed: the result exists iff
    norm(z) is a rational square and the induced rational pieces are squares.
    """
    if z.is_zero():
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
    """Dense univariate polynomial over Fraction or QuadElement."""

    __slots__ = ("var", "coeffs")

    def __init__(self, coeffs, var: str = "x"):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "var", var)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, c, var: str = "x") -> "Poly":
        return cls([c], var)

    @classmethod
    def x(cls, var: str = "x") -> "Poly":
        return cls([0, 1], var)

    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check_var(self, other: "Poly"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other, self.var)
        self._check_var(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return Poly([x + y for x, y in zip(a, b)], self.var)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs], self.var)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other, self.var)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.const(other, self.var) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([c * other for c in self.coeffs], self.var)
        self._check_var(other)
        if self.is_zero() or other.is_zero():
            return Poly([], self.var)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return Poly(out, self.var)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        out = Poly.const(1, self.var)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.var == other.var and len(self.coeffs) == len(other.coeffs) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def evaluate(self, x):
        out = _zero_like(x)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:], self.var)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self * _inv_coeff(self.lc())

    def divmod(self, other: "Poly"):
        self._check_var(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = Poly([], self.var)
        r = self
        dinv = _inv_coeff(other.lc())
        while not r.is_zero() and r.degree() >= other.degree():
            shift = r.degree() - other.degree()
            coef = r.lc() * dinv
            term = Poly([0] * shift + [coef], self.var)
            q = q + term
            r = r - term * other
        return q, r

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else a

    def __repr__(self):
        body = ",".join(format_quad(QuadElement.coerce(c)) for c in self.coeffs)
        return f"Poly({self.var}:[{body}])"


class PoleValue:
    """Marker for rational-function evaluation at a pole."""

    __slots__ = ("order",)

    def __init__(self, order: int):
        object.__setattr__(self, "order", order)

    def __setattr__(self, *_):
        raise AttributeError("PoleValue is immutable")

    def __eq__(self, other):
        return isinstance(other, PoleValue) and self.order == other.order

    def __repr__(self):
        return f"PoleValue(order={self.order})"


def _root_multiplicity(p: Poly, x) -> int:
    m = 0
    while not p.is_zero():
        if p.evaluate(x):
            break
        m += 1
        p = p.divmod(Poly([-x, 1], p.var))[0]
    return m


class RatFunc:
    """Reduced rational function; denominator monic and coprime to numerator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num._check_var(den)
        g = num.gcd(den)
        if not g.is_zero() and g.degree() > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        inv = _inv_coeff(den.lc())
        object.__setattr__(self, "num", num * inv)
        object.__setattr__(self, "den", den * inv)

    def __setattr__(self, *_):
        raise AttributeError("RatFunc is immutable")

    def degree(self) -> int:
        return max(self.num.degree(), self.den.degree())

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def derivative(self) -> "RatFunc":
        return RatFunc(self.num.derivative() * self.den - self.num * self.den.derivative(),
                       self.den * self.den)

    def evaluate(self, x):
        dv = self.den.evaluate(x)
        if not dv:
            # reduced, so the numerator cannot vanish here too
            return PoleValue(_root_multiplicity(self.den, x))
        nv = self.num.evaluate(x)
        return nv / dv

    def __repr__(self):
        return f"RatFunc({self.num!r} / {self.den!r})"


class BiPoly:
    """Dense bivariate polynomial; rows indexed by the first variable's degree."""

    __slots__ = ("vars", "rows")

    def __init__(self, rows, variables=("s", "t")):
        trimmed = [list(r) for r in rows]
        for r in trimmed:
            while r and not r[-1]:
                r.pop()
        while trimmed and not trimmed[-1]:
            trimmed.pop()
        object.__setattr__(self, "rows", tuple(tuple(r) for r in trimmed))
        object.__setattr__(self, "vars", tuple(variables))

    def __setattr__(self, *_):
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def from_terms(cls, terms, variables=("s", "t")) -> "BiPoly":
        """terms: mapping (i, j) -> coefficient, exponents of (vars[0], vars[1])."""
        if not terms:
            return cls([], variables)
        imax = max(i for i, _ in terms)
        jmax = max(j for _, j in terms)
        rows = [[0] * (jmax + 1) for _ in range(imax + 1)]
        for (i, j), c in terms.items():
            rows[i][j] = c
        return cls(rows, variables)

    def _check_vars(self, other: "BiPoly"):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def coefficient(self, i: int, j: int):
        if i < len(self.rows) and j < len(self.rows[i]):
            return self.rows[i][j]
        return 0

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        self._check_vars(other)
        if not self.rows or not other.rows:
            return BiPoly([], self.vars)
        ni = len(self.rows) + len(other.rows) - 1
        nj = max(len(r) for r in self.rows) + max(len(r) for r in other.rows) - 1
        out = [[0] * nj for _ in range(ni)]
        for i, ra in enumerate(self.rows):
            for j, ca in enumerate(ra):
                if not ca:
                    continue
                for k, rb in enumerate(other.rows):
                    for l, cb in enumerate(rb):
                        out[i + k][j + l] = out[i + k][j + l] + ca * cb
        return BiPoly(out, self.vars)

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.vars == other.vars and self.rows == other.rows

    def is_zero(self) -> bool:
        return not self.rows

    def evaluate(self, x, y):
        out = _zero_like(x)
        for r in reversed(self.rows):
            rowval = _zero_like(y)
            for c in reversed(r):
                rowval = rowval * y + c
            out = out * x + rowval
        return out

    def __repr__(self):
        return f"BiPoly(vars={self.vars}, rows={self.rows!r})"


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
    if p.is_zero() or q.is_zero():
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
