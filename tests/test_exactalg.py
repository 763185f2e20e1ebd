from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from garnier.exactalg import (
    ALPHA,
    ONE,
    ZERO,
    BiPoly,
    PoleValue,
    Poly,
    QuadElement,
    RatFunc,
    discriminant,
    exact_sqrt,
    format_quad,
    parse_quad,
    resultant,
    sqrt_fraction,
)


def q(a, b=0):
    return QuadElement(Fraction(a), Fraction(b))


def test_alpha_squares_to_minus_three():
    assert ALPHA * ALPHA == -3
    assert ALPHA ** 2 == q(-3)


def test_field_arithmetic():
    x = q(2, 3)
    y = q(-1, Fraction(1, 2))
    assert x + y == q(1, Fraction(7, 2))
    assert x - y == q(3, Fraction(5, 2))
    # (2 + 3a)(-1 + a/2) = -2 + a - 3a - 9/2... expand: ac - 3bd = -2 - 9/2, ad + bc = 1 - 3
    assert x * y == q(Fraction(-13, 2), -2)
    assert x * x.inverse() == ONE
    assert (x / y) * y == x
    assert ZERO + x == x
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_coercion_and_reflected_ops():
    x = q(1, 1)
    assert 2 * x == q(2, 2)
    assert x * Fraction(1, 2) == q(Fraction(1, 2), Fraction(1, 2))
    assert 1 - x == q(0, -1)
    assert Fraction(3, 2) / q(3) == q(Fraction(1, 2))


def test_scalar_times_poly_dispatch():
    # regression: QuadElement on the left of * with a Poly must defer to Poly.__rmul__
    p = Poly.x()
    out = q(0, 1) * p
    assert isinstance(out, Poly)
    assert out.evaluate(q(1)) == ALPHA
    assert isinstance(q(2) + p, Poly)
    assert isinstance(q(2) - p, Poly)


def test_norm_is_multiplicative():
    rng = random.Random(7)
    for _ in range(50):
        x = q(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
              Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        y = q(rng.randint(-9, 9), rng.randint(-9, 9))
        assert (x * y).norm() == x.norm() * y.norm()


def test_pow():
    x = q(1, 1)
    assert x ** 0 == ONE
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inverse()


def test_hash_consistent_with_equality():
    assert hash(q(5)) == hash(Fraction(5)) == hash(5)
    assert q(5) == 5
    assert len({q(2, 0), Fraction(2), 2}) == 1
    assert hash(QuadElement(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(q(3, 1) / 2) == hash(q(Fraction(3, 2), Fraction(1, 2)))
    # the set solution_record builds to test the points against 0, 1 and c
    c = q(3, 6) / 3 - 2 * ALPHA
    assert c == 1
    assert {QuadElement(0), QuadElement(1), c} == {0, 1}
    assert len({QuadElement(0), QuadElement(1), q(1, 1) / 2}) == 3
    assert Fraction(1) in {QuadElement(0), QuadElement(1), c}


class FractionPairQuad:
    """Reference: Q(alpha) as a pair of Fractions (a, b) for a + b*alpha,
    the representation QuadElement had before it moved to integer
    numerators over one denominator."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @staticmethod
    def coerce(x):
        if isinstance(x, FractionPairQuad):
            return x
        return FractionPairQuad(x)

    def __add__(self, other):
        o = FractionPairQuad.coerce(other)
        return FractionPairQuad(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return FractionPairQuad(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-FractionPairQuad.coerce(other))

    def __rsub__(self, other):
        return FractionPairQuad.coerce(other) + (-self)

    def __mul__(self, other):
        o = FractionPairQuad.coerce(other)
        return FractionPairQuad(self.a * o.a - 3 * self.b * o.b,
                                self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def conj(self):
        return FractionPairQuad(self.a, -self.b)

    def norm(self):
        return self.a * self.a + 3 * self.b * self.b

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(alpha)")
        return FractionPairQuad(self.a / n, -self.b / n)

    def __truediv__(self, other):
        return self * FractionPairQuad.coerce(other).inverse()

    def __rtruediv__(self, other):
        return FractionPairQuad.coerce(other) * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = FractionPairQuad(1)
        for _ in range(n):
            out = out * self
        return out


def _check_same(z, ref):
    """z is a normalised QuadElement with the value of the reference."""
    assert isinstance(z, QuadElement)
    a, b, d = z._abd
    assert d > 0 and gcd(a, b, d) == 1
    assert all(type(v) is int for v in (a, b, d))
    assert (z.a, z.b) == (ref.a, ref.b)
    assert type(z.a) is Fraction and type(z.b) is Fraction


def _rand_fraction(rng):
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def _rand_operand(rng):
    """A QuadElement, an int or a Fraction, with the reference value."""
    kind = rng.randrange(4)
    if kind == 0:
        x = rng.randint(-9, 9)
        return x, FractionPairQuad(x)
    if kind == 1:
        x = _rand_fraction(rng)
        return x, FractionPairQuad(x)
    a = _rand_fraction(rng) if kind == 2 else rng.randint(-9, 9)
    b = _rand_fraction(rng) if rng.random() < 0.8 else 0
    return QuadElement(a, b), FractionPairQuad(a, b)


def test_matches_fraction_pair_reference():
    rng = random.Random(2024)
    for _ in range(400):
        x, rx = _rand_operand(rng)
        x = QuadElement.coerce(x)
        y, ry = _rand_operand(rng)
        _check_same(x, rx)
        # the QuadElement on either side, the other operand of any scalar type
        _check_same(x + y, rx + ry)
        _check_same(y + x, ry + rx)
        _check_same(x - y, rx - ry)
        _check_same(y - x, ry - rx)
        _check_same(x * y, rx * ry)
        _check_same(y * x, ry * rx)
        _check_same(-x, -rx)
        _check_same(x.conj(), rx.conj())
        assert x.norm() == rx.norm() and type(x.norm()) is Fraction
        n = rng.randint(-3, 4)
        if y != 0:
            _check_same(x / y, rx / ry)
        if x != 0:
            _check_same(y / x, ry / rx)
            _check_same(x.inverse(), rx.inverse())
            _check_same(x ** n, rx ** n)
        else:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            _check_same(x ** abs(n), rx ** abs(n))
        # equality and hashing follow the value, not how it was reached
        assert (x == y) == ((rx.a, rx.b) == (ry.a, ry.b))
        if x.is_rational():
            assert x == rx.a and hash(x) == hash(rx.a)
        assert parse_quad(format_quad(x)) == x
        assert format_quad(x) == format_quad(QuadElement(rx.a, rx.b))


def test_exact_sqrt_matches_reference():
    rng = random.Random(5)
    for _ in range(200):
        w, rw = _rand_operand(rng)
        w = QuadElement.coerce(w)
        sq, rsq = w * w, rw * rw
        _check_same(sq, rsq)
        r = exact_sqrt(sq)
        assert r is not None and r * r == sq and (r == w or r == -w)
        # 2 is not a square in Q(alpha), so 2 w^2 is not one either
        assert exact_sqrt(sq * 2) is None or sq == 0


def test_normal_form_and_immutability():
    assert QuadElement(Fraction(2, 4), 0) == QuadElement(Fraction(1, 2))
    assert QuadElement(Fraction(2, 4), 0)._abd == (1, 0, 2)
    assert q(1, 1) / 2 != q(1, 1) and Fraction(1, 2) != q(1) and q(1) != Fraction(1, 2)
    assert QuadElement(Fraction(1, 6), Fraction(-3, 4))._abd == (2, -9, 12)
    assert (q(1, 1) * 2 / 4)._abd == (1, 1, 2)
    assert (ALPHA / -6)._abd == (0, -1, 6)
    assert (q(Fraction(1, 3)) * 3)._abd == (1, 0, 1)
    assert (q(Fraction(1, 2), Fraction(1, 2)) + q(Fraction(1, 2), Fraction(-1, 2)))._abd == (1, 0, 1)
    assert ZERO._abd == (0, 0, 1) and (q(5, 3) * 0)._abd == (0, 0, 1)
    assert repr(q(Fraction(1, 2), -3)) == "QuadElement(Fraction(1, 2), Fraction(-3, 1))"
    z = q(1, 2)
    for name in ("a", "b", "_abd", "c"):
        with pytest.raises(AttributeError):
            setattr(z, name, 1)
    assert z == q(1, 2)
    with pytest.raises(TypeError):
        QuadElement(0.5)
    assert z.__add__(0.5) is NotImplemented and z.__eq__("1") is NotImplemented


def test_arithmetic_builds_no_fraction(monkeypatch):
    x, y, h = q(Fraction(2, 3), 5), q(-1, Fraction(1, 7)), Fraction(3, 4)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    _ = [x + y, x - y, x * y, x / y, x ** 3, x ** -2, -x, x.conj(),
         x.inverse(), 2 - x, 3 * x, 1 / x, h * x, x + h, h - x, x / h,
         x == y, x == h, hash(x), bool(x)]
    assert built == []


def test_format_parse_roundtrip():
    cases = [q(0), q(3), q(-3), q(0, 1), q(0, -1), q(Fraction(2, 7)),
             q(1, 1), q(-1, Fraction(-5, 3)), q(Fraction(3, 4), 2)]
    for z in cases:
        assert parse_quad(format_quad(z)) == z
    assert format_quad(ALPHA) == "alpha"
    assert format_quad(q(0, -1)) == "-alpha"
    assert format_quad(q(1, -1)) == "1-alpha"


def test_sqrt_fraction():
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_fraction(Fraction(0)) == 0
    assert sqrt_fraction(Fraction(2)) is None
    assert sqrt_fraction(Fraction(-1)) is None


def test_exact_sqrt():
    assert exact_sqrt(q(4)) == q(2)
    assert exact_sqrt(q(-3)) == ALPHA
    assert exact_sqrt(q(-12)) == q(0, 2)
    assert exact_sqrt(q(2)) is None
    # mixed element with a square root in the field: (1 + alpha)^2 = -2 + 2 alpha
    r = exact_sqrt(q(-2, 2))
    assert r is not None and r * r == q(-2, 2)
    assert exact_sqrt(q(1, 1)) is None
    rng = random.Random(11)
    for _ in range(40):
        z = q(rng.randint(-6, 6), rng.randint(-6, 6))
        sq = z * z
        r = exact_sqrt(sq)
        assert r is not None and r * r == sq


def test_poly_basics():
    x = Poly.x()
    p = x ** 2 - 3 * x + 2
    assert p.degree() == 2
    assert p.evaluate(Fraction(1)) == 0
    assert p.evaluate(Fraction(2)) == 0
    assert p.evaluate(Fraction(0)) == 2
    assert p.derivative() == 2 * x - 3
    assert Poly([], "x").degree() == -1
    # trailing zeros are trimmed whatever field the zero lies in
    for zero in (0, Fraction(0), QuadElement(0)):
        assert Poly([1, 2, zero, zero]).coeffs == (1, 2)
        assert Poly([zero]).is_zero()


def test_poly_var_mismatch():
    with pytest.raises(ValueError):
        Poly.x("x") + Poly.x("y")


def test_poly_divmod_gcd():
    x = Poly.x()
    p = (x - 1) * (x - 2) * (x + 5)
    d, r = p.divmod(x - 2)
    assert r.is_zero()
    assert d == (x - 1) * (x + 5)
    g = p.gcd((x - 2) * (x + 7))
    assert g == x - 2
    assert p.gcd(Poly.const(3)).degree() == 0


def test_poly_monic():
    x = Poly.x()
    p = 4 * x ** 2 - 2 * x
    assert p.monic() == x ** 2 - Fraction(1, 2) * x
    assert (ALPHA * x + 2).monic() == x - Fraction(2, 3) * ALPHA
    assert Poly([], "x").monic().is_zero()


def test_poly_and_ratfunc_repr():
    x = Poly.x("t")
    p = x ** 3 + ALPHA * x - Fraction(1, 2)
    assert repr(p) == "Poly(t:[-1/2,alpha,0,1])"
    assert repr(Poly([], "x")) == "Poly(x:[])"
    f = RatFunc(x, 2 * x ** 2 + 2)
    assert repr(f) == "RatFunc(Poly(t:[0,1/2]) / Poly(t:[1,0,1]))"


def test_poly_quad_coefficients():
    x = Poly.x()
    p = (x - ALPHA) * (x + ALPHA)
    assert p == x ** 2 + 3
    assert p.evaluate(ALPHA) == ZERO


def test_ratfunc_reduction_and_poles():
    x = Poly.x()
    f = RatFunc((x - 1) * (x - 2), (x - 1) * x)
    assert f.num == x - 2
    assert f.den == x
    assert f.evaluate(Fraction(2)) == 0
    pole = f.evaluate(Fraction(0))
    assert pole == PoleValue(order=1)
    g = RatFunc(Poly.const(1), (x - 3) ** 2)
    assert g.evaluate(Fraction(3)) == PoleValue(order=2)
    # a pole at a point of Q(alpha) off the rationals: x^2 + 3 vanishes at alpha
    h = RatFunc(Poly.const(1), (x ** 2 + 3) ** 2)
    assert h.evaluate(ALPHA) == PoleValue(order=2)
    assert h.evaluate(ALPHA + 1) == 1 / ((ALPHA + 1) ** 2 + 3) ** 2


def test_ratfunc_calculus():
    x = Poly.x()
    f = RatFunc(x ** 2, x + 1)
    df = f.derivative()
    # (x^2/(x+1))' = (x^2 + 2x)/(x+1)^2
    assert df == RatFunc(x ** 2 + 2 * x, (x + 1) ** 2)
    assert f.degree() == 2


def test_bipoly_evaluate():
    F = BiPoly.from_terms({(2, 0): 1, (0, 1): -3, (1, 1): Fraction(1, 2)})
    s, t = Fraction(2), Fraction(5)
    assert F.evaluate(s, t) == s ** 2 - 3 * t + Fraction(1, 2) * s * t
    assert F.coefficient(2, 0) == 1
    assert F.coefficient(5, 5) == 0
    prod = F * F
    assert prod.evaluate(s, t) == F.evaluate(s, t) ** 2
    for zero in (0, Fraction(0), QuadElement(0)):
        G = BiPoly([[1, zero], [zero, zero]])
        assert G.rows == ((1,),)
        assert BiPoly([[zero]]).is_zero()
        assert (BiPoly([[zero, 2]]) * G).rows == ((0, 2),)


def test_resultant_and_discriminant():
    x = Poly.x()
    assert resultant(x ** 2 - 3, x ** 2 - 2) == 1
    assert resultant(x - 2, x ** 2 - 4) == 0
    # a common root in Q(alpha): elimination ends on a zero column
    assert resultant(x - ALPHA, x ** 2 + 3) == 0
    assert resultant(x - ALPHA, x ** 2 + 1) == -2
    d = discriminant(x ** 2 - 3 * x + 2)
    assert d == 1 and isinstance(d, (int, Fraction))
    assert discriminant(x ** 2 + x + 1) == -3
    assert discriminant((x - 1) * (x - 2) * (x - 3)) == 4
    assert discriminant((x - 1) ** 2) == 0
    assert discriminant(2 * x ** 2 + 3 * x + 1) == 1  # b^2 - 4ac
