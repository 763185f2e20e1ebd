from __future__ import annotations

import random
from fractions import Fraction

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
    assert (x + 1).compose(x - 1) == x
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


def test_poly_monic_content():
    x = Poly.x()
    p = 4 * x ** 2 - 2 * x
    assert p.monic() == x ** 2 - Fraction(1, 2) * x
    assert p.content() == 2
    assert (Fraction(2, 3) * x + Fraction(4, 9)).content() == Fraction(2, 9)


def test_poly_serialize_roundtrip():
    x = Poly.x("t")
    p = x ** 3 + ALPHA * x - Fraction(1, 2)
    assert Poly.parse(p.serialize()) == p
    assert Poly.parse("x:[]").is_zero()


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
    comp = f.compose(RatFunc(x + 3, Poly.const(1)))
    assert comp.evaluate(Fraction(0)) == Fraction(9, 4)
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
