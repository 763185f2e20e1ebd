from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from garnier import exactalg
from garnier.exactalg import (
    ALPHA,
    ONE,
    ZERO,
    Poly,
    QuadElement,
    _rem,
    discriminant,
    exact_sqrt,
    format_quad,
    resultant,
)


def q(a, b=0):
    return QuadElement(Fraction(a), Fraction(b))


def _norm(z):
    # (a + b alpha)(a - b alpha) = a^2 + 3 b^2, multiplicative over Q(alpha)
    return z.a * z.a + 3 * z.b * z.b


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
    p = Poly([0, 1])
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
        assert _norm(x * y) == _norm(x) * _norm(y)


def test_pow():
    x = q(1, 1)
    assert x ** 0 == ONE
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inverse()


def test_pow_matches_repeated_products(monkeypatch):
    for z in (q(1, 1), q(Fraction(-2, 3), Fraction(5, 7)), ALPHA, q(3)):
        for n in range(-4, 9):
            want = ONE
            for _ in range(abs(n)):
                want = want * z
            if n < 0:
                want = want.inverse()
            assert z ** n == want, (z, n)
    # one multiplication for a square, two for a cube; none wasted on a
    # square past the top bit
    made = []
    mul = QuadElement.__mul__

    def counting(self, other):
        made.append(1)
        return mul(self, other)

    monkeypatch.setattr(QuadElement, "__mul__", counting)
    z = q(Fraction(-2, 3), Fraction(5, 7))
    for n, cost in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (8, 3)]:
        made.clear()
        _ = z ** n
        assert len(made) == cost, (n, len(made))


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
        assert _norm(x) == rx.norm() and type(_norm(x)) is Fraction
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
        if x.b == 0:
            assert x == rx.a and hash(x) == hash(rx.a)
        assert format_quad(x) == format_quad(QuadElement(rx.a, rx.b))


def test_division_matches_multiplying_by_the_inverse():
    # one-gcd division against x * y.inverse(), with an int or a Fraction on
    # either side of a QuadElement; a zero divisor raises
    rng = random.Random(31)
    for _ in range(500):
        x, _ = _rand_operand(rng)
        y, _ = _rand_operand(rng)
        qx, qy = QuadElement.coerce(x), QuadElement.coerce(y)
        for num, den in ((qx, y), (x, qy), (qx, qy)):
            if not qy:
                with pytest.raises(ZeroDivisionError):
                    num / den
                continue
            got = num / den
            assert got == qx * qy.inverse() and _normalised(got), (x, y)
    with pytest.raises(ZeroDivisionError):
        ALPHA / ZERO
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / ZERO
    assert 0 / (1 + ALPHA) == ZERO


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
    # negation, conjugation and inversion land on the normal form too
    x = q(Fraction(2, 3), Fraction(-4, 9))
    assert x._abd == (6, -4, 9)
    assert (-x)._abd == (-6, 4, 9) and x.conj()._abd == (6, 4, 9)
    assert x.inverse()._abd == (9, 6, 14) and x.inverse() * x == ONE
    assert (-ZERO)._abd == ZERO.conj()._abd == (0, 0, 1)
    assert ALPHA.inverse()._abd == (0, -1, 3) and q(-4).inverse()._abd == (-1, 0, 4)
    assert repr(q(Fraction(1, 2), -3)) == "QuadElement(Fraction(1, 2), Fraction(-3, 1))"
    z = q(1, 2)
    for name in ("a", "b", "_abd", "c"):
        with pytest.raises(AttributeError):
            setattr(z, name, 1)
    assert z == q(1, 2)
    for bad in ((0.5,), (1, 0.5), (QuadElement(1),), (0, ALPHA), ("1",)):
        with pytest.raises(TypeError, match="not a rational scalar"):
            QuadElement(*bad)
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


def test_format_quad_canonical():
    # one text per value: equal values print alike, distinct ones differ
    cases = [q(0), q(3), q(-3), q(0, 1), q(0, -1), q(Fraction(2, 7)),
             q(1, 1), q(-1, Fraction(-5, 3)), q(Fraction(3, 4), 2)]
    assert len({format_quad(z) for z in cases}) == len(cases)
    assert format_quad(q(Fraction(6, 4), 2) / 2) == format_quad(q(Fraction(3, 4), 1))
    assert format_quad(q(-1, Fraction(-5, 3))) == "-1-5/3*alpha"
    assert format_quad(ALPHA) == "alpha"
    assert format_quad(q(0, -1)) == "-alpha"
    assert format_quad(q(1, -1)) == "1-alpha"


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


def _sqrt_fraction(x):
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _fraction_exact_sqrt(z):
    """Reference: exact_sqrt as it ran on the Fraction coordinates."""
    if not z:
        return ZERO
    if z.b == 0:
        r = _sqrt_fraction(z.a)
        if r is not None:
            return QuadElement(r)
        r = _sqrt_fraction(-z.a / 3)
        if r is not None:
            return QuadElement(0, r)
        return None
    n = _sqrt_fraction(_norm(z))
    if n is None:
        return None
    for sign in (1, -1):
        x = _sqrt_fraction((z.a + sign * n) / 2)
        if x is None or x == 0:
            continue
        cand = QuadElement(x, z.b / (2 * x))
        if cand * cand == z:
            return cand
    return None


def test_exact_sqrt_same_root_as_fraction_reference():
    rng = random.Random(17)
    for i in range(400):
        # rational, pure-alpha (a negative rational square) and mixed roots,
        # of either sign
        x = _rand_fraction(rng) if i % 3 != 1 else 0
        y = _rand_fraction(rng) if i % 3 != 0 else 0
        z = q(x, y) * q(x, y)
        r = exact_sqrt(z)
        assert r == _fraction_exact_sqrt(z) and r * r == z, z
        a, b, d = r._abd
        assert d > 0 and gcd(a, b, d) == 1
        assert a > 0 or (a == 0 and b >= 0)
        if z:
            # 2, -1, 3 and 1 + alpha are not squares in Q(alpha)
            for w in (2 * z, -z, 3 * z, (1 + ALPHA) * z):
                assert exact_sqrt(w) is None and _fraction_exact_sqrt(w) is None, w
    assert exact_sqrt(q(Fraction(-12, 25))) == q(0, Fraction(2, 5))
    assert exact_sqrt(q(Fraction(9, 4))) == q(Fraction(3, 2))
    assert exact_sqrt(q(Fraction(-3, 2))) is None
    assert exact_sqrt(q(-1, 1) ** 2) == q(1, -1)


def _generic_evaluate(p, x):
    """Reference: Poly.evaluate's loop over the coefficient field."""
    out = x * 0
    for c in reversed(p.coeffs):
        out = out * x + c
    return out


def _generic_mul(p, r):
    """Reference: Poly.__mul__'s convolution over the coefficient field."""
    if not p or not r:
        return Poly([])
    out = [0] * (len(p.coeffs) + len(r.coeffs) - 1)
    for i, ci in enumerate(p.coeffs):
        for j, cj in enumerate(r.coeffs):
            out[i + j] = out[i + j] + ci * cj
    return Poly(out)


def _rand_poly(rng, over_q):
    """Degree -1 (the zero polynomial) to 6; coefficients mix int, Fraction
    and, unless over_q, QuadElement."""
    cs = []
    for _ in range(rng.randint(0, 7)):
        c, _ = _rand_operand(rng)
        cs.append(c.a if over_q and isinstance(c, QuadElement) else c)
    return Poly(cs)


def _normalised(z):
    # every value and product coefficient is a normalised QuadElement
    if type(z) is not QuadElement:
        return False
    a, b, d = z._abd
    return d > 0 and gcd(a, b, d) == 1


def test_poly_kernels_match_generic_loops():
    rng = random.Random(23)
    for i in range(300):
        p = _rand_poly(rng, over_q=i % 4 == 0)
        r = _rand_poly(rng, over_q=i % 4 == 0 or i % 4 == 1)
        points = (QuadElement(_rand_fraction(rng), _rand_fraction(rng)),
                  rng.randint(-9, 9), _rand_fraction(rng))
        for x in points:
            got, want = p.evaluate(x), _generic_evaluate(p, x)
            assert got == want and _normalised(got), (p, x)
        got, want = p * r, _generic_mul(p, r)
        assert got == want and all(map(_normalised, got.coeffs)), (p, r)


def _stored(p):
    # the stored form, and a check that it is the normal one
    assert p._den > 0 and gcd(p._den, *[c for row in p._rows for c in row]) == 1
    assert not p._rows or p._rows[-1] != (0, 0)
    return p._rows, p._den


def test_poly_normal_form():
    # one polynomial, whatever its coefficients' types or the arithmetic
    # that reached it, has one stored form: equal ==, hash and coeffs
    x, half = Poly([0, 1]), Fraction(1, 2)
    p = ALPHA / 2 * x ** 2 + 3 * x + half
    zero = Poly([])
    routes = {
        p: [Poly([half, 3, ALPHA / 2]),
            Poly([q(half), QuadElement(3), q(0, half)]),
            Poly([Fraction(3, 6), Fraction(6, 2), ALPHA * Fraction(2, 4), 0, ZERO]),
            (ALPHA * x ** 2 + 6 * x + 1) * half,
            (ALPHA * x ** 2 + 6 * x + 1).monic() * (ALPHA / 2),
            Poly([0, half, Fraction(3, 2), ALPHA / 6]).derivative(),
            (p + x ** 5) - x ** 5,
            -(-p)],
        zero: [Poly([0]), Poly([Fraction(0), ZERO]), p - p, p * 0,
               Poly([ZERO]), x.derivative().derivative(),
               x * half - x * Fraction(2, 4)],
    }
    for want, got in routes.items():
        for r in got:
            assert r == want and hash(r) == hash(want), (r, want)
            assert r.coeffs == want.coeffs and _stored(r) == _stored(want)
    assert p.coeffs == (q(half), q(3), q(0, half))
    assert all(map(_normalised, p.coeffs)) and p.lc() == q(0, half)
    assert zero._rows == () and zero._den == 1
    assert zero.monic() is zero
    rng = random.Random(41)
    for _ in range(200):
        p, r = _rand_poly(rng, False), _rand_poly(rng, rng.random() < 0.5)
        for s in ((p + r) - r, Poly(p.coeffs), r + p - r, (p * r + p) - p * r):
            assert s == p and hash(s) == hash(p) and _stored(s) == _stored(p), (p, r)
        if p:
            # monic: the stored form of p / lc(p), whatever p's scale
            m = p.monic()
            assert m.lc() == ONE and m == Poly([c / p.lc() for c in p.coeffs])
            assert _stored(m) == _stored((p * ALPHA).monic()) == _stored(m.monic())


def test_poly_basics():
    x = Poly([0, 1])
    p = x ** 2 - 3 * x + 2
    assert p.degree() == 2
    assert p.evaluate(Fraction(1)) == 0
    assert p.evaluate(Fraction(2)) == 0
    assert p.evaluate(Fraction(0)) == 2
    assert p.derivative() == 2 * x - 3
    assert Poly([]).degree() == -1
    # trailing zeros are trimmed whatever field the zero lies in
    for zero in (0, Fraction(0), QuadElement(0)):
        assert Poly([1, 2, zero, zero]).coeffs == (1, 2)
        assert not Poly([zero])


def test_poly_monic():
    x = Poly([0, 1])
    p = 4 * x ** 2 - 2 * x
    assert p.monic() == x ** 2 - Fraction(1, 2) * x
    assert (ALPHA * x + 2).monic() == x - Fraction(2, 3) * ALPHA
    assert not Poly([]).monic()


def test_poly_repr():
    x = Poly([0, 1])
    p = x ** 3 + ALPHA * x - Fraction(1, 2)
    assert repr(p) == "Poly([-1/2,alpha,0,1])"
    assert repr(Poly([])) == "Poly([])"


def test_poly_pow_matches_repeated_products(monkeypatch):
    x = Poly([0, 1])
    for p in (x - ALPHA, ALPHA * x ** 2 - Fraction(1, 2) * x + 3, Poly([ALPHA])):
        want = Poly([1])
        for n in range(7):
            assert p ** n == want, (p, n)
            want = want * p
    assert (x - ALPHA) ** 0 == Poly([1])
    with pytest.raises(ValueError):
        x ** -1
    # square and multiply: two products for a cube, none by the constant 1
    made = []
    mul = Poly.__mul__

    def counting(self, other):
        made.extend([self, other])
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    _ = (x - ALPHA) ** 3
    assert len(made) == 2 * 2
    assert Poly([1]) not in made


def test_poly_quad_coefficients():
    x = Poly([0, 1])
    p = (x - ALPHA) * (x + ALPHA)
    assert p == x ** 2 + 3
    assert p.evaluate(ALPHA) == ZERO


def test_poly_bool_trims_zero_rows():
    assert not Poly([]) and not Poly([0, Fraction(0), ZERO]) and Poly([1])
    assert Poly([]).evaluate(ALPHA) == ZERO and type(Poly([]).evaluate(2)) is QuadElement


def test_poly_rejects_nested_coefficients():
    # a bivariate polynomial is a tuple of rows, not a Poly over Polys; the
    # constructor refuses it, as it refuses any non-field coefficient
    for bad in ([Poly([1]), Poly([0, ALPHA])], [1, Poly([0, 1])], [0.5, 1], ["1"]):
        with pytest.raises(TypeError, match="not a field scalar"):
            Poly(bad)
    with pytest.raises(TypeError):
        Poly([0, 1]).evaluate(Poly([0, 1]))
    assert Poly([1, Fraction(1, 2), ALPHA]).degree() == 2


def test_resultant_and_discriminant():
    x = Poly([0, 1])
    assert resultant(x ** 2 - 3, x ** 2 - 2) == 1
    assert resultant(x - 2, x ** 2 - 4) == 0
    # a common root in Q(alpha): the remainder sequence ends on zero
    assert resultant(x - ALPHA, x ** 2 + 3) == 0
    assert resultant(x - ALPHA, x ** 2 + 1) == -2
    d = discriminant(x ** 2 - 3 * x + 2)
    # exact, never a float: the powers of x have QuadElement coefficients
    assert d == 1 and type(d) is QuadElement
    assert discriminant(x ** 2 + x + 1) == -3
    # degree 1: res(p, p') = lc(p), so the discriminant is 1
    assert discriminant(3 * x + 5) == 1 and discriminant(ALPHA * x - 2) == 1
    assert discriminant((x - 1) * (x - 2) * (x - 3)) == 4
    assert discriminant((x - 1) ** 2) == 0
    assert discriminant(2 * x ** 2 + 3 * x + 1) == 1  # b^2 - 4ac
    with pytest.raises(ValueError):
        resultant(Poly([]), x)
    with pytest.raises(ValueError):
        resultant(x, Poly([]))
    with pytest.raises(ValueError):
        discriminant(Poly([ALPHA]))


def _det(matrix):
    """Reference: exact determinant by Gaussian elimination over a field."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    det = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        pv = m[col][col]
        det = det * pv
        for r in range(col + 1, n):
            f = m[r][col] / pv
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det * sign


def _sylvester_resultant(f, g):
    """Reference: the determinant of the Sylvester matrix of f and g."""
    m, n = f.degree(), g.degree()
    if m == 0:
        return f.lc() ** n
    if n == 0:
        return g.lc() ** m
    fc, gc = list(reversed(f.coeffs)), list(reversed(g.coeffs))
    rows = [[0] * i + fc + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + gc + [0] * (m - 1 - i) for i in range(m)]
    return _det(rows)


def _rand_quad_poly(rng, degree):
    """A Poly of exactly this degree with Q(alpha) coefficients, some zero."""
    cs = [QuadElement(_rand_fraction(rng), _rand_fraction(rng))
          if rng.random() < 0.8 else ZERO for _ in range(degree)]
    lead = ZERO
    while not lead:
        lead = QuadElement(_rand_fraction(rng), _rand_fraction(rng))
    return Poly(cs + [lead])


def test_resultant_matches_sylvester_reference():
    # every pair of degrees 0..5 either way round (m < n, constants), plain
    # and with a forced common root or factor; the result is a QuadElement
    rng = random.Random(53)
    x = Poly([0, 1])
    zeros = 0
    for m in range(6):
        for n in range(6):
            for k in range(12):
                p, r = _rand_quad_poly(rng, m), _rand_quad_poly(rng, n)
                if k % 3 == 1 and m and n:
                    root = QuadElement(_rand_fraction(rng), _rand_fraction(rng))
                    p = _rand_quad_poly(rng, m - 1) * (x - root)
                    r = _rand_quad_poly(rng, n - 1) * (x - root)
                elif k % 3 == 2 and min(m, n) >= 2:
                    common = _rand_quad_poly(rng, 2)
                    p = _rand_quad_poly(rng, m - 2) * common
                    r = _rand_quad_poly(rng, n - 2) * common
                got = resultant(p, r)
                assert got == _sylvester_resultant(p, r), (p, r)
                assert type(got) is QuadElement and _normalised(got)
                zeros += not got
    assert zeros > 100


def test_resultant_when_the_remainder_drops_degrees():
    # p = h q + r with deg r at most deg q - 2: the power of lc(q) takes up
    # the degrees the remainder skips
    rng = random.Random(59)
    x = Poly([0, 1])
    cases = [(x ** 4 + 1, x ** 3 - ALPHA), (ALPHA * x ** 5, 3 * x ** 2 + x ** 4),
             (x ** 3 + 2 * x, x ** 2 + 2)]
    for _ in range(60):
        n = rng.randint(2, 5)
        r = _rand_quad_poly(rng, n)
        rem = _rand_quad_poly(rng, rng.randint(0, n - 2))
        cases.append((_rand_quad_poly(rng, rng.randint(0, 3)) * r + rem, r))
    for p, r in cases:
        assert resultant(p, r) == _sylvester_resultant(p, r), (p, r)
    assert resultant(x ** 3 + 2 * x, x ** 2 + 2) == 0


def _long_division_rem(f, g):
    """Reference: f mod g by long division on the QuadElement coefficients."""
    r, gc, n = list(f.coeffs), g.coeffs, g.degree()
    lc = gc[n]
    while len(r) > n:
        # cancel the top term against x^shift g
        k = r.pop() / lc
        shift = len(r) - n
        for i in range(n):
            r[shift + i] -= k * gc[i]
    return Poly(r)


def test_rem_matches_long_division_reference(monkeypatch):
    # seeded pairs: f of any degree against g of degree 0..4, so constant g
    # and f of lower degree than g; f a multiple of g (zero remainder); and
    # f = h g + rem with deg rem at most deg g - 2 (the remainder drops degrees)
    rng = random.Random(67)
    x = Poly([0, 1])
    cases = [(x ** 4 + 1, x ** 3 - ALPHA), (x ** 3 + 2 * x, x ** 2 + 2),
             (Poly([]), x), (x ** 2, Poly([ALPHA]))]
    for k in range(300):
        g = _rand_quad_poly(rng, rng.randint(0, 4))
        h = _rand_quad_poly(rng, rng.randint(0, 3))
        if k % 3 == 0:
            f = _rand_quad_poly(rng, rng.randint(0, 6))
        elif k % 3 == 1:
            f = h * g
        else:
            f = h * g + _rand_quad_poly(rng, rng.randint(0, max(g.degree() - 2, 0)))
        cases.append((f, g))
    want = [_long_division_rem(f, g) for f, g in cases]
    assert sum(not g.degree() for _, g in cases) > 40
    assert sum(f.degree() < g.degree() for f, g in cases) > 20
    assert sum(not r for r in want) > 100
    assert sum(0 <= r.degree() < g.degree() - 1 for r, (_, g) in zip(want, cases)) > 40
    # the division runs on the stored pairs and builds no QuadElement
    made = []
    quad = exactalg._quad

    def counting(*abd):
        made.append(abd)
        return quad(*abd)

    monkeypatch.setattr(exactalg, "_quad", counting)
    got = [_rem(f, g) for f, g in cases]
    assert made == []
    for r, w, (f, g) in zip(got, want, cases):
        assert r == w, (f, g)


def test_resultant_identities():
    # res(f, g) = (-1)^(mn) res(g, f) and res(f g, h) = res(f, h) res(g, h)
    rng = random.Random(61)
    for _ in range(150):
        f, g, h = (_rand_quad_poly(rng, rng.randint(0, 4)) for _ in range(3))
        m, n = f.degree(), g.degree()
        assert resultant(f, g) == (-1) ** (m * n) * resultant(g, f), (f, g)
        assert resultant(f * g, h) == resultant(f, h) * resultant(g, h), (f, g, h)
    x = Poly([0, 1])
    # a constant operand: res(c, g) = c^n and res(f, c) = c^m
    assert resultant(Poly([ALPHA]), x ** 3 + 1) == ALPHA ** 3
    assert resultant(x ** 2 + x, Poly([2])) == 4
    assert resultant(Poly([5]), Poly([7])) == 1
