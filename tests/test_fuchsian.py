from __future__ import annotations

from fractions import Fraction

import pytest

from garnier.fuchsian import (
    Exponent,
    FuchsianSignature,
    hypergeometric_signature,
    is_elementary,
    orbifold_of,
    pullback_exponents,
    underlying_orbifold_of,
)
from garnier.orbifold import (INF, classify, CurvatureClass, OrbifoldStructure,
                              RamificationProfile)


def test_exponent_construction():
    assert Exponent.of(Fraction(1, 2)).rational == Fraction(1, 2)
    th = Exponent.generic()
    assert not th.is_rational()
    assert str(th) == "theta"
    assert str(th.scaled(3)) == "3theta"
    assert str(Exponent.of(Fraction(1, 2))) == "1/2"
    assert str(Exponent(Fraction(1, 2), Fraction(2), "theta")) == "1/2+2theta"
    with pytest.raises(ValueError):
        Exponent(Fraction(0), Fraction(1), None)  # generic part needs a label
    with pytest.raises(ValueError):
        Exponent(Fraction(0), Fraction(-1), "theta")


def test_exponent_fields_are_fractions():
    # ints and strings are wrapped; a Fraction is kept as it is
    for value, want in ((1, Fraction(1)), ("1/2", Fraction(1, 2)),
                        (Fraction(2, 4), Fraction(1, 2))):
        e = Exponent(value)
        assert type(e.rational) is Fraction and e.rational == want
        assert type(e.coeff) is Fraction and e.coeff == 0
    g = Exponent(0, 2, "theta")
    assert type(g.rational) is Fraction and type(g.coeff) is Fraction


def test_exponent_scaled_by_one_is_itself():
    for e in (Exponent(Fraction(1, 3)), Exponent.generic(), Exponent(1, 2, "t")):
        assert e.scaled(1) is e
        assert e.scaled(1) == Exponent(e.rational, e.coeff, e.label)
    assert Exponent.generic().scaled(2) == Exponent(0, 2, "theta")


def test_orbifold_of_hypergeometric():
    sig = hypergeometric_signature(Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))
    o = orbifold_of(sig)
    assert o.weights() == (Fraction(2), Fraction(3), Fraction(7))
    assert classify(o) is CurvatureClass.HYPERBOLIC


def test_orbifold_of_special_points():
    # zero and generic exponents both give weight inf
    sig = FuchsianSignature(0, (Exponent.of(0), Exponent.generic(),
                                Exponent.of(Fraction(-2, 5))))
    # one weight per exponent, in order; 1/|theta| at rational theta
    assert orbifold_of(sig).support == (INF, INF, Fraction(5, 2))


def test_underlying_orbifold_of():
    sig = hypergeometric_signature(Fraction(1, 2), Fraction(2, 7), Fraction(3, 7))
    u = underlying_orbifold_of(sig)
    assert u.weights() == (Fraction(2), Fraction(7), Fraction(7))
    sig = hypergeometric_signature(Fraction(1, 2), Fraction(1, 3), Exponent.generic())
    assert underlying_orbifold_of(sig).weights() == (Fraction(2), Fraction(3), INF)
    # theta = 3 keeps weight 1/3 in orbifold_of but drops from the underlying
    # structure, whose weights are the denominators of theta
    sig = hypergeometric_signature(3, Fraction(-7, 3), Fraction(2, 5))
    assert orbifold_of(sig).weights() == (Fraction(1, 3), Fraction(3, 7), Fraction(5, 2))
    assert underlying_orbifold_of(sig) == OrbifoldStructure(0, (3, 5))


def test_integer_exponents_vanish_from_weights():
    sig = hypergeometric_signature(1, Fraction(1, 3), Fraction(1, 3))
    assert orbifold_of(sig).n_points() == 2


def test_pullback_exponents_degree_four():
    # indices (2,2 | 3,1 | 1,1,1,1) over (1/2, 1/3, theta)
    sig = hypergeometric_signature(Fraction(1, 2), Fraction(1, 3), Exponent.generic())
    out = pullback_exponents(sig, RamificationProfile(4, [(2, 2), (3, 1), (1, 1, 1, 1)]))
    assert out.apparent_count == 3
    assert tuple(str(e) for e in out.exponents) == ("1/3", "theta", "theta", "theta", "theta")


def test_pullback_exponents_degree_twelve():
    sig = hypergeometric_signature(Fraction(1, 2), Fraction(1, 3), Fraction(2, 7))
    out = pullback_exponents(sig, RamificationProfile(12, [(2,) * 6, (3,) * 4, (7, 1, 1, 1, 1, 1)]))
    assert out.apparent_count == 11
    assert tuple(str(e) for e in out.exponents) == ("2/7",) * 5


def test_pullback_exponents_validation():
    sig = hypergeometric_signature(1, 1, 1)
    with pytest.raises(ValueError):
        pullback_exponents(sig, RamificationProfile(2, [(2,), (2,)]))
    # unequal sizes and non-positive local indices are not a profile at all
    with pytest.raises(ValueError):
        pullback_exponents(sig, RamificationProfile(2, [(2,), (2,), (3,)]))
    with pytest.raises(ValueError):
        pullback_exponents(sig, RamificationProfile(2, [(2,), (2,), (2, 0)]))


def test_is_elementary():
    assert not is_elementary(hypergeometric_signature(
        Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)))
    # spherical underlying structure
    assert is_elementary(hypergeometric_signature(
        Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)))
    # euclidean underlying structure
    assert is_elementary(hypergeometric_signature(
        Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    # denominators (3,5,2): icosahedral, spherical underlying structure
    assert is_elementary(hypergeometric_signature(
        Fraction(1, 3), Fraction(2, 5), Fraction(1, 2))) is True
    # two halves (dihedral monodromy, also spherical underlying)
    assert is_elementary(hypergeometric_signature(
        Fraction(1, 2), Fraction(1, 2), Fraction(1, 7))) is True
    assert is_elementary(hypergeometric_signature(
        Fraction(1, 2), Fraction(1, 2), Fraction(3, 11))) is True
    # denominators (3,3,3): euclidean underlying structure
    assert is_elementary(hypergeometric_signature(
        Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))) is True
    # 4/3 reduces to the same class as 1/3: the denominators are unchanged
    assert is_elementary(hypergeometric_signature(
        Fraction(4, 3), Fraction(4, 3), Fraction(4, 3))) is True
    # a generic exponent is weight inf: (2,3,inf) is hyperbolic
    assert is_elementary(hypergeometric_signature(
        Fraction(1, 2), Fraction(1, 3), Exponent.generic())) is False
    with pytest.raises(ValueError):
        is_elementary(FuchsianSignature(1, (Exponent.of(1),)))
