from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from garnier.fuchsian import (
    FuchsianSignature,
    Theta,
    hypergeometric_signature,
    is_elementary,
    orbifold_of,
    pullback_exponents,
)
from garnier.orbifold import (INF, classify, CurvatureClass, OrbifoldStructure,
                              RamificationProfile, partitions_of, pullback, underlying)


def test_exponent_construction():
    # the one generic exponent: k * theta, k an int >= 1
    assert str(Theta()) == "theta" and str(Theta(3)) == "3theta"
    assert Theta(2) == Theta(2) and hash(Theta(2)) == hash(Theta(2))
    assert Theta(2) != Theta(3) and Theta(1) != Fraction(1)
    for bad in (0, -1, Fraction(2)):
        with pytest.raises(ValueError):
            Theta(bad)


def test_exponent_fields_are_fractions():
    # ints and strings go through Fraction; a Fraction or Theta is kept
    half, t = Fraction(1, 2), Theta(2)
    sig = FuchsianSignature(0, [1, "2/3", half, t])
    assert sig.exponents == (Fraction(1), Fraction(2, 3), half, t)
    assert [type(e) for e in sig.exponents] == [Fraction] * 3 + [Theta]
    assert sig.exponents[2] is half and sig.exponents[3] is t


def test_direct_signature_counts_integer_as_apparent():
    # built directly, an integer exponent counts as apparent, exactly as
    # through hypergeometric_signature
    profile = RamificationProfile(1, [(1,)] * 3)
    for sig in (FuchsianSignature(0, (1, Fraction(1, 3), Theta())),
                hypergeometric_signature(1, Fraction(1, 3), Theta())):
        out = pullback_exponents(sig, profile)
        assert out.apparent_count == 1
        assert tuple(str(e) for e in out.exponents) == ("1/3", "theta")


def test_exponent_scaled_by_one_is_itself():
    t = Theta()
    assert 1 * t is t
    assert 3 * t == Theta(3) and 2 * Theta(3) == Theta(6)


def test_orbifold_of_hypergeometric():
    sig = hypergeometric_signature(Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))
    o = orbifold_of(sig)
    assert o.weights() == (Fraction(2), Fraction(3), Fraction(7))
    assert classify(o) is CurvatureClass.HYPERBOLIC


def test_orbifold_of_special_points():
    # zero and generic exponents both give weight inf
    sig = FuchsianSignature(0, (0, Theta(), Fraction(-2, 5)))
    # one weight per exponent, in order; 1/|theta| at rational theta
    assert orbifold_of(sig).support == (INF, INF, Fraction(5, 2))


def test_underlying_orbifold_of():
    sig = hypergeometric_signature(Fraction(1, 2), Fraction(2, 7), Fraction(3, 7))
    u = underlying(orbifold_of(sig))
    assert u.weights() == (Fraction(2), Fraction(7), Fraction(7))
    sig = hypergeometric_signature(Fraction(1, 2), Fraction(1, 3), Theta())
    assert underlying(orbifold_of(sig)).weights() == (Fraction(2), Fraction(3), INF)
    # theta = 3 keeps weight 1/3 in orbifold_of but has weight 1 in the
    # underlying structure, whose weights are the denominators of theta
    sig = hypergeometric_signature(3, Fraction(-7, 3), Fraction(2, 5))
    assert orbifold_of(sig).weights() == (Fraction(1, 3), Fraction(3, 7), Fraction(5, 2))
    u = underlying(orbifold_of(sig))
    assert u.weights() == OrbifoldStructure(0, (3, 5)).weights()
    assert u.support == (1, 3, 5)


def test_integer_exponents_vanish_from_weights():
    sig = hypergeometric_signature(1, Fraction(1, 3), Fraction(1, 3))
    assert orbifold_of(sig).n_points() == 2


def test_pullback_exponents_degree_four():
    # indices (2,2 | 3,1 | 1,1,1,1) over (1/2, 1/3, theta)
    sig = hypergeometric_signature(Fraction(1, 2), Fraction(1, 3), Theta())
    out = pullback_exponents(sig, RamificationProfile(4, [(2, 2), (3, 1), (1, 1, 1, 1)]))
    assert out.apparent_count == 3
    assert tuple(str(e) for e in out.exponents) == ("1/3", "theta", "theta", "theta", "theta")


def test_pullback_exponents_degree_twelve():
    sig = hypergeometric_signature(Fraction(1, 2), Fraction(1, 3), Fraction(2, 7))
    out = pullback_exponents(sig, RamificationProfile(12, [(2,) * 6, (3,) * 4, (7, 1, 1, 1, 1, 1)]))
    assert out.apparent_count == 11
    assert tuple(str(e) for e in out.exponents) == ("2/7",) * 5


def test_pullback_exponents_negative_exponent():
    # index 2 over -1/2 gives exponent -1: apparent, as its weight 1/|-1| is
    sig = hypergeometric_signature(Fraction(-1, 2), Fraction(1, 3), Fraction(1, 7))
    out = pullback_exponents(sig, RamificationProfile(2, [(2,), (1, 1), (2,)]))
    assert out.apparent_count == 1
    assert tuple(str(e) for e in out.exponents) == ("1/3", "1/3", "2/7")


def test_weight_one_point_keeps_its_partition():
    # theta = 1 gives a weight-1 point that keeps its place: [3] lies over
    # 1/3 and [2,1] over 1/7 on the orbifold route, as on the exponent route
    sig = hypergeometric_signature(1, Fraction(1, 3), Fraction(1, 7))
    profile = RamificationProfile(3, [(1, 1, 1), (3,), (2, 1)])
    assert orbifold_of(sig).support == (1, 3, 7)
    up = underlying(pullback(orbifold_of(sig), profile.with_free_points()))
    out = pullback_exponents(sig, profile)
    assert up.n_points() == len(out.exponents) == 2
    assert out.apparent_count == 4


# signed exponents for the sweep below
_SIGNED = [Fraction(0)] + [s * Fraction(x) for x in ("1/2", "2/3", "3/7", "5/4", "2", "3",
                                                      "1/6", "1")
                           for s in (1, -1)]


def test_pullback_exponents_sign_and_orbifold_agree():
    # k*theta and k*(-theta) are both apparent or both essential, and the
    # essential count equals the orbifold route's: the underlying pullback
    # of orbifold_of(sig), free points included
    rng = random.Random(0)
    checked = 0
    for d in range(1, 6):
        for lams in product(partitions_of(d), repeat=3):
            profile = RamificationProfile(d, lams)
            if profile.free_points < 0:
                continue
            for _ in range(8):
                exps = [rng.choice(_SIGNED) for _ in range(3)]
                sig = hypergeometric_signature(*exps)
                out = pullback_exponents(sig, profile)
                flipped = pullback_exponents(
                    hypergeometric_signature(*(abs(e) for e in exps)), profile)
                up = underlying(pullback(orbifold_of(sig), profile.with_free_points()))
                counts = (len(out.exponents), out.apparent_count)
                assert counts == (len(flipped.exponents), flipped.apparent_count), (exps, lams)
                assert len(out.exponents) == up.n_points(), (exps, lams)
                checked += 1
    assert checked == 3336


def test_pullback_exponents_validation():
    sig = hypergeometric_signature(1, 1, 1)
    with pytest.raises(ValueError):
        pullback_exponents(sig, RamificationProfile(2, [(2,), (2,)]))
    # unequal sizes and non-positive local indices are not a profile at all
    with pytest.raises(ValueError):
        pullback_exponents(sig, RamificationProfile(2, [(2,), (2,), (3,)]))
    with pytest.raises(ValueError):
        pullback_exponents(sig, RamificationProfile(2, [(2,), (2,), (2, 0)]))


# 0, theta and every n/p with p <= 8 and |n| <= p + 1
_GRID = sorted({Fraction(n, p) for p in range(1, 9) for n in range(-p - 1, p + 2)}) + [Theta()]


def test_is_elementary_matches_the_underlying_orbifold():
    # the denominators against the orbifold route: the weights 1/|theta| of
    # orbifold_of, reduced to their numerators by underlying
    rng = random.Random(31)
    seen = set()
    for _ in range(4000):
        exps = [rng.choice(_GRID) for _ in range(3)]
        sig = hypergeometric_signature(*exps)
        ref = classify(underlying(orbifold_of(sig)))
        assert is_elementary(sig) == (ref != CurvatureClass.HYPERBOLIC), exps
        seen.add(ref)
    assert len(_GRID) == 62 and seen == set(CurvatureClass)


def test_pullback_exponents_builds_only_kept_multiples(monkeypatch):
    # an apparent point or one of index 1 builds no Fraction, and index 1
    # keeps the base exponent itself; a kept point of index k > 1 builds one
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    sig = hypergeometric_signature(Fraction(1, 2), Fraction(-1, 3), Fraction(2, 7))
    zero = hypergeometric_signature(Fraction(1, 2), 0, Theta())
    monkeypatch.setattr(Fraction, "__new__", counting)
    out = pullback_exponents(sig, RamificationProfile(7, [(2, 2, 2, 1), (3, 3, 1), (7,)]))
    assert built == []
    kept = pullback_exponents(sig, RamificationProfile(7, [(2, 2, 2, 1), (3, 3, 1),
                                                           (2, 1, 1, 1, 1, 1)]))
    assert len(built) == 1
    built.clear()
    generic = pullback_exponents(zero, RamificationProfile(3, [(2, 1), (2, 1), (3,)]))
    assert len(built) == 1
    monkeypatch.undo()
    assert out.apparent_count == 6
    assert out.exponents[0] is sig.exponents[0] and out.exponents[1] is sig.exponents[1]
    assert kept.exponents[2:] == (Fraction(4, 7),) + (Fraction(2, 7),) * 5
    # index 2 over exponent 0 keeps 0, built; index 1 keeps the base 0 itself
    assert generic.exponents == (Fraction(1, 2), Fraction(0), Fraction(0), Theta(3))
    assert generic.exponents[2] is zero.exponents[1]
    assert generic.apparent_count == 1


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
        Fraction(1, 2), Fraction(1, 3), Theta())) is False
    with pytest.raises(ValueError):
        is_elementary(FuchsianSignature(1, (1,)))
