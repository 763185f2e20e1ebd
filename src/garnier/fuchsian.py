"""Local exponent data of scalar Fuchsian equations and its interaction with
orbifold weights and ramified coverings.

An exponent here is the difference of the two local exponents at a singular
point: a `Fraction`, or `Theta(k)`, a positive multiple of the one generic
symbol theta (used for one-parameter families of equations).  A signature
holds one exponent per singular point, in order (any other value goes through
`Fraction`), and a covering's partitions pair with them by position, as they
do with an orbifold's weights.

A point of local index k over exponent n/q is apparent exactly when q divides
k, and elementarity reads the denominators q alone: both run on integers, and
a Fraction is built only for a pulled-back exponent that is kept.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Tuple, Union

from .frozen import Frozen
from .orbifold import (INF, CurvatureClass, OrbifoldStructure,
                       RamificationProfile, classify)


class Theta(Frozen):
    """k * theta for the generic exponent theta, k an int >= 1."""

    __slots__ = _fields = ("k",)
    k: int

    def __init__(self, k: int = 1):
        if type(k) is not int or k < 1:
            raise ValueError(f"theta multiple must be an int >= 1, got {k!r}")
        super().__init__(k)

    def __rmul__(self, m: int) -> "Theta":
        return self if m == 1 else Theta(m * self.k)

    def __str__(self):
        return "theta" if self.k == 1 else f"{self.k}theta"


Exponent = Union[Fraction, Theta]


class FuchsianSignature(Frozen):
    __slots__ = _fields = ("genus", "exponents")
    genus: int
    exponents: Tuple[Exponent, ...]

    def __init__(self, genus: int, exponents):
        super().__init__(genus, tuple(
            e if type(e) in (Fraction, Theta) else Fraction(e) for e in exponents))


def hypergeometric_signature(e0, e1, einf) -> FuchsianSignature:
    """Genus-0 signature with singular points 0, 1, inf."""
    return FuchsianSignature(0, (e0, e1, einf))


def _weight_of(e: Exponent):
    # exponent difference zero without logarithm: still a weight-inf point,
    # the local monodromy cannot be of finite order independent of it
    return INF if type(e) is Theta or not e else 1 / abs(e)


def _denominator(e: Exponent) -> int:
    """The denominator q of a rational nonzero exponent n/q; 0 at theta and 0."""
    return 0 if type(e) is Theta or not e else e.denominator


def orbifold_of(sig: FuchsianSignature) -> OrbifoldStructure:
    """Weight 1/|theta| at rational nonzero theta, inf elsewhere.

    Integer theta gives weight 1/|theta| <= 1: such points are apparent and
    have weight 1 in the underlying structure, which weights() skips.
    """
    return OrbifoldStructure(sig.genus, map(_weight_of, sig.exponents))


class PulledBackSignature(NamedTuple):
    exponents: Tuple[Exponent, ...]
    apparent_count: int


def pullback_exponents(sig: FuchsianSignature,
                       profile: RamificationProfile) -> PulledBackSignature:
    """Exponent data of the pullback along a covering with the given local
    indices over each singular point (profile.partitions aligned with
    sig.exponents).

    A point of index k over exponent theta carries exponent k*theta; it is
    apparent exactly when that is a nonzero integer (weight 1/|k*theta| of
    numerator 1, see orbifold_of), i.e. when the denominator of theta divides
    k.  Apparent points are counted, not listed.
    """
    if len(profile.partitions) != len(sig.exponents):
        raise ValueError("need one partition per singular point")
    kept = []
    apparent = 0
    for base, parts in zip(sig.exponents, profile.partitions):
        q = _denominator(base)
        for k in parts:
            if q and k % q == 0:
                apparent += 1
            else:
                kept.append(base if k == 1 else k * base)
    return PulledBackSignature(tuple(kept), apparent)


def is_elementary(sig: FuchsianSignature) -> bool:
    """True when the equation has no transcendental hypergeometric content:
    the integral structure weighted by the exponents' denominators (inf at
    theta = 0 and at generic points), underlying(orbifold_of(sig)), is not hyperbolic."""
    if sig.genus != 0 or len(sig.exponents) != 3:
        raise ValueError("elementarity gate applies to three-point genus-0 data")
    weights = [_denominator(e) or INF for e in sig.exponents]
    return classify(OrbifoldStructure(0, weights)) != CurvatureClass.HYPERBOLIC
