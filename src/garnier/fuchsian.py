"""Local exponent data of scalar Fuchsian equations and its interaction with
orbifold weights and ramified coverings.

An exponent here is the difference of the two local exponents at a singular
point: a `Fraction`, or `Theta(k)`, a positive multiple of the one generic
symbol theta (used for one-parameter families of equations).  A signature
holds one exponent per singular point, in order (any other value goes through
`Fraction`), and a covering's partitions pair with them by position, as they
do with an orbifold's weights.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

from .orbifold import (INF, CurvatureClass, OrbifoldStructure, RamificationProfile,
                       classify, underlying)


@dataclass(frozen=True)
class Theta:
    """k * theta for the generic exponent theta, k an int >= 1."""

    k: int = 1

    def __post_init__(self):
        if type(self.k) is not int or self.k < 1:
            raise ValueError(f"theta multiple must be an int >= 1, got {self.k!r}")

    def __rmul__(self, m: int) -> "Theta":
        return self if m == 1 else Theta(m * self.k)

    def __str__(self):
        return "theta" if self.k == 1 else f"{self.k}theta"


Exponent = Union[Fraction, Theta]


@dataclass(frozen=True)
class FuchsianSignature:
    genus: int
    exponents: Tuple[Exponent, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(
            e if type(e) in (Fraction, Theta) else Fraction(e) for e in self.exponents))


def hypergeometric_signature(e0, e1, einf) -> FuchsianSignature:
    """Genus-0 signature with singular points 0, 1, inf."""
    return FuchsianSignature(0, (e0, e1, einf))


def _weight_of(e: Exponent):
    # exponent difference zero without logarithm: still a weight-inf point,
    # the local monodromy cannot be of finite order independent of it
    return INF if type(e) is Theta or not e else 1 / abs(e)


def orbifold_of(sig: FuchsianSignature) -> OrbifoldStructure:
    """Weight 1/|theta| at rational nonzero theta, inf elsewhere.

    Integer theta gives weight 1/|theta| <= 1: such points are apparent and
    have weight 1 in the underlying structure, which weights() skips.
    """
    return OrbifoldStructure(sig.genus, map(_weight_of, sig.exponents))


@dataclass(frozen=True)
class PulledBackSignature:
    exponents: Tuple[Exponent, ...]
    apparent_count: int


def pullback_exponents(sig: FuchsianSignature,
                       profile: RamificationProfile) -> PulledBackSignature:
    """Exponent data of the pullback along a covering with the given local
    indices over each singular point (profile.partitions aligned with
    sig.exponents).

    A point of index k over exponent theta carries exponent k*theta; it is
    apparent exactly when that is a nonzero integer (weight 1/|k*theta| of
    numerator 1, see orbifold_of).  Apparent points are counted, not listed.
    """
    if len(profile.partitions) != len(sig.exponents):
        raise ValueError("need one partition per singular point")
    kept = []
    apparent = 0
    for base, parts in zip(sig.exponents, profile.partitions):
        for k in parts:
            e = k * base
            if type(e) is not Theta and e and e.denominator == 1:
                apparent += 1
            else:
                kept.append(e)
    return PulledBackSignature(tuple(kept), apparent)


def is_elementary(sig: FuchsianSignature) -> bool:
    """True when the equation has no transcendental hypergeometric content:
    the underlying integral structure (weight = denominator of theta, inf at
    theta = 0 and at generic points) fails to be hyperbolic."""
    if sig.genus != 0 or len(sig.exponents) != 3:
        raise ValueError("elementarity gate applies to three-point genus-0 data")
    return classify(underlying(orbifold_of(sig))) != CurvatureClass.HYPERBOLIC
