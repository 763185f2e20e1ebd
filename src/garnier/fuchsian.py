"""Local exponent data of scalar Fuchsian equations and its interaction with
orbifold weights and ramified coverings.

An exponent here is the difference of the two local exponents at a singular
point.  It is either an explicit rational or a formal positive multiple of a
generic symbol (used for one-parameter families of equations).  A signature
holds one exponent per singular point, in order, and a covering's partitions
pair with them by position, as they do with an orbifold's weights.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .orbifold import (INF, CurvatureClass, OrbifoldStructure, RamificationProfile,
                       classify, underlying)


@dataclass(frozen=True)
class Exponent:
    rational: Fraction = Fraction(0)
    coeff: Fraction = Fraction(0)
    label: Optional[str] = None

    def __post_init__(self):
        if type(self.rational) is not Fraction:
            object.__setattr__(self, "rational", Fraction(self.rational))
        if type(self.coeff) is not Fraction:
            object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.coeff != 0 and not self.label:
            raise ValueError("a generic exponent needs a symbol label")
        if self.coeff == 0 and self.label:
            object.__setattr__(self, "label", None)
        if self.coeff < 0:
            raise ValueError("generic coefficient must be >= 0")

    @classmethod
    def of(cls, value) -> "Exponent":
        return cls(Fraction(value))

    @classmethod
    def generic(cls, label: str = "theta", coeff=1) -> "Exponent":
        return cls(Fraction(0), Fraction(coeff), label)

    def is_rational(self) -> bool:
        return self.coeff == 0

    def scaled(self, k: int) -> "Exponent":
        if k == 1:
            return self
        return Exponent(k * self.rational, k * self.coeff, self.label)

    def __str__(self):
        if self.is_rational():
            return str(self.rational)
        gen = self.label if self.coeff == 1 else f"{self.coeff}{self.label}"
        if self.rational == 0:
            return gen
        return f"{self.rational}+{gen}"


@dataclass(frozen=True)
class FuchsianSignature:
    genus: int
    exponents: Tuple[Exponent, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(self.exponents))


def hypergeometric_signature(e0, e1, einf) -> FuchsianSignature:
    """Genus-0 signature with singular points 0, 1, inf."""
    mk = lambda e: e if isinstance(e, Exponent) else Exponent.of(e)
    return FuchsianSignature(0, (mk(e0), mk(e1), mk(einf)))


def _weight_of(e: Exponent):
    if not e.is_rational():
        return INF
    if e.rational == 0:
        # exponent difference zero without logarithm: still a weight-inf point,
        # the local monodromy cannot be of finite order independent of it
        return INF
    return 1 / abs(e.rational)


def orbifold_of(sig: FuchsianSignature) -> OrbifoldStructure:
    """Weight 1/|theta| at rational nonzero theta, inf elsewhere.

    Integer theta gives weight 1/|theta| <= 1: such points are apparent and
    vanish from the underlying structure.
    """
    return OrbifoldStructure(sig.genus, map(_weight_of, sig.exponents))


def underlying_orbifold_of(sig: FuchsianSignature) -> OrbifoldStructure:
    """Weight = denominator of theta in lowest terms, inf at generic points:
    the underlying structure of orbifold_of(sig)."""
    return underlying(orbifold_of(sig))


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
    apparent exactly when that is a positive integer.  Apparent points are
    counted, not listed.
    """
    if len(profile.partitions) != len(sig.exponents):
        raise ValueError("need one partition per singular point")
    kept = []
    apparent = 0
    for base, parts in zip(sig.exponents, profile.partitions):
        for k in parts:
            e = base.scaled(k)
            if e.is_rational() and e.rational.denominator == 1 and e.rational >= 1:
                apparent += 1
            else:
                kept.append(e)
    return PulledBackSignature(tuple(kept), apparent)


def is_elementary(sig: FuchsianSignature) -> bool:
    """True when the equation has no transcendental hypergeometric content:
    the underlying integral structure fails to be hyperbolic."""
    if sig.genus != 0 or len(sig.exponents) != 3:
        raise ValueError("elementarity gate applies to three-point genus-0 data")
    return classify(underlying_orbifold_of(sig)) != CurvatureClass.HYPERBOLIC
