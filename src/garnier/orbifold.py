"""Orbifold structures on curves: rational weights, Euler characteristics,
pullback along coverings, underlying integral structures, uniformization type.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Tuple, Union


class _Infinity:
    """Weight value for logarithmic / irrational local data."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return not isinstance(other, _Infinity)

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __ge__(self, other):
        return True


INF = _Infinity()

Weight = Union[Fraction, _Infinity]


def make_weight(value) -> Weight:
    if value is INF:
        return INF
    w = Fraction(value)
    if w <= 0:
        raise ValueError(f"weight must be positive, got {w}")
    return w


def weight_reciprocal(w) -> Fraction:
    """1/w for a rational or integer weight, 0 for inf."""
    return Fraction(0) if w is INF else Fraction(1, w)


class CurvatureClass(Enum):
    SPHERICAL = "SPHERICAL"
    EUCLIDEAN = "EUCLIDEAN"
    HYPERBOLIC = "HYPERBOLIC"
    NOT_UNIFORMIZABLE = "NOT_UNIFORMIZABLE"


@dataclass(frozen=True)
class OrbifoldStructure:
    """Genus plus a finite support of weighted points.

    Points carry abstract hashable ids; weight-1 points are dropped at
    construction since they carry no data.
    """

    genus: int
    support: Tuple[Tuple[object, Weight], ...]

    def __init__(self, genus: int, support=()):
        if genus < 0:
            raise ValueError("genus must be >= 0")
        seen = set()
        kept = []
        for pt, w in support:
            if pt in seen:
                raise ValueError(f"duplicate support point {pt!r}")
            seen.add(pt)
            w = make_weight(w)
            if w == 1:
                continue
            kept.append((pt, w))
        kept.sort(key=lambda e: repr(e[0]))
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "support", tuple(kept))

    def weights(self) -> Tuple[Weight, ...]:
        return tuple(sorted(w for _, w in self.support))

    def weight_at(self, pt) -> Weight:
        for p, w in self.support:
            if p == pt:
                return w
        return Fraction(1)

    def n_points(self) -> int:
        return len(self.support)

    def is_integral(self) -> bool:
        return all(w is INF or w.denominator == 1 for _, w in self.support)


def euler_char(o: OrbifoldStructure) -> Fraction:
    """chi = 2 - 2g + sum over support of (1/p - 1); 1/inf = 0."""
    chi = Fraction(2 - 2 * o.genus)
    for _, w in o.support:
        chi += weight_reciprocal(w) - 1
    return chi


@dataclass(frozen=True)
class RamificationData:
    """Combinatorial covering: degree and one partition of d per base point.

    The base point set must contain the support of any structure being
    pulled back; extra points are free branch points of the covering.
    """

    degree: int
    fibers: Tuple[Tuple[object, Tuple[int, ...]], ...]

    def __init__(self, degree: int, fibers):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        seen = set()
        norm = []
        for pt, parts in fibers:
            if pt in seen:
                raise ValueError(f"duplicate base point {pt!r}")
            seen.add(pt)
            parts = tuple(sorted(parts, reverse=True))
            if not parts or any(k < 1 for k in parts):
                raise ValueError(f"invalid partition over {pt!r}: {parts}")
            if sum(parts) != degree:
                raise ValueError(f"partition over {pt!r} sums to {sum(parts)}, not {degree}")
            norm.append((pt, parts))
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "fibers", tuple(norm))

    def branching(self) -> int:
        return sum(self.degree - len(parts) for _, parts in self.fibers)


def covering_genus(base_genus: int, cover: RamificationData) -> int:
    """Upstairs genus from the degree/branching balance; must be an integer >= 0."""
    d = cover.degree
    b = cover.branching()
    num = 2 * (1 + d * (base_genus - 1)) + b
    if num % 2 != 0:
        raise ValueError("branching parity inconsistent with an actual covering")
    g = num // 2
    if g < 0:
        raise ValueError(f"derived upstairs genus {g} is negative")
    return g


def pullback(o: OrbifoldStructure, cover: RamificationData) -> OrbifoldStructure:
    """Pull the weighted structure back along the covering.

    Each point of local index k over a base point of weight p acquires
    weight p/k (inf stays inf).  Base points outside the support count as
    weight 1, so their ramified preimages get weight 1/k.
    """
    cover_pts = {pt for pt, _ in cover.fibers}
    for pt, _ in o.support:
        if pt not in cover_pts:
            raise ValueError(f"support point {pt!r} is not a base point of the cover")
    g = covering_genus(o.genus, cover)
    support = []
    for pt, parts in cover.fibers:
        w = o.weight_at(pt)
        for i, k in enumerate(parts):
            up = INF if w is INF else w / k
            support.append(((pt, i), up))
    return OrbifoldStructure(g, support)


def underlying(o: OrbifoldStructure) -> OrbifoldStructure:
    """Replace each weight n/q (lowest terms) by its numerator n; inf stays."""
    support = []
    for pt, w in o.support:
        support.append((pt, INF if w is INF else Fraction(w.numerator)))
    return OrbifoldStructure(o.genus, support)


def classify(o: OrbifoldStructure) -> CurvatureClass:
    """Uniformization type of an integral structure."""
    if not o.is_integral():
        raise ValueError("classification requires an integral structure")
    ws = o.weights()
    if o.genus == 0:
        if len(ws) == 1 and ws[0] is not INF:
            return CurvatureClass.NOT_UNIFORMIZABLE
        if len(ws) == 2 and ws[0] != ws[1]:
            return CurvatureClass.NOT_UNIFORMIZABLE
    chi = euler_char(o)
    if chi > 0:
        return CurvatureClass.SPHERICAL
    if chi == 0:
        return CurvatureClass.EUCLIDEAN
    return CurvatureClass.HYPERBOLIC


_MIN_NEG_CHI = {
    (0, 3): Fraction(1, 42),
    (0, 4): Fraction(1, 6),
    (0, 5): Fraction(1, 2),
    (0, 6): Fraction(1),
    (1, 1): Fraction(1, 2),
    (1, 2): Fraction(1),
    (2, 0): Fraction(2),
}


def min_neg_chi(genus: int, n: int) -> Fraction:
    """Smallest attainable -chi among hyperbolic integral structures with
    the given genus and number of weighted points."""
    try:
        return _MIN_NEG_CHI[(genus, n)]
    except KeyError:
        raise ValueError(f"no tabulated minimum for genus {genus} with {n} points")
