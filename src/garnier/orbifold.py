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
class RamificationProfile:
    """Branch data of a covering of the line: the degree d and one partition
    of d per marked base point, in order.

    free_points is the number N = 2d - 2 - branching of further simple
    branch points that a genus-0 cover needs; it is negative when the marked
    fibers already branch too much.
    """

    degree: int
    partitions: Tuple[Tuple[int, ...], ...]

    def __init__(self, degree: int, partitions):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        parts = tuple(tuple(sorted(lam, reverse=True)) for lam in partitions)
        for lam in parts:
            if not lam or lam[-1] < 1 or sum(lam) != degree:
                raise ValueError(f"{lam} is not a partition of {degree}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "partitions", parts)

    def branching(self) -> int:
        return sum(self.degree - len(lam) for lam in self.partitions)

    @property
    def free_points(self) -> int:
        return 2 * self.degree - 2 - self.branching()

    def with_free_points(self) -> "RamificationProfile":
        """The profile with its N free points appended as [2,1,...,1] fibers."""
        n_free = self.free_points
        if n_free < 0:
            raise ValueError(f"free branch point count {n_free} is negative")
        d = self.degree
        return RamificationProfile(d, self.partitions + ((2,) + (1,) * (d - 2),) * n_free)

    def __str__(self):
        return " ".join("[" + ",".join(str(k) for k in lam) + "]"
                        for lam in self.partitions)


def covering_genus(base_genus: int, cover: RamificationProfile) -> int:
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


def pullback(o: OrbifoldStructure, cover: RamificationProfile) -> OrbifoldStructure:
    """Pull the weighted structure back along the covering.

    Partition i lies over the i-th point of o.support (in its sorted order);
    any further partitions lie over weight-1 points.  Each point of local
    index k over a base point of weight p acquires weight p/k (inf stays
    inf), so the ramified preimages of a weight-1 point get weight 1/k.
    """
    extra = len(cover.partitions) - len(o.support)
    if extra < 0:
        raise ValueError("need a partition over every support point")
    g = covering_genus(o.genus, cover)
    weights = [w for _, w in o.support] + [Fraction(1)] * extra
    support = []
    for i, (w, parts) in enumerate(zip(weights, cover.partitions)):
        for j, k in enumerate(parts):
            support.append(((i, j), INF if w is INF else w / k))
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
