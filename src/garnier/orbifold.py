"""Orbifold structures on curves: rational weights, Euler characteristics,
pullback along coverings, underlying integral structures, uniformization type.

A marked point is its weight: a structure holds all its weights, weight 1
included, in the order given; a covering's partitions pair with them by position.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .frozen import Frozen


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


INF = _Infinity()

Weight = Union[Fraction, _Infinity]


def make_weight(value) -> Weight:
    if value is INF:
        return INF
    w = value if type(value) is Fraction else Fraction(value)
    if w <= 0:
        raise ValueError(f"weight must be positive, got {w}")
    return w


class CurvatureClass(Enum):
    SPHERICAL = "SPHERICAL"
    EUCLIDEAN = "EUCLIDEAN"
    HYPERBOLIC = "HYPERBOLIC"
    NOT_UNIFORMIZABLE = "NOT_UNIFORMIZABLE"


class OrbifoldStructure(Frozen):
    """Genus plus the weights of its marked points, all kept in the order
    given; weights() and n_points() skip weight-1 points, which carry no data."""

    __slots__ = _fields = ("genus", "support")
    genus: int
    support: Tuple[Weight, ...]

    def __init__(self, genus: int, support=()):
        if genus < 0:
            raise ValueError("genus must be >= 0")
        super().__init__(genus, tuple(map(make_weight, support)))

    def weights(self) -> Tuple[Weight, ...]:
        return tuple(sorted(w for w in self.support if w != 1))

    def n_points(self) -> int:
        return len(self.weights())

    def is_integral(self) -> bool:
        return all(w is INF or w.denominator == 1 for w in self.support)


def euler_char(o: OrbifoldStructure) -> Fraction:
    """chi = 2 - 2g + sum over support of (1/w - 1); 1/inf = 0.  Summed as
    num/den in integers (a weight a/b adds (b - a)/a) into one Fraction."""
    num, den = 2 - 2 * o.genus, 1
    for w in o.support:
        if w is INF:
            num -= den
        else:
            a, b = w.numerator, w.denominator
            num, den = num * a + (b - a) * den, den * a
    return Fraction(num, den)


class RamificationProfile(Frozen):
    """Branch data of a covering of the line: the degree d and one partition
    of d per marked base point, in order.

    free_points is the number N = 2d - 2 - branching of further simple
    branch points that a genus-0 cover needs; it is negative when the marked
    fibers already branch too much.
    """

    __slots__ = _fields = ("degree", "partitions")
    degree: int
    partitions: Tuple[Tuple[int, ...], ...]

    def __init__(self, degree: int, partitions):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        parts = tuple(tuple(sorted(lam, reverse=True)) for lam in partitions)
        for lam in parts:
            if not lam or lam[-1] < 1 or sum(lam) != degree:
                raise ValueError(f"{lam} is not a partition of {degree}")
        super().__init__(degree, parts)

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


def partitions_of(r: int, max_part: Optional[int] = None,
                  budget: Optional[int] = None) -> List[Tuple[int, ...]]:
    """Partitions of r into parts <= max_part (default r) whose branching
    sum(part - 1) is at most budget (default unbounded), in descending-lex
    order; the partition of 0 is ().  Parts that would break either bound
    are never built."""
    if max_part is None:
        max_part = r
    if budget is None:
        budget = r
    if r == 0:
        return [()]
    top = min(r, max_part, budget + 1)
    out = [(first,) + rest for first in range(top, 1, -1)
           for rest in partitions_of(r - first, first, budget - first + 1)]
    return out + [(1,) * r] if top >= 1 else out


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

    Partition i lies over the i-th weight of o.support; any further
    partitions lie over weight-1 points.  Each point of local index k over
    a base point of weight p acquires weight p/k (inf stays inf), so the
    ramified preimages of a weight-1 point get weight 1/k.
    """
    extra = len(cover.partitions) - len(o.support)
    if extra < 0:
        raise ValueError("need a partition over every support point")
    g = covering_genus(o.genus, cover)
    support = []
    for w, parts in zip(o.support + (Fraction(1),) * extra, cover.partitions):
        support += [w if w is INF or k == 1 else w / k for k in parts]
    return OrbifoldStructure(g, support)


def underlying(o: OrbifoldStructure) -> OrbifoldStructure:
    """Replace each weight n/q (lowest terms) by its numerator n; inf stays."""
    return OrbifoldStructure(o.genus, (INF if w is INF else Fraction(w.numerator)
                                       for w in o.support))


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
