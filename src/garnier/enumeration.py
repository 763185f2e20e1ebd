"""Enumeration of branch data for coverings of the three-punctured line that
pull a hypergeometric equation back to an equation with few essential
singular points, together with the completeness bookkeeping (number of free
branch points vs. dimension of the deformation space) and the reproduction
of the classification tables.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .fuchsian import Exponent, hypergeometric_signature, is_elementary, pullback_exponents
from .orbifold import (INF, OrbifoldStructure, RamificationProfile, pullback,
                       underlying, weight_reciprocal)

DEFAULT_DMAX = 42


def _neg_chi(weights: Sequence[object]) -> Tuple[int, int]:
    """-chi = 1 - sum of 1/p over the weights as num/den with integers:
    den is the product of the finite weights, num = den - sum of den/p, and
    1/inf reads as 0."""
    den = 1
    for p in weights:
        if p is not INF:
            den *= p
    return den - sum(den // p for p in weights if p is not INF), den


@dataclass(frozen=True)
class TripleSpec:
    """Weights (p0 <= p1 <= pinf) of a hyperbolic genus-0 triple; entries are
    integers >= 2 or inf."""

    entries: Tuple[object, object, object]

    def __init__(self, p0, p1, pinf):
        for p in (p0, p1, pinf):
            if p is not INF and (not isinstance(p, int) or p < 2):
                raise ValueError(f"weight must be an integer >= 2 or inf, got {p!r}")
        es = sorted((p0, p1, pinf))
        if _neg_chi(es)[0] <= 0:
            raise ValueError(f"triple {es} is not hyperbolic")
        object.__setattr__(self, "entries", tuple(es))

    @property
    def p0(self):
        return self.entries[0]

    @property
    def p1(self):
        return self.entries[1]

    @property
    def pinf(self):
        return self.entries[2]

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.entries) + ")"


def floor_identity_holds(t: TripleSpec, d: int) -> bool:
    """d - sum of floor(d/p) = 1; floor(d/inf) = 0."""
    s = sum(0 if p is INF else d // p for p in t.entries)
    return d - s == 1


def chi_inequality_holds(t: TripleSpec, d: int, n: int) -> bool:
    """d * (-chi of the triple) <= 1 - n/pinf, reading n/inf as 0."""
    num, den = _neg_chi(t.entries)
    if t.pinf is INF:
        return d * num <= den
    return d * num * t.pinf <= den * (t.pinf - n)


@lru_cache(maxsize=None)
def _candidate_pairs(d_max: int) -> Tuple[Tuple[TripleSpec, int], ...]:
    """The sorted n-independent candidates: canonical hyperbolic (triple, d)
    with the floor identity and d * (-chi) <= 1, which the chi inequality
    implies for every n >= 0.

    -chi = 1 - 1/p0 - 1/p1 - 1/pinf grows along each entry, so each loop
    stops at the first entry whose least possible -chi exceeds 1/d.  The
    bounds are cross-multiplied into integers: 1 - 3/p0 > 1/d reads
    d(p0 - 3) > p0, and 1 - 1/p0 - 2/p1 > 1/d reads
    d(p0 p1 - p1 - 2 p0) > p0 p1, or d(p0 - 1) > p0 at p1 = inf.  An inf
    p0 always stops the sweep, since -chi = 1 > 1/d there.
    """
    out = []
    for d in range(2, d_max + 1):
        pool = list(range(2, d + 1)) + [INF]
        for i, p0 in enumerate(pool):
            if p0 is INF or d * (p0 - 3) > p0:
                break
            for j, p1 in enumerate(pool[i:], i):
                if p1 is INF:
                    if d * (p0 - 1) > p0:
                        break
                elif d * (p0 * p1 - p1 - 2 * p0) > p0 * p1:
                    break
                floors = d - d // p0 - (0 if p1 is INF else d // p1)
                for pinf in pool[j:]:
                    num, den = _neg_chi((p0, p1, pinf))
                    if d * num > den:
                        break
                    if num <= 0 or floors - (0 if pinf is INF else d // pinf) != 1:
                        continue
                    out.append((TripleSpec(p0, p1, pinf), d))
    out.sort(key=lambda e: (e[0].entries, e[1]))
    return tuple(out)


def enumerate_candidates(n: int, d_max: int = DEFAULT_DMAX) -> List[Tuple[TripleSpec, int]]:
    """All canonical (triple, degree) pairs passing the two necessary
    conditions for an n-point pullback.

    Canonical means every finite entry is <= d: a branch point of weight
    p > d has no index-p preimage, so it acts exactly like weight inf and
    the triple is rewritten with inf there.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return [(t, d) for t, d in _candidate_pairs(d_max) if chi_inequality_holds(t, d, n)]


def partitions_of(r: int, max_part: Optional[int] = None) -> List[Tuple[int, ...]]:
    """Partitions of r in descending-lex order; partition of 0 is ()."""
    if max_part is None:
        max_part = r
    if r == 0:
        return [()]
    out = []
    for first in range(min(r, max_part), 0, -1):
        for rest in partitions_of(r - first, first):
            out.append((first,) + rest)
    return out


@lru_cache(maxsize=None)
def _fiber_options(p, d: int):
    """(partition, nonapparent count) choices over one marked point.

    Finite weight p forces floor(d/p) index-p parts (these become apparent
    upstairs); the remainder r = d mod p splits arbitrarily, every such part
    being essential.  Weight inf allows any partition, all parts essential.
    """
    if p is INF:
        return tuple((lam, len(lam)) for lam in partitions_of(d))
    q, r = divmod(d, p)
    forced = (p,) * q
    return tuple((tuple(sorted(forced + lam, reverse=True)), len(lam))
                 for lam in partitions_of(r))


def enumerate_profiles(weights: Sequence[object], d: int,
                       n: Optional[int] = None) -> List[Tuple[RamificationProfile, int]]:
    """All realizable-by-count profiles over the given marked weights, with
    the essential-point total; optionally filtered to a fixed total."""
    options = [_fiber_options(p, d) for p in weights]
    out = []
    for combo in product(*options):
        n_total = sum(c[1] for c in combo)
        if n is not None and n_total != n:
            continue
        profile = RamificationProfile(d, (c[0] for c in combo))
        if profile.free_points < 0:
            continue
        out.append((profile, n_total))
    out.sort(key=lambda e: e[0].partitions)
    return out


class VerdictKind(Enum):
    COMPLETE = "COMPLETE"
    PARTIAL = "PARTIAL"
    DEGENERATE_HYPERGEOMETRIC = "DEGENERATE_HYPERGEOMETRIC"
    IMPOSSIBLE = "IMPOSSIBLE"


@dataclass(frozen=True)
class CandidateVerdict:
    kind: VerdictKind
    deficit: Optional[int] = None

    def __str__(self):
        if self.kind is VerdictKind.PARTIAL:
            return f"PARTIAL(deficit={self.deficit})"
        return self.kind.value


def verdict(profile: RamificationProfile, n: int) -> CandidateVerdict:
    """Completeness of an n-essential-point profile: the deformation space
    has dimension n-3 and the free branch points supply N parameters."""
    if n <= 2:
        return CandidateVerdict(VerdictKind.IMPOSSIBLE)
    if n == 3:
        return CandidateVerdict(VerdictKind.DEGENERATE_HYPERGEOMETRIC)
    deficit = (n - 3) - profile.free_points
    if deficit <= 0:
        return CandidateVerdict(VerdictKind.COMPLETE)
    return CandidateVerdict(VerdictKind.PARTIAL, deficit=deficit)


def complete_profiles(n: int, d_max: int = DEFAULT_DMAX
                      ) -> List[Tuple[TripleSpec, int, RamificationProfile]]:
    out = []
    for t, d in enumerate_candidates(n, d_max):
        for profile, n_total in enumerate_profiles(t.entries, d, n):
            if verdict(profile, n_total).kind is VerdictKind.COMPLETE:
                out.append((t, d, profile))
    return out


@dataclass(frozen=True)
class IntermediateRow:
    """Upper-bound row for one candidate: the profile of maximal free count,
    which may be infeasible (N = -1), with its status toward a target
    essential-point total."""

    triple: TripleSpec
    degree: int
    profile: RamificationProfile
    n_points: int
    status: str


def _max_free_row(t: TripleSpec, d: int, n_target: int) -> IntermediateRow:
    lams = []
    n_points = 0
    for p in t.entries:
        if p is INF:
            lams.append((1,) * d)
            n_points += d
        else:
            q, r = divmod(d, p)
            lams.append((p,) * q + (1,) * r)
            n_points += r
    profile = RamificationProfile(d, lams)
    # a row with at most three essential points is degenerate on its own;
    # otherwise its free count is measured against the target
    status = verdict(profile, n_points if n_points <= 3 else n_target)
    return IntermediateRow(t, d, profile, n_points, str(status))


def intermediate_rows(n_target: int = 5, d_max: int = DEFAULT_DMAX,
                      infinite: Optional[bool] = None) -> List[IntermediateRow]:
    """One max-free-count row per candidate; infinite=True keeps triples
    containing inf, False keeps all-finite triples, None keeps both."""
    rows = []
    for t, d in enumerate_candidates(n_target, d_max):
        has_inf = INF in t.entries
        if infinite is not None and has_inf != infinite:
            continue
        rows.append(_max_free_row(t, d, n_target))
    return rows


def _base_signature(t: TripleSpec, numerator: int = 1):
    """Hypergeometric data with exponent 1/p at finite-weight points and a
    generic symbol at weight inf; at a finite third point the exponent is
    numerator/pinf."""
    es = []
    for i, p in enumerate(t.entries):
        if p is INF:
            es.append(Exponent.generic("theta"))
        elif i == 2:
            es.append(Exponent.of(Fraction(numerator, p)))
        else:
            es.append(Exponent.of(Fraction(1, p)))
    return hypergeometric_signature(*es)


def _exponent_numerators(q: int) -> List[int]:
    """Representatives k with k/q in lowest terms, normalized into (0, 1/2]."""
    return [k for k in range(1, q // 2 + 1) if gcd(k, q) == 1]


@dataclass(frozen=True)
class PullbackFamilyRow:
    """One degree in the classification of complete or partial pullback
    families: base data, branch profile, resulting exponent lists."""

    triple: TripleSpec
    degree: int
    profile: RamificationProfile
    variants: Tuple[Tuple[Tuple[Exponent, ...], Tuple[Exponent, ...], int], ...]
    n_points: int
    verdict: CandidateVerdict


# Profiles defining the two partial rows of the five-point family table.
# They relax the forced-part rule over one finite fiber (keeping fewer
# apparent points than the maximum), so they are inputs here, not outputs
# of enumerate_profiles; everything about them is still recomputed.
_T2_EXTRA = (
    (3, ((2, 1), (1, 1, 1), (3,)), INF),
    (9, ((2, 2, 2, 2, 1), (3, 3, 1, 1, 1), (8, 1)), 8),
)


def _family_rows(n: int, d_max: int = DEFAULT_DMAX,
                 extra=()) -> List[PullbackFamilyRow]:
    """n-point pullback families with exponent data: the complete profiles
    from the enumeration plus the extra (d, partitions, pinf) profiles over
    (2,3,pinf), in degree order.  Over a finite pinf every reduced exponent
    numerator gives a variant; elementary variants are dropped."""
    items = []
    for t, d, profile in complete_profiles(n, d_max):
        items.append((d, t, profile))
    for d, lams, pinf in extra:
        t = TripleSpec(2, 3, pinf)
        items.append((d, t, RamificationProfile(d, lams)))
    items.sort(key=lambda e: (e[0], e[1].entries))
    rows = []
    for d, t, profile in items:
        if t.pinf is INF:
            numerators = [1]
        else:
            numerators = _exponent_numerators(t.pinf)
        variants = []
        for k in numerators:
            sig = _base_signature(t, k)
            if is_elementary(sig):
                continue
            pulled = pullback_exponents(sig, profile)
            base = tuple(p.exponent for p in sig.points)
            variants.append((base, pulled.exponents, pulled.apparent_count))
        # essential points: the weights other than 1 upstairs, free points
        # included, by the refined Riemann-Hurwitz pullback
        base = OrbifoldStructure(0, enumerate(t.entries))
        n_pts = underlying(pullback(base, profile.with_free_points())).n_points()
        rows.append(PullbackFamilyRow(t, d, profile, tuple(variants), n_pts,
                                      verdict(profile, n_pts)))
    return rows


@dataclass(frozen=True)
class FamilyRow:
    """A one-parameter family of candidate triples (finite entries fixed,
    last entry a free symbol p) with the degrees passing both filters."""

    prefix: Tuple[int, ...]
    degrees: Tuple[int, ...]

    def family_name(self) -> str:
        parts = [str(q) for q in self.prefix] + ["p"] * (3 - len(self.prefix))
        return "(" + ",".join(parts) + ")"


def t3_rows(n: int = 6, d_max: int = DEFAULT_DMAX) -> List[FamilyRow]:
    """Candidates with an inf entry, grouped into symbolic families.

    Membership is recomputed with the symbol treated as larger than any
    degree in range, i.e. as inf in both filters, without canonicalizing.
    """
    families = {}
    for t, _ in enumerate_candidates(n, d_max):
        if t.pinf is INF:
            families.setdefault(tuple(p for p in t.entries if p is not INF), t)
    return [FamilyRow(prefix, tuple(d for d in range(2, d_max + 1)
                                    if floor_identity_holds(t, d)
                                    and chi_inequality_holds(t, d, n)))
            for prefix, t in sorted(families.items())]


def n7_summary(n_low: int = 7, n_high: int = 12,
               d_max: int = DEFAULT_DMAX) -> List[Tuple[int, int]]:
    """(n, number of complete profiles) for each n in the range."""
    return [(n, len(complete_profiles(n, d_max))) for n in range(n_low, n_high + 1)]


def multipoint_bases(k: int, weight_cap: int = 12) -> List[Tuple[Tuple[object, ...], int]]:
    """Hyperbolic genus-0 bases with k marked points whose negative Euler
    characteristic leaves any degree budget at all: d <= 1/(-chi), so only
    -chi <= 1/2 survives.  Finite weights above the cap behave like inf at
    every admissible degree, so the pool is {2..cap, inf}.

    The non-decreasing weight tuples are walked depth first in
    lexicographic order.  With `left` entries still to pick, all of them
    >= p, the least -chi a prefix can reach by choosing p next is
    (k-2) - (reciprocal sum so far) - left * 1/p; it grows with p, so the
    loop stops at the first p where it exceeds 1/2.  For k >= 6 that holds
    at p = 2 already and nothing is visited.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    pool = list(range(2, weight_cap + 1)) + [INF]
    half = Fraction(1, 2)
    out = []

    def walk(start: int, prefix: Tuple[object, ...], recip_sum: Fraction) -> None:
        left = k - len(prefix)
        if left == 0:
            neg_chi = (k - 2) - recip_sum
            if neg_chi > 0:
                out.append((prefix, int(1 / neg_chi)))
            return
        for i in range(start, len(pool)):
            r = weight_reciprocal(pool[i])
            if (k - 2) - recip_sum - left * r > half:
                break
            walk(i, prefix + (pool[i],), recip_sum + r)

    walk(0, (), Fraction(0))
    return out


def multipoint_complete_search(k: int, weight_cap: int = 12
                               ) -> List[Tuple[Tuple[object, ...], int, RamificationProfile]]:
    """Exhaustive search for complete profiles over bases with more than
    three marked points; expected empty."""
    hits = []
    for ws, budget in multipoint_bases(k, weight_cap):
        for d in range(2, budget + 1):
            for profile, n_total in enumerate_profiles(ws, d):
                v = verdict(profile, n_total)
                if v.kind is VerdictKind.COMPLETE:
                    hits.append((ws, d, profile))
    return hits


@dataclass(frozen=True)
class Table:
    table_id: str
    title: str
    header: Tuple[str, ...]
    rows: Tuple[Tuple[str, ...], ...]


def _fmt_exps(exps: Sequence[Exponent]) -> str:
    return "(" + ",".join(str(e) for e in exps) + ")"


def _t1_table(d_max: int) -> Table:
    rows = []
    for t, d, profile in complete_profiles(5, d_max):
        rows.append((str(t), str(d), str(profile),
                     f"N={profile.free_points}", "COMPLETE"))
    return Table("T1", "complete five-point pullback profiles",
                 ("triple", "d", "branch data", "free", "verdict"), tuple(rows))


def _family_table(table_id: str, n: int, extra, title: str, d_max: int) -> Table:
    rows = []
    for r in _family_rows(n, d_max, extra):
        for base, pulled, napp in r.variants:
            rows.append((str(r.triple), str(r.degree), str(r.profile),
                         _fmt_exps(base), _fmt_exps(pulled),
                         f"apparent={napp}", f"N={r.profile.free_points}",
                         str(r.verdict)))
    return Table(table_id, title,
                 ("triple", "d", "branch data", "base exponents",
                  "exponents", "apparent", "free", "verdict"), tuple(rows))


def _t3_table(d_max: int) -> Table:
    rows = [(fr.family_name(), ",".join(str(d) for d in fr.degrees))
            for fr in t3_rows(6, d_max)]
    return Table("T3", "six-point candidate families", ("family", "degrees"), tuple(rows))


def _intermediate_table(table_id: str, infinite: bool, d_max: int) -> Table:
    rows = []
    for r in intermediate_rows(5, d_max, infinite=infinite):
        rows.append((str(r.triple), str(r.degree), str(r.profile),
                     f"n={r.n_points}", f"N={r.profile.free_points}", r.status))
    kind = "inf-weight" if infinite else "finite-weight"
    return Table(table_id,
                 f"five-point candidates over {kind} triples, maximal free count",
                 ("triple", "d", "branch data", "points", "free", "status"),
                 tuple(rows))


def _n7_table(d_max: int) -> Table:
    rows = [(str(n), str(c), "none" if c == 0 else "") for n, c in n7_summary(7, 12, d_max)]
    return Table("N7", "complete profiles with seven or more points",
                 ("n", "complete profiles", "note"), tuple(rows))


# Printed table id -> builder taking d_max.
_TABLES = {
    "T1": _t1_table,
    "T2": partial(_family_table, "T2", 5, _T2_EXTRA,
                  "five-point pullback families with exponent data"),
    "T3": _t3_table,
    "T4": partial(_family_table, "T4", 6, (), "complete six-point pullback families"),
    "N2a": partial(_intermediate_table, "N2a", True),
    "N2b": partial(_intermediate_table, "N2b", False),
    "N7": _n7_table,
}
TABLE_IDS = tuple(_TABLES)
_TABLE_IDS_BY_UPPER = {tid.upper(): tid for tid in TABLE_IDS}


def lookup_table_id(text: str) -> Optional[str]:
    """The printed id of the table named text in any case, or None."""
    return _TABLE_IDS_BY_UPPER.get(text.upper())


def reproduce_table(table_id: str, d_max: int = DEFAULT_DMAX) -> Table:
    tid = lookup_table_id(table_id)
    if tid is None:
        raise ValueError(f"unknown table id {table_id!r}")
    return _TABLES[tid](d_max)


def render_table(table: Table) -> str:
    lines = [f"# {table.table_id}: {table.title}", " | ".join(table.header)]
    for row in table.rows:
        lines.append(" | ".join(row))
    return "\n".join(lines) + "\n"
