"""Enumeration of branch data for coverings of the three-punctured line that
pull a hypergeometric equation back to an equation with few essential
singular points, together with the completeness bookkeeping (number of free
branch points vs. dimension of the deformation space) and the reproduction
of the classification tables.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import gcd, lcm, prod
from typing import List, Optional, Sequence, Tuple

from .fuchsian import (Exponent, Theta, hypergeometric_signature, is_elementary,
                       pullback_exponents)
from .orbifold import INF, RamificationProfile, partitions_of

DEFAULT_DMAX = 42


@dataclass(frozen=True)
class TripleSpec:
    """Weights (p0 <= p1 <= pinf) of a hyperbolic genus-0 triple; entries are
    integers >= 2 or inf.  neg_chi is -chi = 1 - sum of 1/p as (num, den) in
    integers, den the product of the finite entries (1/inf reads as 0)."""

    entries: Tuple[object, object, object]
    neg_chi: Tuple[int, int] = field(compare=False, repr=False)

    def __init__(self, p0, p1, pinf):
        finite = [p for p in (p0, p1, pinf) if p is not INF]
        for p in finite:
            if not isinstance(p, int) or p < 2:
                raise ValueError(f"weight must be an integer >= 2 or inf, got {p!r}")
        den = prod(finite)
        num = den - sum(den // p for p in finite)
        es = sorted((p0, p1, pinf))
        if num <= 0:
            raise ValueError(f"triple {es} is not hyperbolic")
        object.__setattr__(self, "entries", tuple(es))
        object.__setattr__(self, "neg_chi", (num, den))

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
    num, den = t.neg_chi
    if t.pinf is INF:
        return d * num <= den
    return d * num * t.pinf <= den * (t.pinf - n)


@lru_cache(maxsize=None)
def _candidate_pairs(d_max: int) -> Tuple[Tuple[TripleSpec, int], ...]:
    """The sorted n-independent candidates: canonical hyperbolic (triple, d)
    with the floor identity and d * (-chi) <= 1, which the chi inequality
    implies for every n >= 0; every bound is in integers.

    -chi = 1 - 1/p0 - 1/p1 - 1/pinf grows along each entry, so the p0 and
    p1 loops stop at the first entry whose least -chi exceeds 1/d:
    d(p0 - 3) > p0, then d(p0 p1 - p1 - 2 p0) > p0 p1, or d(p0 - 1) > p0 at
    p1 = inf.  An inf p0 always stops, since -chi = 1 > 1/d there.

    pinf is solved outright.  With f = d - d//p0 - d//p1 - 1 the floor
    identity reads d//pinf = f: f = 0 leaves only pinf = inf (a canonical
    finite pinf has d//pinf >= 1), and f > 0 a finite pinf >= p1 in
    (d//(f + 1), d//f].  With 1 - 1/p0 - 1/p1 = a/b (a > 0 once f > 0, as
    a <= 0 only at p0 = p1 = 2, where f <= 0), hyperbolicity reads
    pinf > b//a and d * (-chi) <= 1 reads pinf (d a - b) <= d b.
    """
    out = []
    for d in range(2, d_max + 1):
        pool = list(range(2, d + 1)) + [INF]
        for i, p0 in enumerate(pool):
            if p0 is INF or d * (p0 - 3) > p0:
                break
            for p1 in pool[i:]:
                if p1 is INF:
                    # (p0, inf, inf): -chi = 1 - 1/p0 > 0, and f must be 0
                    if d * (p0 - 1) <= p0 and d - d // p0 == 1:
                        out.append((TripleSpec(p0, INF, INF), d))
                    break
                a, b = p0 * p1 - p1 - p0, p0 * p1
                if d * (a - p0) > b:
                    break
                f = d - d // p0 - d // p1 - 1
                if f == 0 and 0 < a and d * a <= b:
                    out.append((TripleSpec(p0, p1, INF), d))
                elif f > 0:
                    hi = d // f if d * a <= b else min(d // f, d * b // (d * a - b))
                    for pinf in range(max(p1 - 1, d // (f + 1), b // a) + 1, hi + 1):
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


@lru_cache(maxsize=None)
def _fiber_options(p, d: int):
    """(partition, nonapparent count, branching) choices over one marked
    point; the branching is d minus the number of parts.

    Finite weight p forces floor(d/p) index-p parts (these become apparent
    upstairs); the remainder r = d mod p splits arbitrarily, every such part
    being essential.  Weight inf allows any partition, all parts essential.
    """
    if p is INF:
        return tuple((lam, len(lam), d - len(lam)) for lam in partitions_of(d))
    q, r = divmod(d, p)
    forced = (p,) * q
    return tuple((tuple(sorted(forced + lam, reverse=True)), len(lam), d - q - len(lam))
                 for lam in partitions_of(r))


def enumerate_profiles(weights: Sequence[object], d: int,
                       n: Optional[int] = None) -> List[Tuple[RamificationProfile, int]]:
    """All realizable-by-count profiles over the given marked weights, with
    the essential-point total; optionally filtered to a fixed total.  Both
    filters, and N = 2d - 2 - branching >= 0, are decided on the options'
    integers, so a profile is built only when it is kept."""
    options = [_fiber_options(p, d) for p in weights]
    budget = 2 * d - 2
    kept = []
    for combo in product(*options):
        n_total = sum(c[1] for c in combo)
        if (n is None or n_total == n) and sum(c[2] for c in combo) <= budget:
            kept.append((tuple(c[0] for c in combo), n_total))
    kept.sort()
    return [(RamificationProfile(d, lams), n_total) for lams, n_total in kept]


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


def multipoint_bases(k: int, weight_cap: int = 12) -> List[Tuple[Tuple[object, ...], int]]:
    """Hyperbolic genus-0 bases with k marked points whose negative Euler
    characteristic leaves any degree budget at all: d <= 1/(-chi), so only
    -chi <= 1/2 survives.  Finite weights above the cap behave like inf at
    every admissible degree, so the pool is {2..cap, inf}.

    Everything is an integer in units of 1/L, L = lcm(2..cap): weight p has
    reciprocal L // p (inf has 0), a prefix carries its reciprocal sum S,
    and -chi is ((k-2) L - S)/L, so the budget is L // ((k-2) L - S).

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
    unit = lcm(*pool[:-1])
    recips = [unit // p for p in pool[:-1]] + [0]
    top = (k - 2) * unit
    out = []

    def walk(start: int, prefix: Tuple[object, ...], recip_sum: int) -> None:
        left = k - len(prefix)
        if left == 0:
            if top > recip_sum:
                out.append((prefix, unit // (top - recip_sum)))
            return
        for i in range(start, len(pool)):
            r = recips[i]
            if 2 * (top - recip_sum - left * r) > unit:
                break
            walk(i, prefix + (pool[i],), recip_sum + r)

    walk(0, (), 0)
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


# The two partial rows of the five-point family table, quoted from the
# published table.  Each splits one forced part over a finite fiber into
# ones (n = 5, N = 1, deficit 1); that relaxation admits 24 such profiles
# over (2,3,p) with d <= 42 and no stated rule singles out these two, so
# they are inputs here, not outputs of enumerate_profiles.  Everything shown
# about them is still recomputed.
_T2_EXTRA = (
    (3, ((2, 1), (1, 1, 1), (3,)), INF),
    (9, ((2, 2, 2, 2, 1), (3, 3, 1, 1, 1), (8, 1)), 8),
)


def _family_table(table_id: str, n: int, extra, title: str, d_max: int) -> Table:
    """n-point pullback families with exponent data: the complete profiles
    from the enumeration plus the extra (d, partitions, pinf) profiles over
    (2,3,pinf) with d <= d_max, in degree order.  The base has exponent 1/p
    at finite-weight points and the generic exponent theta at weight inf; over a
    finite pinf every reduced numerator k in (0, pinf/2] gives a variant
    row with exponent k/pinf there, and elementary variants are dropped.
    A row's verdict counts its non-apparent pulled-back exponents as essential."""
    items = [(d, t, profile) for t, d, profile in complete_profiles(n, d_max)]
    items += [(d, TripleSpec(2, 3, pinf), RamificationProfile(d, lams))
              for d, lams, pinf in extra if d <= d_max]
    items.sort(key=lambda e: (e[0], e[1].entries))
    rows = []
    for d, t, profile in items:
        q = t.pinf
        numerators = [1] if q is INF else [k for k in range(1, q // 2 + 1) if gcd(k, q) == 1]
        for k in numerators:
            sig = hypergeometric_signature(*(
                Theta() if p is INF else Fraction(k if i == 2 else 1, p)
                for i, p in enumerate(t.entries)))
            if is_elementary(sig):
                continue
            pulled = pullback_exponents(sig, profile)
            rows.append((str(t), str(d), str(profile), _fmt_exps(sig.exponents),
                         _fmt_exps(pulled.exponents), f"apparent={pulled.apparent_count}",
                         f"N={profile.free_points}",
                         str(verdict(profile, len(pulled.exponents)))))
    return Table(table_id, title,
                 ("triple", "d", "branch data", "base exponents",
                  "exponents", "apparent", "free", "verdict"), tuple(rows))


def _t3_table(d_max: int) -> Table:
    """Six-point candidates with an inf entry, grouped into one-parameter
    families: finite entries fixed, the rest a free symbol p.

    The degrees are recomputed with the symbol treated as larger than any
    degree in range, i.e. as inf in both filters, without canonicalizing.
    """
    families = {}
    for t, _ in enumerate_candidates(6, d_max):
        if t.pinf is INF:
            families.setdefault(tuple(p for p in t.entries if p is not INF), t)
    rows = []
    for prefix, t in sorted(families.items()):
        name = "(" + ",".join([str(q) for q in prefix] + ["p"] * (3 - len(prefix))) + ")"
        degrees = [str(d) for d in range(2, d_max + 1)
                   if floor_identity_holds(t, d) and chi_inequality_holds(t, d, 6)]
        rows.append((name, ",".join(degrees)))
    return Table("T3", "six-point candidate families", ("family", "degrees"), tuple(rows))


def _intermediate_table(table_id: str, infinite: bool, d_max: int) -> Table:
    """One row per five-point candidate, infinite=True keeping the triples
    containing inf and False the all-finite ones: the profile of maximal
    free count, which may be infeasible (N = -1), with its status toward
    five essential points."""
    rows = []
    for t, d in enumerate_candidates(5, d_max):
        if (INF in t.entries) != infinite:
            continue
        # the last option over each fiber splits its remainder into ones
        lams, counts, _ = zip(*(_fiber_options(p, d)[-1] for p in t.entries))
        n_points = sum(counts)
        profile = RamificationProfile(d, lams)
        # a row with at most three essential points is degenerate on its own;
        # otherwise its free count is measured against the target
        status = verdict(profile, n_points if n_points <= 3 else 5)
        rows.append((str(t), str(d), str(profile), f"n={n_points}",
                     f"N={profile.free_points}", str(status)))
    kind = "inf-weight" if infinite else "finite-weight"
    return Table(table_id,
                 f"five-point candidates over {kind} triples, maximal free count",
                 ("triple", "d", "branch data", "points", "free", "status"),
                 tuple(rows))


def _n7_table(d_max: int) -> Table:
    """Complete profiles per n in 7..12, in one sweep of the n = 7
    candidates: the chi inequality only tightens as n grows, so a profile
    with n essential points counts when its candidate passes it at n."""
    counts = dict.fromkeys(range(7, 13), 0)
    for t, d in enumerate_candidates(7, d_max):
        for profile, n_total in enumerate_profiles(t.entries, d):
            if (n_total in counts and chi_inequality_holds(t, d, n_total)
                    and verdict(profile, n_total).kind is VerdictKind.COMPLETE):
                counts[n_total] += 1
    rows = [(str(n), str(c), "" if c else "none") for n, c in counts.items()]
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
