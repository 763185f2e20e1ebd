"""Enumeration of branch data for coverings of the three-punctured line that
pull a hypergeometric equation back to an equation with few essential
singular points, together with the completeness bookkeeping (number of free
branch points vs. dimension of the deformation space) and the reproduction
of the classification tables.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations_with_replacement, product
from math import gcd, lcm, prod
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .fuchsian import (Theta, hypergeometric_signature, is_elementary,
                       pullback_exponents)
from .frozen import Frozen
from .orbifold import INF, RamificationProfile, partitions_of

# The largest candidate degree, (2,3,7) at n = 0 (see _candidate_rows); also the default.
DEGREE_BOUND = DEFAULT_DMAX = 42


def _fmt_tuple(items: Sequence[object]) -> str:
    return "(" + ",".join(str(x) for x in items) + ")"


class TripleSpec(Frozen):
    """Weights (p0 <= p1 <= pinf) of a hyperbolic genus-0 triple; entries are
    integers >= 2 or inf."""

    __slots__ = ("entries",)
    _fields = ("entries",)
    entries: Tuple[object, object, object]

    def __init__(self, p0, p1, pinf):
        finite = [p for p in (p0, p1, pinf) if p is not INF]
        for p in finite:
            if not isinstance(p, int) or p < 2:
                raise ValueError(f"weight must be an integer >= 2 or inf, got {p!r}")
        den = prod(finite)
        es = sorted((p0, p1, pinf))
        if den - sum(den // p for p in finite) <= 0:  # den * (-chi), 1/inf = 0
            raise ValueError(f"triple {es} is not hyperbolic")
        super().__init__(tuple(es))

    @property
    def pinf(self):
        return self.entries[2]

    def __str__(self):
        return _fmt_tuple(self.entries)


def floor_identity_holds(t: TripleSpec, d: int) -> bool:
    """d - sum of floor(d/p) = 1; floor(d/inf) = 0."""
    s = sum(0 if p is INF else d // p for p in t.entries)
    return d - s == 1


def _candidate_rows(n: int, d_max: int) -> List[Tuple[object, ...]]:
    """The candidates at n as integer rows (p0, p1, pinf, d), sorted as the
    triples sort: the canonical hyperbolic p0 <= p1 <= pinf (INF for inf)
    with the floor identity at d and the chi inequality
    d * (-chi) <= 1 - n/pinf (1/inf reads as 0).

    The floor identity implies the n = 0 case, as d * (-chi) = d - sum of
    d/p = 1 - sum of frac(d/p).  With d >= p1 and pinf >= p1 that gives
    p1 (1 - 1/p0 - 2/p1) <= 1, so p1 (p0 - 1) <= 3 p0 and p0 <= 4: few
    (p0, p1) pairs, the outer loops.  (p0, inf, inf) needs d - d//p0 = 1
    and d (p0 - 1) <= p0, so d <= p0 // (p0 - 1).

    Per pair, 1 - 1/p0 - 1/p1 = a/b (a = 0 only at (2,2), never hyperbolic)
    and pmin = max(p1, b//a + 1) is the least hyperbolic pinf.  A finite
    pinf needs d (a pinf - b) <= b (pinf - n); as pinf grows this bound on d
    falls when n a < b and rises toward b/a otherwise, so pmin or b/a bounds
    it for every pinf, and pinf = inf needs d a <= b.  So d stops at
    max(b//a, (pmin - n) b // (a pmin - b)), the largest at (2,3): 42 at
    n = 0 (DEGREE_BOUND) and 12 at n = 5, both reached by (2,3,7).

    pinf is solved outright.  With f = d - d//p0 - d//p1 - 1 the floor
    identity reads d//pinf = f: f = 0 leaves only pinf = inf (a canonical
    finite pinf has d//pinf >= 1), and f > 0 a finite pinf >= pmin in
    (d//(f + 1), d//f], kept by the chi inequality at n.
    """
    out = []
    for p0 in range(2, 5):
        out += [(p0, INF, INF, d)
                for d in range(p0, min(d_max, p0 // (p0 - 1)) + 1) if d - d // p0 == 1]
        for p1 in range(max(p0, 3), 3 * p0 // (p0 - 1) + 1):
            a, b = p0 * p1 - p1 - p0, p0 * p1
            pmin = max(p1, b // a + 1)
            top = max(b // a, (pmin - n) * b // (a * pmin - b))
            for d in range(p1, min(d_max, top) + 1):
                f = d - d // p0 - d // p1 - 1
                if f == 0:
                    out.append((p0, p1, INF, d))
                elif f > 0:
                    out += [(p0, p1, pinf, d)
                            for pinf in range(max(pmin, d // (f + 1) + 1), d // f + 1)
                            if d * (a * pinf - b) <= b * (pinf - n)]
    out.sort()
    return out


def enumerate_candidates(n: int, d_max: int = DEFAULT_DMAX) -> List[Tuple[TripleSpec, int]]:
    """All canonical (triple, degree) pairs passing the two necessary
    conditions for an n-point pullback, the floor identity and the chi
    inequality at n (see _candidate_rows).

    Canonical means every finite entry is <= d: a branch point of weight
    p > d has no index-p preimage, so it acts exactly like weight inf and
    the triple is rewritten with inf there.  A TripleSpec is built only for
    a kept row.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return [(TripleSpec(p0, p1, pinf), d) for p0, p1, pinf, d in _candidate_rows(n, d_max)]


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


class CandidateVerdict(NamedTuple):
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


def multipoint_bases(k: int) -> List[Tuple[Tuple[object, ...], int]]:
    """Hyperbolic genus-0 bases with k >= 4 marked points whose negative
    Euler characteristic leaves any degree budget at all: d <= 1/(-chi), so
    only -chi <= 1/2 survives.  Three-point bases have no weight cap, as
    (2,3,p) is admissible for every p; they are enumerate_candidates' job.

    The weights are drawn from {2..cap, inf}, cap = 4 // (k - 3), which
    loses no (weights as read at d, d) pair.  A weight p reads as inf at
    every degree d < p (it forces no part), and a base with a weight p has
    -chi >= (k-3)/2 - 1/p, every other weight being at least 2, so its
    budget is below p once p > 4/(k-3):
    - k = 4, cap 4: a base with a weight p >= 5 has -chi >= 3/10, budget
      <= 3.  Putting 4 for p reads the same at those degrees and lowers
      -chi (it stays >= 1/4), so the budget is no smaller;
    - k = 5, cap 2: a weight >= 3 leaves -chi >= 2/3 and no degree at all;
    - k >= 6: -chi >= k/2 - 2 >= 1 on every base, so there is none.

    In units of 1/L, L = lcm of the finite pool, weight p has reciprocal
    L // p (inf has 0), -chi is ((k-2) L - S)/L for the reciprocal sum S,
    and the budget is L // ((k-2) L - S).  Bases come in the order of
    combinations_with_replacement over the pool.
    """
    if k < 4:
        raise ValueError(f"k must be >= 4, got {k}")
    pool = list(range(2, 4 // (k - 3) + 1)) + [INF]
    unit = lcm(*pool[:-1])
    top = (k - 2) * unit
    out = []
    for ws in combinations_with_replacement(pool, k):
        excess = top - sum(0 if p is INF else unit // p for p in ws)
        if 0 < 2 * excess <= unit:
            out.append((ws, unit // excess))
    return out


def multipoint_complete_search(k: int
                               ) -> List[Tuple[Tuple[object, ...], int, RamificationProfile]]:
    """Complete profiles over every base with k marked points, at every
    degree of its budget.  Empty for every k >= 4, the paper's claim that
    the base must be hypergeometric: multipoint_bases' argument bounds the
    bases (none for k >= 6), and the search over the rest finds nothing."""
    hits = []
    for ws, budget in multipoint_bases(k):
        for d in range(2, budget + 1):
            for profile, n_total in enumerate_profiles(ws, d):
                v = verdict(profile, n_total)
                if v.kind is VerdictKind.COMPLETE:
                    hits.append((ws, d, profile))
    return hits


class Table(NamedTuple):
    table_id: str
    title: str
    header: Tuple[str, ...]
    rows: Tuple[Tuple[str, ...], ...]


def _t1_table(d_max: int) -> Table:
    rows = []
    for t, d, profile in complete_profiles(5, d_max):
        rows.append((str(t), str(d), str(profile),
                     f"N={profile.free_points}", "COMPLETE"))
    return Table("T1", "complete five-point pullback profiles",
                 ("triple", "d", "branch data", "free", "verdict"), tuple(rows))


# The two partial rows of the five-point family table, quoted from the
# published table.  Each splits one forced part over a finite fiber into
# ones (n = 5, N = 1, deficit 1); over (2,3,p), p in 7..d or inf, d <= 42,
# that relaxation admits 47 such profiles, 24 over a five-point candidate,
# and no stated rule singles out these two, so they are inputs here, not
# outputs of enumerate_profiles.  Everything shown about them is recomputed.
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
            rows.append((str(t), str(d), str(profile), _fmt_tuple(sig.exponents),
                         _fmt_tuple(pulled.exponents), f"apparent={pulled.apparent_count}",
                         f"N={profile.free_points}",
                         str(verdict(profile, len(pulled.exponents)))))
    return Table(table_id, title,
                 ("triple", "d", "branch data", "base exponents",
                  "exponents", "apparent", "free", "verdict"), tuple(rows))


def _t3_table(d_max: int) -> Table:
    """Six-point candidates with an inf entry, grouped into one-parameter
    families: finite entries fixed, the rest a free symbol p.

    The degrees are recomputed with the symbol treated as inf, without
    canonicalizing, from the floor identity alone: at pinf = inf the chi
    inequality is d * (-chi) <= 1, which the identity implies, and both
    hold only up to DEGREE_BOUND (see _candidate_rows).
    """
    families = {}
    for t, _ in enumerate_candidates(6, d_max):
        if t.pinf is INF:
            families.setdefault(tuple(p for p in t.entries if p is not INF), t)
    rows = []
    for prefix, t in sorted(families.items()):
        degrees = [str(d) for d in range(2, min(d_max, DEGREE_BOUND) + 1)
                   if floor_identity_holds(t, d)]
        rows.append((_fmt_tuple(prefix + ("p",) * (3 - len(prefix))), ",".join(degrees)))
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
    """No complete profile has seven or more essential points, for any n:
    the chi inequality only tightens as n grows, so every candidate at
    n >= 7 is one at n = 7, and over each of those no profile reaches seven
    points.  A profile has the most over a candidate when every fibre takes
    its last option, the remainder split into ones; a candidate where that
    reaches seven would be an internal error.  The rows print n = 7..12."""
    most = max((sum(_fiber_options(p, d)[-1][1] for p in t.entries)
                for t, d in enumerate_candidates(7, d_max)), default=0)
    if most >= 7:
        raise AssertionError(f"internal error: a profile over an n = 7 candidate "
                             f"has {most} essential points")
    rows = [(str(n), "0", "none") for n in range(7, 13)]
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
