"""Constructive realizability of branch data by permutation tuples.

A profile with partitions (lambda_1, ..., lambda_k) and N free simple branch
points is realizable by a genus-0 covering iff there are permutations
(s_1, ..., s_k, tau_1, ..., tau_N) of {1..d} with cycle types
(lambda_1, ..., lambda_k, [2,1,...], ...), product the identity, generating
a transitive subgroup.  This module searches for such tuples exactly.

Permutations are tuples of 0-based images; compose(p, q) applies p first.
The search normalizes away conjugation freedom: the largest class is frozen
to one representative, the next-largest is solved for from the group
relation, remaining classes run over explicit cosets (the first one only up
to the centralizer of the frozen element), and the transposition block runs
over products h of bounded Cayley norm.  For each h a closed-form rule
decides whether transpositions multiplying to h can make the tuple
transitive, and builds them directly when they can.

The pools the search walks (the products h, the remaining classes, orbit
representatives for the first of them) are generated lazily in a fixed
order, and each element is produced at most once per query: a pool walked
again for each prefix is replayed from what the first walk drew, and
nothing past the first hit is generated.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, permutations
from math import factorial
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .enumeration import partitions_of

Perm = Tuple[int, ...]

MAX_DEGREE = 16


def identity(d: int) -> Perm:
    return tuple(range(d))


def compose(*perms: Perm) -> Perm:
    """Apply left to right: compose(p, q)[i] = q[p[i]]."""
    if not perms:
        raise ValueError("compose needs at least one permutation")
    out = perms[0]
    for q in perms[1:]:
        out = tuple(q[i] for i in out)
    return out


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def cycles_of(p: Perm) -> List[Tuple[int, ...]]:
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append(tuple(cyc))
    return out


def cycle_type(p: Perm) -> Tuple[int, ...]:
    return tuple(sorted((len(c) for c in cycles_of(p)), reverse=True))


def cayley_norm(p: Perm) -> int:
    return len(p) - len(cycles_of(p))


def conjugate(p: Perm, c: Perm) -> Perm:
    """The permutation sending c[i] to c[p[i]]; same cycle type as p."""
    out = [0] * len(p)
    for i in range(len(p)):
        out[c[i]] = c[p[i]]
    return tuple(out)


def canonical_perm(parts: Sequence[int]) -> Perm:
    """Representative with cycles on consecutive integers, largest first."""
    img = []
    base = 0
    for k in sorted(parts, reverse=True):
        img.extend([base + (i + 1) % k for i in range(k)])
        base += k
    return tuple(img)


def class_size(d: int, parts: Sequence[int]) -> int:
    denom = 1
    for k, a in Counter(parts).items():
        denom *= k ** a * factorial(a)
    return factorial(d) // denom


def class_elements(d: int, parts: Sequence[int]) -> Iterator[Perm]:
    """Every permutation of the given cycle type, generated lazily.

    The smallest unplaced point always opens the next cycle, once per
    distinct available length, so each permutation appears exactly once and
    the order is fixed by (d, parts).
    """
    img = list(range(d))

    def place(remaining: Dict[int, int], unused: List[int]) -> Iterator[Perm]:
        if not unused:
            yield tuple(img)
            return
        start = unused[0]
        rest = unused[1:]
        for k in sorted(remaining):
            if remaining[k] == 0:
                continue
            remaining[k] -= 1
            if k == 1:
                img[start] = start
                yield from place(remaining, rest)
            else:
                for body in combinations(range(len(rest)), k - 1):
                    chosen_sets = [rest[i] for i in body]
                    for order in permutations(chosen_sets):
                        cyc = (start,) + order
                        for a, b in zip(cyc, cyc[1:] + (start,)):
                            img[a] = b
                        leftover = [x for x in rest if x not in order]
                        yield from place(remaining, leftover)
                    for x in chosen_sets:
                        img[x] = x
                img[start] = start
            remaining[k] += 1

    # a plain dict: subscripting a dict subclass such as Counter is
    # markedly slower in this recursion
    return place(dict(Counter(parts)), list(range(d)))


def centralizer_generators(p: Perm) -> List[Perm]:
    """Generators of the centralizer: one rotation per cycle plus swaps of
    adjacent equal-length cycles."""
    d = len(p)
    cycs = sorted(cycles_of(p), key=lambda c: (len(c), c))
    gens = []
    for c in cycs:
        if len(c) > 1:
            img = list(range(d))
            for a, b in zip(c, c[1:] + (c[0],)):
                img[a] = b
            gens.append(tuple(img))
    for c1, c2 in zip(cycs, cycs[1:]):
        if len(c1) == len(c2):
            img = list(range(d))
            for a, b in zip(c1, c2):
                img[a] = b
                img[b] = a
            gens.append(tuple(img))
    return gens


def orbit_reps(elements: Iterable[Perm], gens: Sequence[Perm]) -> Iterator[Perm]:
    """Representatives of the orbits of conjugation by the group the
    generators produce: the first element of each orbit, in the order of
    elements.  Each orbit is closed by breadth-first search only after its
    representative has been consumed."""
    seen = set()
    for e in elements:
        if e in seen:
            continue
        yield e
        seen.add(e)
        frontier = [e]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = conjugate(x, g)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)


def transposition(d: int, i: int, j: int) -> Perm:
    img = list(range(d))
    img[i], img[j] = j, i
    return tuple(img)


def h_set(d: int, k: int) -> Iterator[Perm]:
    """All permutations expressible as a product of exactly k transpositions
    (Cayley norm <= k with the same parity), generated lazily class by
    class in the order of partitions_of(d)."""
    for parts in partitions_of(d):
        norm = d - len(parts)
        if norm <= k and (k - norm) % 2 == 0:
            yield from class_elements(d, parts)


def orbit_roots(perms: Sequence[Perm], d: int) -> List[int]:
    """The least point of each orbit of the group the permutations generate."""
    parent = list(range(d))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for i, j in enumerate(p):
            ri, rj = sorted((find(i), find(j)))
            parent[rj] = ri
    return [i for i in range(d) if find(i) == i]


def is_transitive(perms: Sequence[Perm], d: int) -> bool:
    return len(orbit_roots(perms, d)) == 1


def factor_into_transpositions(h: Perm, k: int,
                               prefix: Sequence[Perm]) -> Optional[List[Perm]]:
    """Transpositions t_1, ..., t_k with compose(t_1, ..., t_k) = h such that
    prefix + [t_1, ..., t_k] is transitive, or None if there are none.

    With c orbits of <prefix, h>, they exist iff k >= cayley_norm(h) +
    2(c - 1) and k has the parity of cayley_norm(h).  Necessity is
    Riemann-Hurwitz on each component of the transposition graph: one on v
    points covering r cycles of h needs v + r - 2 edges, and the components
    join the c orbits only if their r - 1 sum to c - 1 or more.  The
    construction meets the bound: a star (c0 c1)(c0 c2)...(c0 cm) per cycle
    (c0 c1 ... cm) of h, a cancelling pair from the first orbit root to each
    other root, and cancelling pairs (0 1)(0 1) for the rest (0-based points).
    """
    d = len(h)
    roots = orbit_roots(list(prefix) + [h], d)
    spare = k - cayley_norm(h) - 2 * (len(roots) - 1)
    if spare < 0 or spare % 2 or (spare and d < 2):
        return None
    out = [transposition(d, cyc[0], x) for cyc in cycles_of(h) for x in cyc[1:]]
    for r in roots[1:]:
        out += [transposition(d, roots[0], r)] * 2
    return out + [transposition(d, 0, 1) for _ in range(spare)]


@dataclass(frozen=True)
class PermutationTuple:
    degree: int
    perms: Tuple[Perm, ...]


@dataclass(frozen=True)
class RealizabilityCertificate:
    exists: bool
    tuple_: Optional[PermutationTuple]
    stats: Dict[str, int] = field(default_factory=dict)
    reason: str = ""


def format_perm(p: Perm) -> str:
    """1-based cycle notation, fixed points omitted."""
    parts = ["(" + " ".join(str(i + 1) for i in c) + ")"
             for c in cycles_of(p) if len(c) > 1]
    return "".join(parts) if parts else "id"


def _is_identity_type(t: Tuple[int, ...]) -> bool:
    return all(k == 1 for k in t)


def _is_transposition_type(t: Tuple[int, ...]) -> bool:
    return t and t[0] == 2 and all(k == 1 for k in t[1:])


def _braid_left(perms: List[Perm], j: int):
    """Swap entries j-1, j keeping the ordered product: (a, b) becomes
    (a b a^-1, a)."""
    a, b = perms[j - 1], perms[j]
    perms[j - 1] = compose(a, b, inverse(a))
    perms[j] = a


def _reorder_to(perms: List[Perm], want_types: Sequence[Tuple[int, ...]]) -> List[Perm]:
    cur = list(perms)
    for pos, want in enumerate(want_types):
        src = None
        for j in range(pos, len(cur)):
            if cycle_type(cur[j]) == want:
                src = j
                break
        if src is None:
            raise AssertionError("braid reordering lost a cycle type")
        for j in range(src, pos, -1):
            _braid_left(cur, j)
    return cur


class _Pool:
    """A re-iterable view of a lazy pool: each item is drawn from the source
    the first time any walk reaches it and replayed from a list after, so a
    pool walked once per prefix is generated once, and only up to the point
    the search stops."""

    def __init__(self, source: Iterable[Perm]):
        self._source = iter(source)
        self._drawn: List[Perm] = []

    def __iter__(self) -> Iterator[Perm]:
        drawn = self._drawn
        i = 0
        while True:
            if i == len(drawn):
                item = next(self._source, None)
                if item is None:
                    return
                drawn.append(item)
            yield drawn[i]
            i += 1


def verify_tuple(perms: Sequence[Perm], types: Sequence[Sequence[int]],
                 degree: int) -> bool:
    """Product identity, requested cycle types, transitivity."""
    if len(perms) != len(types):
        return False
    for p, t in zip(perms, types):
        if len(p) != degree or cycle_type(p) != tuple(sorted(t, reverse=True)):
            return False
    return compose(*perms) == identity(degree) and is_transitive(perms, degree)


def find_tuple(types: Sequence[Sequence[int]], degree: int) -> RealizabilityCertificate:
    """Search for a transitive tuple with the given cycle types and identity
    product.

    Soundness: any returned tuple is re-verified from scratch.  Completeness:
    global conjugation makes the canonical anchor representative free, and
    conjugating by the anchor's centralizer reduces the first remaining
    class to orbit representatives; the second-largest class never needs
    enumeration because the product relation determines it.  The pools are
    generated lazily in a fixed order, each element at most once per query,
    so the walk, its first hit, stats and reason do not depend on how far
    the pools have been generated.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} above search cap {MAX_DEGREE}")
    norm_types = [tuple(sorted(t, reverse=True)) for t in types]
    for t in norm_types:
        if sum(t) != degree or any(k < 1 for k in t):
            raise ValueError(f"type {t} is not a partition of {degree}")
    stats = {"outer": 0, "h": 0, "typehits": 0}

    if sum(degree - len(t) for t in norm_types) % 2 != 0:
        return RealizabilityCertificate(False, None, stats,
                                        "odd total branching, no tuple has identity product")
    if degree == 1:
        tup = PermutationTuple(1, tuple((0,) for _ in norm_types))
        return RealizabilityCertificate(True, tup, stats)

    work = [(i, t) for i, t in enumerate(norm_types) if not _is_identity_type(t)]
    n_tau = sum(1 for _, t in work if _is_transposition_type(t))
    big = sorted((t for _, t in work
                  if not _is_transposition_type(t)),
                 key=lambda t: class_size(degree, t))

    def try_h(prefix: List[Perm], h: Perm) -> Optional[List[Perm]]:
        stats["h"] += 1
        taus = factor_into_transpositions(h, n_tau, prefix)
        return None if taus is None else prefix + taus

    if len(big) <= 1:
        # freeze the one class, if any; the transpositions must multiply to
        # the inverse of its representative (outer counts frozen anchors)
        prefix = [canonical_perm(t) for t in big]
        stats["outer"] += len(prefix)
        found = try_h(prefix, inverse(compose(identity(degree), *prefix)))
    else:
        anchor_type = big[-1]
        derived_type = big[-2]
        middle_types = big[:-2]
        anchor = canonical_perm(anchor_type)
        # every replay needs the inverse of each h, and h itself only on a
        # type hit, so the pool holds the inverses
        h_inv_pool = _Pool(inverse(h) for h in h_set(degree, n_tau))
        middle_pools: List[_Pool] = []
        for i, mt in enumerate(middle_types):
            elems = class_elements(degree, mt)
            if i == 0:
                elems = orbit_reps(elems, centralizer_generators(anchor))
            middle_pools.append(_Pool(elems))

        def walk(i: int, prefix: List[Perm], prefix_prod: Perm) -> Optional[List[Perm]]:
            if i == len(middle_pools):
                inv_prefix = inverse(prefix_prod)
                for h_inv in h_inv_pool:
                    stats["outer"] += 1
                    derived = compose(inv_prefix, h_inv)
                    if cycle_type(derived) != derived_type:
                        continue
                    stats["typehits"] += 1
                    got = try_h(prefix + [derived], inverse(h_inv))
                    if got is not None:
                        return got
                return None
            for m in middle_pools[i]:
                got = walk(i + 1, prefix + [m], compose(prefix_prod, m))
                if got is not None:
                    return got
            return None

        found = walk(0, [anchor], anchor)

    if found is None:
        return RealizabilityCertificate(False, None, stats, "search space exhausted")

    # restore the requested order, then put identity entries back
    want_work = [t for _, t in work]
    ordered = _reorder_to(found, want_work)
    final: List[Perm] = []
    wi = 0
    for t in norm_types:
        if _is_identity_type(t):
            final.append(identity(degree))
        else:
            final.append(ordered[wi])
            wi += 1
    if not verify_tuple(final, norm_types, degree):
        raise AssertionError("internal error: candidate tuple failed re-verification")
    return RealizabilityCertificate(True, PermutationTuple(degree, tuple(final)), stats)


def realize_profile(profile) -> RealizabilityCertificate:
    """Certificate for a RamificationProfile, free points included as
    transpositions."""
    return find_tuple(profile.with_free_points().partitions, profile.degree)
