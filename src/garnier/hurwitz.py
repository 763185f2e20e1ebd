"""Constructive realizability of branch data by permutation tuples.

A profile with partitions (lambda_1, ..., lambda_k) and N free simple branch
points is realizable by a connected degree-d covering of the line iff there
are permutations (s_1, ..., s_k, tau_1, ..., tau_N) of {1..d} with cycle
types (lambda_1, ..., lambda_k, [2,1,...], ...), product the identity,
generating a transitive subgroup.  This module searches for such tuples
exactly.  It checks parity and transitivity, not the genus, so it decides
existence for any genus g = (branching - 2d + 2)/2, the branching summed
over every entry; the classification's queries are the g = 0 case.

Permutations are tuples of 0-based images; compose(p, q) applies p first.
The search normalizes away conjugation freedom: the largest class is frozen
to one representative, the next-largest is solved for from the group
relation, remaining classes run over explicit cosets (the first one only up
to the centralizer of the frozen element), and the transposition block runs
over products h of bounded Cayley norm.  For each h a closed-form rule
decides whether transpositions multiplying to h can make the tuple
transitive, and builds them directly when they can.

A query pays only for what its walk reaches.  The pools it walks (the
products h, the remaining classes, orbit representatives for the first of
them) are generated lazily in a fixed order, each element at most once per
query: a walk replays what earlier walks drew, and nothing past the first
hit is generated.  A pool that a walk draws to its end is kept for the
process as a tuple, which later queries walk; so are a few constants per
degree and type.  A class generator yields an element once its last
non-fixed cycle is placed, and steps over a run of fixed points in one
loop.  Orbits are closed on bytes in C, by generators built at the first
closure.  The tuple found is put back in the requested order by one
conjugation per entry moved, which keeps the product and carries the types
the search built; cycle_type reads each entry once, in verify_tuple.
"""
from __future__ import annotations

from itertools import chain, combinations, permutations
from math import factorial
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .frozen import Frozen
from .orbifold import partitions_of

Perm = Tuple[int, ...]

MAX_DEGREE = 16
# kept for the process: every pool some walk drew to its end, by key, and _memo's results
_POOLS: Dict[tuple, Tuple[Perm, ...]] = {}
_MEMO: Dict[tuple, object] = {}


def identity(d: int) -> Perm:
    return tuple(range(d))


def compose(p: Perm, *perms: Perm) -> Perm:
    """Apply left to right: compose(p, q)[i] = q[p[i]]."""
    for q in perms:
        p = tuple(q[i] for i in p)
    return p


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
    """The cycle lengths, largest first, counted without building cycles."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        seen[start] = True
        n = 1
        j = p[start]
        while j != start:
            seen[j] = True
            n += 1
            j = p[j]
        lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


def _has_cycle_type(h: Perm, p: Perm, want: List[int]) -> bool:
    """Whether compose(h, p), the map j -> p[h[j]], has its cycle lengths
    with the counts in `want` (want[n] cycles of length n, summing to
    len(p)), without building it.  Stops at the first cycle whose length is
    used up; a walk that meets none has used every count exactly, since both
    sides sum to len(p)."""
    left = want[:]
    seen = [False] * len(p)
    for start in range(len(p)):
        if seen[start]:
            continue
        seen[start] = True
        n = 1
        j = p[h[start]]
        while j != start:
            seen[j] = True
            n += 1
            j = p[h[j]]
        if not left[n]:
            return False
        left[n] -= 1
    return True


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
    for k, a in {k: parts.count(k) for k in parts}.items():
        denom *= k ** a * factorial(a)
    return factorial(d) // denom


def class_elements(d: int, parts: Sequence[int]) -> Iterator[Perm]:
    """Every permutation of the given cycle type, generated lazily.

    The smallest unplaced point always opens the next cycle, once per
    distinct available length, so each permutation appears exactly once and
    the order is fixed by (d, parts).  Unplaced points stay fixed in img: a
    run of leading points left fixed is one loop step (the longest run
    first), not one call per point, and an element is complete once its
    last non-fixed cycle is placed, which yields each ordering directly.
    """
    img = list(range(d))
    remaining = {k: parts.count(k) for k in parts if k > 1}
    lengths = sorted(remaining)

    def place(n_fixed: int, unused: List[int]) -> Iterator[Perm]:
        if n_fixed == len(unused):
            yield tuple(img)
            return
        # the first j unused points stay fixed and the next opens a cycle
        # (on CPython 3.11 a for loop here made fixed-point-free classes ~10% slower)
        j = n_fixed
        while j >= 0:
            start, rest, fixed = unused[j], unused[j + 1:], n_fixed - j
            j -= 1
            for k in lengths:
                if remaining[k] == 0:
                    continue
                remaining[k] -= 1
                # the last non-fixed cycle: only fixed points follow it
                last = fixed == len(rest) - k + 1
                for chosen in combinations(rest, k - 1):
                    if not last:
                        leftover = [x for x in rest if x not in chosen]
                    for order in permutations(chosen):
                        prev = start
                        for x in order:
                            img[prev] = x
                            prev = x
                        img[prev] = start
                        if last:
                            yield tuple(img)
                        else:
                            yield from place(fixed, leftover)
                    for x in chosen:
                        img[x] = x
                img[start] = start
                remaining[k] += 1

    return place(parts.count(1), list(range(d)))


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


def orbit_reps(elements: Iterable[Perm], p: Perm) -> Iterator[Perm]:
    """Representatives of the orbits of conjugation by the centralizer of
    p: the first element of each orbit, in the order of elements.  Each
    orbit is closed depth first once its representative is consumed, by
    generators built at the first closure, in C on bytes (len(p) < 256):
    ginv.translate(x + pad).translate(g + pad) is conjugate(x, g)."""
    seen = set()
    gens = None
    for e in elements:
        key = bytes(e)
        if key in seen:
            continue
        yield e
        if gens is None:
            pad = bytes(256 - len(p))
            gens = [(bytes(g) + pad, bytes(inverse(g))) for g in centralizer_generators(p)]
        seen.add(key)
        frontier = [key]
        while frontier:
            x = frontier.pop() + pad
            for g, ginv in gens:
                y = ginv.translate(x).translate(g)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)


def transposition(d: int, i: int, j: int) -> Perm:
    img = list(range(d))
    img[i], img[j] = j, i
    return tuple(img)


def _memo(f, *args):
    """f(*args), computed once per process and shared: a query's constants."""
    key = (f,) + args
    return _MEMO[key] if key in _MEMO else _MEMO.setdefault(key, f(*args))


def h_set(d: int, k: int) -> Iterator[Perm]:
    """All permutations expressible as a product of exactly k transpositions
    (Cayley norm <= k with the same parity), generated lazily class by
    class in the order of partitions_of(d)."""
    classes = _memo(partitions_of, d, None, k)
    return chain.from_iterable(class_elements(d, lam) for lam in classes
                               if (k - d + len(lam)) % 2 == 0)


def orbit_roots(perms: Sequence[Perm], d: int) -> List[int]:
    """The least point of each orbit of the group the permutations generate,
    in ascending order: one search from each point not yet reached closes
    its orbit, and every smaller point lies in an orbit closed before."""
    seen = [False] * d
    roots = []
    for x in range(d):
        if seen[x]:
            continue
        roots.append(x)
        seen[x] = True
        stack = [x]
        while stack:
            y = stack.pop()
            for p in perms:
                z = p[y]
                if not seen[z]:
                    seen[z] = True
                    stack.append(z)
    return roots


def is_transitive(perms: Sequence[Perm], d: int) -> bool:
    return len(orbit_roots(perms, d)) == 1


def factor_into_transpositions(h: Perm, k: int,
                               prefix: Sequence[Perm]) -> Optional[List[Perm]]:
    """Transpositions t_1, ..., t_k with compose(t_1, ..., t_k) = h such that
    prefix + [t_1, ..., t_k] is transitive, or None if there are none.

    With c orbits of <prefix, h>, they exist iff k >= n(h) + 2(c - 1) and k
    has the parity of n(h), the Cayley norm d - len(cycle_type(h)).  Necessity is
    Riemann-Hurwitz on each component of the transposition graph: one on v
    points covering r cycles of h needs v + r - 2 edges, and the components
    join the c orbits only if their r - 1 sum to c - 1 or more.  The
    construction meets the bound: a star (c0 c1)(c0 c2)...(c0 cm) per cycle
    (c0 c1 ... cm) of h, a cancelling pair from the first orbit root to each
    other root, and cancelling pairs (0 1)(0 1) for the rest (0-based points).
    """
    d = len(h)
    cycles = cycles_of(h)
    roots = orbit_roots(list(prefix) + [h], d)
    spare = k - (d - len(cycles)) - 2 * (len(roots) - 1)
    if spare < 0 or spare % 2 or (spare and d < 2):
        return None
    out = [_memo(transposition, d, cyc[0], x) for cyc in cycles for x in cyc[1:]]
    for r in roots[1:]:
        out += [_memo(transposition, d, roots[0], r)] * 2
    return out + [_memo(transposition, d, 0, 1) for _ in range(spare)]


class PermutationTuple(NamedTuple):
    degree: int
    perms: Tuple[Perm, ...]


class RealizabilityCertificate(Frozen):
    """The answer to one query: the realising tuple when it exists, the
    search counters, and why none exists otherwise.  stats defaults to a
    fresh dict per certificate."""

    __slots__ = _fields = ("exists", "tuple_", "stats", "reason")
    exists: bool
    tuple_: Optional[PermutationTuple]
    stats: Dict[str, int]
    reason: str

    def __init__(self, exists: bool, tuple_: Optional[PermutationTuple],
                 stats: Optional[Dict[str, int]] = None, reason: str = ""):
        super().__init__(exists, tuple_, {} if stats is None else stats, reason)


def format_perm(p: Perm) -> str:
    """1-based cycle notation, fixed points omitted."""
    parts = ["(" + " ".join(str(i + 1) for i in c) + ")"
             for c in cycles_of(p) if len(c) > 1]
    return "".join(parts) if parts else "id"


def _reorder_to(perms: List[Perm], types: List[Tuple[int, ...]],
                want_types: Sequence[Tuple[int, ...]]) -> List[Perm]:
    """perms in the order of want_types, keeping the product: an entry w
    moves left past entries of product X as X w X^-1 (the braids (a, b) ->
    (a b a^-1, a) in one step); types, the search's cycle types, moves too."""
    cur = list(perms)
    for pos, want in enumerate(want_types):
        if want not in types[pos:]:
            raise AssertionError("braid reordering lost a cycle type")
        src = types.index(want, pos)
        if src > pos:
            moved = conjugate(cur[src], inverse(compose(*cur[pos:src])))
            cur[pos:src + 1] = [moved] + cur[pos:src]
            types[pos:src + 1] = [want] + types[pos:src]
    return cur


class _Pool:
    """A re-iterable view of a lazy pool: each item is drawn from the source
    the first time a walk reaches it, so a pool walked once per prefix is
    generated once, and only up to where the search stops.  Walks never
    interleave: each replays the drawn list, then draws on; at the source's
    end the list becomes a tuple, published in _POOLS under key."""

    def __init__(self, source: Iterable[Perm], key: tuple):
        self._source: Optional[Iterator[Perm]] = iter(source)
        self._drawn: List[Perm] = []
        self._key = key

    def __iter__(self) -> Iterator[Perm]:
        return iter(self._drawn) if self._source is None else self._draw()

    def _draw(self) -> Iterator[Perm]:
        yield from self._drawn
        for item in self._source:
            self._drawn.append(item)
            yield item
        self._source = None
        _POOLS[self._key] = self._drawn = tuple(self._drawn)


def verify_tuple(perms: Sequence[Perm], types: Sequence[Sequence[int]],
                 degree: int) -> bool:
    """Each entry a permutation of range(degree), requested cycle types,
    product identity (the empty product included), transitivity."""
    if len(perms) != len(types):
        return False
    points = set(range(degree))
    for p, t in zip(perms, types):
        if len(p) != degree or set(p) != points:
            return False
        if cycle_type(p) != tuple(sorted(t, reverse=True)):
            return False
    return (compose(identity(degree), *perms) == identity(degree)
            and is_transitive(perms, degree))


def find_tuple(types: Sequence[Sequence[int]], degree: int) -> RealizabilityCertificate:
    """Search for a transitive tuple with the given cycle types and identity
    product.

    Soundness: any returned tuple is re-verified from scratch, the one
    place cycle_type reads an entry; the reorder before it takes the entry
    types from the search.  Completeness: global conjugation makes the
    canonical anchor representative free, and conjugating by the anchor's
    centralizer (its generators built at the first orbit closure) reduces
    the first remaining class to orbit representatives; the second-largest
    class never needs enumeration because the product relation determines
    it.  For each h the leaf tests the type of h P (P the prefix product),
    that of the derived entry (h P)^-1, without building h P, and composes
    the entry only on a hit; every h is still tested.  The pools are lazy in
    a fixed order, published as tuples only once drawn to the end, so the
    walk, its first hit, stats and reason do not depend on how far, or in
    which query, they were generated.  Degree 1 takes the same path: its one
    h factors into the empty tuple.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} above search cap {MAX_DEGREE}")
    norm_types = [tuple(sorted(t, reverse=True)) for t in types]
    for t in norm_types:
        if sum(t) != degree or t[-1] < 1:
            raise ValueError(f"type {t} is not a partition of {degree}")
    stats = {"outer": 0, "h": 0, "typehits": 0}

    if sum(degree - len(t) for t in norm_types) % 2 != 0:
        return RealizabilityCertificate(False, None, stats,
                                        "odd total branching, no tuple has identity product")

    work = [t for t in norm_types if t[0] > 1]
    # not transpositions: a part above 2, or two parts of 2
    big = sorted((t for t in work if t[0] > 2 or t[1:2] == (2,)),
                 key=lambda t: _memo(class_size, degree, t))
    n_tau = len(work) - len(big)

    def try_h(prefix: List[Perm], h: Perm) -> Optional[List[Perm]]:
        stats["h"] += 1
        taus = factor_into_transpositions(h, n_tau, prefix)
        return None if taus is None else prefix + taus

    if len(big) <= 1:
        # freeze the one class, if any; the transpositions must multiply to
        # the inverse of its representative (outer counts frozen anchors)
        prefix = [_memo(canonical_perm, t) for t in big]
        stats["outer"] += len(prefix)
        found = try_h(prefix, inverse(compose(identity(degree), *prefix)))
    else:
        derived_counts = [big[-2].count(n) for n in range(degree + 1)]
        anchor = _memo(canonical_perm, big[-1])
        h_pool = _POOLS.get((degree, n_tau)) or _Pool(h_set(degree, n_tau), (degree, n_tau))
        middle_pools = []
        for i, mt in enumerate(big[:-2]):
            key = (degree, mt, big[-1]) if i == 0 else (degree, mt)
            elems = _POOLS.get(key)
            if elems is None:
                elems = class_elements(degree, mt)
                elems = _Pool(orbit_reps(elems, anchor) if i == 0 else elems, key)
            middle_pools.append(elems)

        def walk(i: int, prefix: List[Perm], prefix_prod: Perm) -> Optional[List[Perm]]:
            if i == len(middle_pools):
                # the derived element (h prefix_prod)^-1 has the type of
                # h prefix_prod, which is tested without being built
                n = 0
                for n, h in enumerate(h_pool, 1):
                    if not _has_cycle_type(h, prefix_prod, derived_counts):
                        continue
                    stats["typehits"] += 1
                    got = try_h(prefix + [inverse(compose(h, prefix_prod))], h)
                    if got is not None:
                        stats["outer"] += n
                        return got
                stats["outer"] += n
                return None
            for m in middle_pools[i]:
                got = walk(i + 1, prefix + [m], compose(prefix_prod, m))
                if got is not None:
                    return got
            return None

        found = walk(0, [anchor], anchor)

    if found is None:
        return RealizabilityCertificate(False, None, stats, "search space exhausted")

    # restore the requested order from the types the search built (anchor,
    # middles, derived, transpositions); identity entries change nothing
    n_identity = len(norm_types) - len(work)
    found_types = (big[-1:] + big[:-2] + big[-2:-1] + [(2,) + (1,) * (degree - 2)] * n_tau
                   + [(1,) * degree] * n_identity)
    final = _reorder_to(found + [identity(degree)] * n_identity, found_types, norm_types)
    if not verify_tuple(final, norm_types, degree):
        raise AssertionError("internal error: candidate tuple failed re-verification")
    return RealizabilityCertificate(True, PermutationTuple(degree, tuple(final)), stats)


def realize_profile(profile) -> RealizabilityCertificate:
    """Certificate for a RamificationProfile, free points included as
    transpositions."""
    return find_tuple(profile.with_free_points().partitions, profile.degree)
