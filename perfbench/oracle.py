"""Hurwitz queries for the benchmark and an oracle that does not use garnier.

Three things live here, all independent of the package under test:

* the query sets of the ``hurwitz`` workload: every genus-0 type multiset
  with d <= 5 and at most six non-identity classes, and three-fibre
  profiles with free simple branch points at d = 6..10 -- drawn from the
  seed at d = 6..8, a fixed panel at d = 9, 10;
* ``exists``: an exhaustive dynamic programme over (partial product, orbit
  partition) that decides existence of a transitive tuple with identity
  product, practical for d <= 5;
* ``verify``: a from-scratch check of a certificate (product, cycle types,
  transitivity).

Queries and certificates are stored in ``reference.json`` in a compact
text form: ``query_key`` gives "d:3,1;2,1,1;..." and a certificate is its
permutations as digit strings joined by ";" (d <= 10, one digit a point).

Permutations are tuples of 0-based images; the product applies the first
factor first.  Existence does not depend on that convention, because
inverting every factor and reversing the order maps one to the other.
"""
from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from typing import List, Sequence, Tuple

Types = Tuple[Tuple[int, ...], ...]

ORACLE_MAX_DEGREE = 5
DRAW_MAX_FREE = 3
# A query at d = 9 or 10 costs 25-130 ms with a coefficient of variation
# near 0.8, so drawing those per seed moved queries/s by about 25% between
# seeds.  They form a fixed panel; the cheaper degrees follow the seed.
SEEDED_DEGREES = (6, 7, 8)
PANEL_DEGREES = (9, 10)
PANEL_SEED = "hurwitz-panel"


def partitions(n: int, max_part: int = None) -> List[Tuple[int, ...]]:
    """Partitions of n in descending-lex order."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    return [(first,) + rest
            for first in range(min(n, max_part), 0, -1)
            for rest in partitions(n - first, first)]


def transposition_type(d: int) -> Tuple[int, ...]:
    return (2,) + (1,) * (d - 2)


def branching(d: int, types: Sequence[Sequence[int]]) -> int:
    return sum(d - len(t) for t in types)


def small_queries(max_degree: int = ORACLE_MAX_DEGREE,
                  max_classes: int = 6) -> List[Tuple[int, Types]]:
    """Every genus-0 multiset of non-identity cycle types (total branching
    2d - 2) with d <= max_degree and 1..max_classes classes."""
    out = []
    for d in range(1, max_degree + 1):
        kinds = [p for p in partitions(d) if p[0] > 1]
        for k in range(1, max_classes + 1):
            for combo in combinations_with_replacement(kinds, k):
                if branching(d, combo) == 2 * d - 2:
                    out.append((d, tuple(combo)))
    return out


@lru_cache(maxsize=None)
def three_fibre_population(d: int) -> Tuple[Types, ...]:
    """Branch data over three marked points plus N <= DRAW_MAX_FREE free
    simple branch points, N fixed by genus 0: the shape of every query
    the classification sends to realize_profile."""
    kinds = [p for p in partitions(d) if p[0] > 1]
    out = []
    for combo in combinations_with_replacement(kinds, 3):
        n_free = sum(len(t) for t in combo) - d - 2
        if 0 <= n_free <= DRAW_MAX_FREE:
            out.append(combo + (transposition_type(d),) * n_free)
    return tuple(out)


def _sample(rng: random.Random, degrees, per_degree: int) -> List[Tuple[int, Types]]:
    return [(d, rng.choice(three_fibre_population(d)))
            for d in degrees for _ in range(per_degree)]


def drawn_queries(seed: int, per_degree: int) -> List[Tuple[int, Types]]:
    """per_degree uniform members of each SEEDED_DEGREES population."""
    return _sample(random.Random(f"hurwitz:{seed}"), SEEDED_DEGREES, per_degree)


def panel_queries(per_degree: int) -> List[Tuple[int, Types]]:
    """The fixed panel: per_degree members of each PANEL_DEGREES population,
    the same for every seed."""
    return _sample(random.Random(PANEL_SEED), PANEL_DEGREES, per_degree)


def query_key(d: int, types: Sequence[Sequence[int]]) -> str:
    return f"{d}:" + ";".join(",".join(map(str, t)) for t in types)


def parse_key(key: str) -> Tuple[int, Types]:
    d, _, rest = key.partition(":")
    return int(d), tuple(tuple(map(int, t.split(","))) for t in rest.split(";"))


def parse_certificate(text: str) -> List[Tuple[int, ...]]:
    return [tuple(map(int, p)) for p in text.split(";")]


def cycle_type(p: Sequence[int]) -> Tuple[int, ...]:
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        n, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = p[j]
            n += 1
        lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


def _then(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    """p first, then q."""
    return tuple(q[i] for i in p)


def _merge(labels: Tuple[int, ...], g: Tuple[int, ...]) -> Tuple[int, ...]:
    """Orbit labels (least point of each block) after adding generator g."""
    out = list(labels)
    for i, j in enumerate(g):
        a, b = out[i], out[j]
        if a != b:
            lo, hi = min(a, b), max(a, b)
            out = [lo if x == hi else x for x in out]
    return tuple(out)


@lru_cache(maxsize=None)
def _class(d: int, t: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    return tuple(p for p in permutations(range(d)) if cycle_type(p) == t)


def exists(d: int, types: Sequence[Sequence[int]]) -> bool:
    """Whether some transitive tuple with these cycle types has identity
    product, by exhausting every reachable (partial product, orbits)."""
    if d > ORACLE_MAX_DEGREE:
        raise ValueError(f"oracle covers d <= {ORACLE_MAX_DEGREE}, got {d}")
    ident = tuple(range(d))
    states = {(ident, ident)}
    for t in types:
        elems = _class(d, tuple(sorted(t, reverse=True)))
        states = {(_then(prod, g), _merge(labels, g))
                  for prod, labels in states for g in elems}
    return (ident, (0,) * d) in states


def verify(d: int, types: Sequence[Sequence[int]],
           perms: Sequence[Sequence[int]]) -> bool:
    """Certificate check: one permutation of {0..d-1} per type, each of the
    requested cycle type, identity product (first factor applied first),
    transitive."""
    if len(perms) != len(types):
        return False
    ident = tuple(range(d))
    for p, t in zip(perms, types):
        if sorted(p) != list(ident):
            return False
        if cycle_type(p) != tuple(sorted(t, reverse=True)):
            return False
    prod = ident
    for p in perms:
        prod = _then(prod, tuple(p))
    if prod != ident:
        return False
    reached, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = p[x]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return len(reached) == d
