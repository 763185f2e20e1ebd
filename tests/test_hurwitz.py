from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from garnier import hurwitz
from garnier.hurwitz import (
    MAX_DEGREE,
    PermutationTuple,
    _has_cycle_type,
    canonical_perm,
    class_elements,
    class_size,
    centralizer_generators,
    compose,
    conjugate,
    cycle_type,
    cycles_of,
    factor_into_transpositions,
    find_tuple,
    format_perm,
    h_set,
    identity,
    inverse,
    is_transitive,
    orbit_reps,
    orbit_roots,
    realize_profile,
    transposition,
    verify_tuple,
)
from garnier.enumeration import partitions_of
from garnier.orbifold import RamificationProfile


@pytest.fixture
def empty_pool_store(monkeypatch):
    """An empty pool store for the test, so that it generates every pool it
    walks; the process's store is put back afterwards."""
    monkeypatch.setattr(hurwitz, "_POOLS", {})


class _Unkept(dict):
    """A pool store that keeps nothing: every query generates its pools."""

    def __setitem__(self, key, value):
        pass


def test_compose_left_to_right():
    p = (1, 0, 2)  # (1 2) in 1-based cycles
    q = (0, 2, 1)  # (2 3)
    # apply p first, then q
    assert compose(p, q) == (2, 0, 1)
    assert compose(p, q) != compose(q, p)
    assert compose(p) == p
    assert compose(p, inverse(p)) == identity(3)


def test_cycles_and_types():
    p = canonical_perm([3, 2, 1])
    assert cycle_type(p) == (3, 2, 1)
    assert _cayley_norm(p) == (3 - 1) + (2 - 1)
    assert cycles_of(identity(3)) == [(0,), (1,), (2,)]
    assert format_perm(p) == "(1 2 3)(4 5)"
    assert format_perm(identity(4)) == "id"


def _cayley_norm(p):
    # the least number of transpositions whose product is p
    return len(p) - len(cycle_type(p))


def _random_perm(rng, d):
    img = list(range(d))
    rng.shuffle(img)
    return tuple(img)


def test_cycle_type_counts_the_cycles_it_walks():
    # the length walk against the lengths of the cycles themselves: every
    # permutation of degree 0..6, then seeded ones of degree 7..16
    rng = random.Random(30)
    perms = [p for d in range(7) for p in permutations(range(d))]
    perms += [_random_perm(rng, rng.randint(7, 16)) for _ in range(300)]
    for p in perms:
        cycles = cycles_of(p)
        assert cycle_type(p) == tuple(sorted(map(len, cycles), reverse=True)), p
        assert _cayley_norm(p) == len(p) - len(cycles), p


def _counts(t, size):
    """counts[n]: the cycles of length n in type t, for n < size."""
    counts = [0] * size
    for n in t:
        counts[n] += 1
    return counts


def test_has_cycle_type_agrees_with_cycle_type():
    # the leaf loop's early-exit test of compose(h, p), which it never
    # builds, against the full sorted cycle type of the built product; each
    # type as full counts (length d + 1) and as find_tuple passes them,
    # trimmed to its largest part (length t[0] + 1), so that a longer cycle
    # must be rejected at the bound.  Every pair of degree <= 5 first
    for d in range(1, 6):
        perms = list(permutations(range(d)))
        wants = [(t, want) for t in partitions_of(d)
                 for want in (_counts(t, d + 1), _counts(t, t[0] + 1))]
        for h in perms:
            for p in perms:
                got = cycle_type(compose(h, p))
                for t, want in wants:
                    assert _has_cycle_type(h, p, want) == (got == t), (h, p, want)
    # the counts are copied, not used up across calls
    assert wants[0][1] == [0, 0, 0, 0, 0, 1]
    assert wants[1][1] == [0, 0, 0, 0, 0, 1]
    assert wants[-1][1] == [0, 5]
    # then seeded pairs of degree 6..16 whose product has a type drawn
    # uniformly, against that type and up to 20 others of the degree
    rng = random.Random(41)
    for d in range(6, MAX_DEGREE + 1):
        kinds = partitions_of(d)
        for _ in range(20):
            t = rng.choice(kinds)
            x = conjugate(canonical_perm(t), _random_perm(rng, d))
            p = _random_perm(rng, d)
            h = compose(x, inverse(p))
            assert compose(h, p) == x and cycle_type(x) == t
            for u in rng.sample(kinds, min(20, len(kinds))) + [t]:
                for want in (_counts(u, d + 1), _counts(u, u[0] + 1)):
                    assert _has_cycle_type(h, p, want) == (u == t), (h, p, want)


def test_conjugate_preserves_type():
    p = canonical_perm([4, 2])
    c = canonical_perm([3, 3])
    q = conjugate(p, c)
    assert cycle_type(q) == cycle_type(p)
    assert compose(inverse(c), p, c) == q or compose(c, p, inverse(c)) == q


def test_class_size():
    assert class_size(4, [2, 2]) == 3
    assert class_size(4, [3, 1]) == 8
    assert class_size(4, [2, 1, 1]) == 6
    assert class_size(4, [4]) == 6
    assert class_size(4, [1, 1, 1, 1]) == 1
    for d in (4, 5):
        from garnier.enumeration import partitions_of
        assert sum(class_size(d, lam) for lam in partitions_of(d)) == math.factorial(d)


def test_class_elements():
    for d, lam in [(4, [2, 2]), (4, [3, 1]), (5, [2, 2, 1]), (5, [5])]:
        els = list(class_elements(d, lam))
        assert len(els) == class_size(d, lam)
        assert len(set(els)) == len(els)
        assert all(cycle_type(p) == tuple(sorted(lam, reverse=True)) for p in els)


def _group(gens, d):
    """Every element of the group the generators produce."""
    seen = {identity(d)}
    frontier = [identity(d)]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = compose(cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_centralizer_generators():
    p = canonical_perm([2, 2])
    gens = centralizer_generators(p)
    for g in gens:
        assert compose(g, p) == compose(p, g)
    # closure of the generators has the full centralizer order d!/|class|
    assert len(_group(gens, 4)) == math.factorial(4) // class_size(4, [2, 2])


def test_orbit_reps():
    p = canonical_perm([2, 2])
    gens = centralizer_generators(p)
    reps = list(orbit_reps(class_elements(4, [3, 1]), p))
    assert 1 <= len(reps) < class_size(4, [3, 1])
    assert reps[0] == next(class_elements(4, [3, 1]))
    # the centralizer conjugates each rep around its orbit; the orbits are
    # disjoint and together cover the class
    orbits = [{conjugate(r, c) for c in _group(gens, 4)} for r in reps]
    assert all(a.isdisjoint(b) for a, b in combinations(orbits, 2))
    assert sum(len(o) for o in orbits) == class_size(4, [3, 1])


def test_h_set_parity_and_norm():
    for h in h_set(4, 2):
        assert _cayley_norm(h) <= 2
        assert _cayley_norm(h) % 2 == 0
    assert identity(4) in h_set(4, 2)
    assert all(_cayley_norm(h) in (1,) for h in h_set(4, 1))


def test_factor_into_transpositions():
    # (h, prefix, orbits of <prefix, h>)
    cases = [
        (identity(4), [], 4),
        (canonical_perm([3, 1]), [], 2),
        (canonical_perm([2, 2]), [canonical_perm([2, 2])], 2),
        (inverse(canonical_perm([4])), [canonical_perm([4])], 1),
        (canonical_perm([2, 1, 1, 1]), [canonical_perm([3, 1, 1])], 3),
        (inverse(canonical_perm([3, 1, 1])), [canonical_perm([3, 1, 1])], 3),
    ]
    for h, prefix, c in cases:
        d = len(h)
        assert len(orbit_roots(prefix + [h], d)) == c
        least = _cayley_norm(h) + 2 * (c - 1)
        for k in (least, least + 2, least + 4):
            taus = factor_into_transpositions(h, k, prefix)
            assert len(taus) == k
            assert all(cycle_type(t) == (2,) + (1,) * (d - 2) for t in taus)
            assert compose(identity(d), *taus) == h
            assert is_transitive(prefix + taus, d)
        # one pair short of joining the orbits, or the wrong parity
        for k in (least - 2, least - 1, least + 1):
            assert factor_into_transpositions(h, k, prefix) is None, (h, prefix, k)


def test_factor_into_transpositions_builds_stars():
    # each h-cycle (c0 c1 ... cm) becomes (c0 c1)(c0 c2)...(c0 cm)
    h = canonical_perm([3, 2])
    assert factor_into_transpositions(h, 3, [transposition(5, 2, 3)]) == [
        transposition(5, 0, 1), transposition(5, 0, 2), transposition(5, 3, 4)]
    # then a cancelling pair joining the two orbits, then spare pairs (0 1)
    assert factor_into_transpositions(h, 7, [])[3:] == [
        transposition(5, 0, 3)] * 2 + [transposition(5, 0, 1)] * 2
    assert factor_into_transpositions(identity(1), 0, []) == []
    assert factor_into_transpositions(identity(1), 2, []) is None


def test_is_transitive():
    assert is_transitive([canonical_perm([4])], 4)
    assert not is_transitive([canonical_perm([2, 2])], 4)
    assert is_transitive([canonical_perm([2, 1, 1]), canonical_perm([1, 2, 1])], 4) is False
    assert is_transitive([(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)], 4)
    assert orbit_roots([canonical_perm([2, 2, 1])], 5) == [0, 2, 4]
    # seeded lists of permutations of random subsets (all points for some)
    rng = random.Random(9)
    for _ in range(300):
        d = rng.randint(1, 9)
        perms = []
        for _ in range(rng.randint(0, 3)):
            img = list(range(d))
            moved = rng.sample(range(d), rng.randint(0, d))
            for i, j in zip(moved, rng.sample(moved, len(moved))):
                img[i] = j
            perms.append(tuple(img))
        want = _least_orbit_points(perms, d)
        assert orbit_roots(perms, d) == want, (perms, d)
        assert is_transitive(perms, d) == (len(want) == 1), (perms, d)


def _least_orbit_points(perms, d):
    """Reference: grow each point's orbit by all images until it stops
    growing; the least point of each orbit, in ascending order."""
    roots = set()
    for x in range(d):
        orbit, grown = set(), {x}
        while grown != orbit:
            orbit, grown = grown, grown | {p[y] for p in perms for y in grown}
        roots.add(min(orbit))
    return sorted(roots)


def test_orbit_roots_match_bfs_closure():
    rng = random.Random(5)
    for _ in range(400):
        d = rng.randint(1, 8)
        perms = []
        for _ in range(rng.randint(0, 3)):
            # mostly sparse permutations, so that orbits stay apart
            img = list(range(d))
            for _ in range(rng.randint(0, 2)):
                i, j = rng.randrange(d), rng.randrange(d)
                img[i], img[j] = img[j], img[i]
            perms.append(tuple(img))
        # the reference closes each orbit breadth first, level by level
        assert orbit_roots(perms, d) == _least_orbit_points(perms, d), (perms, d)


def test_verify_tuple():
    a = (1, 0, 3, 2)  # (1 2)(3 4)
    b = (2, 3, 0, 1)  # (1 3)(2 4)
    c = (3, 2, 1, 0)  # (1 4)(2 3)
    assert compose(a, b, c) == identity(4)
    assert verify_tuple([a, b, c], [(2, 2)] * 3, 4)
    assert not verify_tuple([a, b, c], [(2, 2), (2, 2), (4,)], 4)
    assert not verify_tuple([a, b], [(2, 2)] * 3, 4)
    # intransitive tuples fail even with identity product
    t = (1, 0, 2, 3)
    assert not verify_tuple([t, t], [(2, 1, 1)] * 2, 4)
    # the empty product is the identity; on three points it has three orbits
    assert verify_tuple([], [], 1)
    assert not verify_tuple([], [], 3)


def test_verify_tuple_rejects_non_permutations():
    # a repeated image would send cycles_of round a loop it never leaves,
    # and an image out of range would index past the end
    assert not verify_tuple([(0, 0), (0, 1)], [(2,), (1, 1)], 2)
    assert not verify_tuple([(1, 2), (1, 0)], [(2,), (2,)], 2)
    assert not verify_tuple([(1, 0, 2), (1, 0)], [(2,), (2,)], 2)
    assert verify_tuple([(1, 0), (1, 0)], [(2,), (2,)], 2)


def _scanning_reorder_to(perms, want_types):
    """Reference: for each position, scan the remaining entries for the
    first of the requested type and braid it left by a b a^-1."""
    cur = list(perms)
    for pos, want in enumerate(want_types):
        src = next(j for j in range(pos, len(cur)) if cycle_type(cur[j]) == want)
        for j in range(src, pos, -1):
            a, b = cur[j - 1], cur[j]
            cur[j - 1], cur[j] = compose(a, b, inverse(a)), a
    return cur


def test_reorder_to_carries_the_types_through_the_braids():
    # repeated types and identity entries, in seeded shuffled orders
    rng = random.Random(32)
    d = 6
    kinds = [(3, 2, 1), (2, 2, 1, 1), (2, 1, 1, 1, 1), (1,) * 6, (4, 2)]
    for _ in range(200):
        perms = []
        for _ in range(rng.randint(1, 7)):
            c = _random_perm(rng, d)
            perms.append(conjugate(canonical_perm(rng.choice(kinds)), c))
        types = [cycle_type(p) for p in perms]
        want = types[:]
        rng.shuffle(want)
        got = hurwitz._reorder_to(perms, types, want)
        assert [cycle_type(p) for p in got] == want, (perms, want)
        assert compose(identity(d), *got) == compose(identity(d), *perms)
        assert got == _scanning_reorder_to(perms, want), (perms, want)


def test_reorder_to_matches_braid_by_braid():
    # seeded entries of degree 1..9, identity entries among them, in
    # shuffled orders: one conjugation per moved entry gives what one braid
    # at a time gives, moves the types with the entries, and keeps the
    # ordered product
    rng = random.Random(31)
    for _ in range(300):
        d = rng.randint(1, 9)
        perms = [identity(d) if rng.random() < 0.25 else _random_perm(rng, d)
                 for _ in range(rng.randint(1, 7))]
        types = [cycle_type(p) for p in perms]
        want = types[:]
        rng.shuffle(want)
        got = hurwitz._reorder_to(perms, types, want)
        assert got == _scanning_reorder_to(perms, want), (perms, want)
        assert types == want
        assert compose(identity(d), *got) == compose(identity(d), *perms)


def test_reorder_to_reports_a_missing_type_as_an_internal_error():
    # an AssertionError, never the ValueError that the CLI reports as a
    # usage error with exit 2
    t = canonical_perm([2, 1])
    for perms, want in [([t], [(3,)]),
                        ([t, identity(3)], [(2, 1), (2, 1)]),
                        ([t], [(2, 1), (2, 1)])]:
        with pytest.raises(AssertionError):
            hurwitz._reorder_to(perms, [cycle_type(p) for p in perms], want)


def test_find_tuple_reads_each_type_once(monkeypatch):
    calls = []
    read = hurwitz.cycle_type

    def counted(p):
        calls.append(p)
        return read(p)

    monkeypatch.setattr(hurwitz, "cycle_type", counted)
    types = [(2, 2), (1, 1, 1, 1), (3, 1), (2, 1, 1), (2, 1, 1)]
    cert = find_tuple(types, 4)
    assert cert.exists
    # once per entry of the result, as verify_tuple checks it: the reorder
    # takes the types the search built
    assert len(calls) == len(types)
    assert calls == list(cert.tuple_.perms)


def test_centralizer_generators_are_built_at_the_first_orbit_closure(monkeypatch,
                                                                    empty_pool_store):
    built = []
    generate = hurwitz.centralizer_generators

    def counted(p):
        built.append(p)
        return generate(p)

    monkeypatch.setattr(hurwitz, "centralizer_generators", counted)
    p = canonical_perm([2, 2])
    reps = orbit_reps(class_elements(4, [3, 1]), p)
    next(reps)
    assert built == []
    list(reps)
    assert built == [p]
    # the first middle representative succeeds: no orbit is closed
    built.clear()
    cert = find_tuple([(3, 1), (3, 1), (2, 2)], 4)
    assert (cert.exists, cert.stats) == (True, {"outer": 1, "h": 1, "typehits": 1})
    assert built == []
    # it fails here, and the anchor's generators are built once
    cert = find_tuple([(3, 1), (3, 1), (3, 1)], 4)
    assert (cert.exists, cert.stats) == (True, {"outer": 2, "h": 1, "typehits": 1})
    assert built == [canonical_perm([3, 1])]
    for d, types in _match_queries():
        built.clear()
        find_tuple(types, d)
        assert len(built) <= 1, (d, types)


@pytest.mark.parametrize("types", [[], [(1,)], [(1,)] * 3])
def test_find_tuple_degree_one_takes_the_search_path(types):
    # the one h tried is the identity, factored into no transpositions
    cert = find_tuple(types, 1)
    assert (cert.exists, cert.reason) == (True, "")
    assert cert.tuple_ == PermutationTuple(1, ((0,),) * len(types))
    assert cert.stats == {"outer": 0, "h": 1, "typehits": 0}


def test_find_tuple_degree_four_row():
    types = [(2, 2), (3, 1), (1, 1, 1, 1), (2, 1, 1), (2, 1, 1)]
    cert = find_tuple(types, 4)
    assert cert.exists
    perms = cert.tuple_.perms
    assert verify_tuple(perms, types, 4)
    assert [cycle_type(p) for p in perms] == [tuple(sorted(t, reverse=True)) for t in types]


def test_find_tuple_counterexample():
    # a (2,2)-class times a 3-cycle lands outside the Klein four-group in S4
    cert = find_tuple([(2, 2), (2, 2), (3, 1)], 4)
    assert not cert.exists
    assert cert.tuple_ is None


@pytest.mark.parametrize("degree, types", [
    (3, [(2, 1)] * 4),
    (4, [(2, 2)] + [(2, 1, 1)] * 4),
    (5, [(3, 1, 1)] + [(2, 1, 1, 1)] * 6),
    (5, [(2, 2, 1)] + [(2, 1, 1, 1)] * 6),
    (5, [(2, 1, 1, 1)] * 8),
])
def test_find_tuple_transposition_blocks_that_must_join_orbits(degree, types):
    # the first factorisation of h into transpositions is intransitive here;
    # these were once answered NOT_EXISTS
    cert = find_tuple(types, degree)
    assert cert.exists
    assert verify_tuple(cert.tuple_.perms, types, degree)


def _exists_by_dp(d, types):
    """Reference: exhaust every reachable (partial product, orbit labels),
    labelling each orbit by its least point."""
    ident = tuple(range(d))
    by_type = {}
    for p in permutations(ident):
        by_type.setdefault(cycle_type(p), []).append(p)
    states = {ident: {ident}}  # orbit labels -> partial products
    for t in types:
        nxt = {}
        for labels, prods in states.items():
            for g in by_type[t]:
                out = list(labels)
                for i, j in enumerate(g):
                    lo, hi = sorted((out[i], out[j]))
                    if lo != hi:
                        out = [lo if x == hi else x for x in out]
                nxt.setdefault(tuple(out), set()).update(compose(p, g) for p in prods)
        states = nxt
    return ident in states.get((0,) * d, ())


def _genus0_queries():
    """Every genus-0 multiset of non-identity types with d <= 5 and at most
    8 classes."""
    queries = []
    for d in range(2, 6):
        kinds = [lam for lam in partitions_of(d) if lam[0] > 1]
        for k in range(1, 9):
            for combo in combinations_with_replacement(kinds, k):
                if sum(d - len(t) for t in combo) == 2 * d - 2:
                    queries.append((d, combo))
    assert len(queries) == 63
    return queries


def test_find_tuple_agrees_with_dp_oracle():
    for d, types in _genus0_queries():
        cert = find_tuple(types, d)
        assert cert.exists is _exists_by_dp(d, types), (d, types)
        if cert.exists:
            assert verify_tuple(cert.tuple_.perms, types, d)


def _realisable_draws(seed, count, degrees, max_genus=None):
    """Seeded instances that exist by construction, as (d, types, genus):
    r - 1 entries (r = 3..6), each a uniform element of a class drawn as a
    transposition half the time, a 3-cycle a quarter and any type of d
    otherwise, then the inverse of their product, which closes the tuple.
    An intransitive tuple, or one of genus above max_genus, is dropped;
    the types are read off the rest."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d, r = rng.choice(degrees), rng.randint(3, 6)
        perms = []
        for _ in range(r - 1):
            u = rng.random()
            t = (2,) if u < 0.5 else (3,) if u < 0.75 else rng.choice(partitions_of(d))
            t += (1,) * (d - sum(t))
            perms.append(conjugate(canonical_perm(t), _random_perm(rng, d)))
        perms.append(inverse(compose(identity(d), *perms)))
        types = [cycle_type(p) for p in perms]
        genus = (sum(d - len(t) for t in types) - 2 * d + 2) // 2
        if is_transitive(perms, d) and (max_genus is None or genus <= max_genus):
            out.append((d, types, genus))
    return out


def test_find_tuple_realises_random_tuples(empty_pool_store):
    # a second oracle past d = 5: every drawn type multiset exists, whatever
    # its genus, and its certificate passes verify_tuple; the cap on the
    # genus keeps this to about a second
    draws = _realisable_draws(29, 2000, range(3, 11), max_genus=3)
    assert {g for _, _, g in draws} == {0, 1, 2, 3}
    for d, types, _ in draws:
        cert = find_tuple(types, d)
        assert cert.exists, (d, types)
        assert verify_tuple(cert.tuple_.perms, types, d), (d, types)


@pytest.mark.slow
def test_find_tuple_realises_random_tuples_of_any_genus(empty_pool_store):
    # the same oracle up to the search cap, with no cap on the genus
    for d, types, _ in _realisable_draws(30, 150, range(6, MAX_DEGREE + 1)):
        cert = find_tuple(types, d)
        assert cert.exists, (d, types)
        assert verify_tuple(cert.tuple_.perms, types, d), (d, types)


def test_find_tuple_parity_precheck():
    cert = find_tuple([(2, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1)], 4)
    assert not cert.exists
    assert "odd" in cert.reason


def test_find_tuple_validation():
    with pytest.raises(ValueError):
        find_tuple([(2, 2)], 3)
    with pytest.raises(ValueError):
        find_tuple([(2,)], MAX_DEGREE + 1)
    # a part below 1 is rejected wherever it sorts
    for bad in [(2, 2, 0), (3, 2, -1), (5, -1)]:
        with pytest.raises(ValueError):
            find_tuple([bad, (2, 2)], 4)


def test_find_tuple_identity_types():
    # identity fibers are reinserted at their requested positions
    types = [(2, 2), (1, 1, 1, 1), (3, 1), (2, 1, 1), (2, 1, 1)]
    cert = find_tuple(types, 4)
    assert cert.exists
    assert verify_tuple(cert.tuple_.perms, types, 4)


def test_find_tuple_two_point_case():
    # cyclic covering: two full cycles compose to the identity
    cert = find_tuple([(5,), (5,)], 5)
    assert cert.exists
    assert verify_tuple(cert.tuple_.perms, [(5,), (5,)], 5)


def test_realize_profile_complete_rows():
    from garnier.enumeration import complete_profiles

    for t, d, profile in complete_profiles(5):
        cert = realize_profile(profile)
        assert cert.exists, (str(t), d)
        want = list(profile.partitions) + [(2,) + (1,) * (d - 2)] * profile.free_points
        assert verify_tuple(cert.tuple_.perms, want, d)


def test_realize_profile_rejects_negative_free_count():
    # too much branching over the marked points for a genus-0 cover: the
    # search must not run without the transpositions the balance asks for
    profile = RamificationProfile(4, [(2, 2), (3, 1), (4,), (4,)])
    assert profile.free_points == -4
    with pytest.raises(ValueError):
        realize_profile(profile)


# the T1/T4 rows the benchmark realises; the d = 12 row has 2 free points
PROFILE_ROWS = [
    (4, [(2, 2), (3, 1), (1, 1, 1, 1)]),
    (6, [(2, 2, 2), (3, 3), (2, 1, 1, 1, 1)]),
    (6, [(2, 2, 2), (3, 3), (1,) * 6]),
    (12, [(2,) * 6, (3,) * 4, (7,) + (1,) * 5]),
]


def _eager_class_elements(d, parts):
    """Reference: the whole class as a list, in the order class_elements
    generates it."""
    img = list(range(d))
    out = []

    def place(remaining, unused):
        if not unused:
            out.append(tuple(img))
            return
        start = unused[0]
        rest = unused[1:]
        for k in sorted(remaining):
            if remaining[k] == 0:
                continue
            remaining[k] -= 1
            if k == 1:
                img[start] = start
                place(remaining, rest)
            else:
                for body in combinations(range(len(rest)), k - 1):
                    chosen_sets = [rest[i] for i in body]
                    for order in permutations(chosen_sets):
                        cyc = (start,) + order
                        for a, b in zip(cyc, cyc[1:] + (start,)):
                            img[a] = b
                        leftover = [x for x in rest if x not in order]
                        place(remaining, leftover)
                    for x in chosen_sets:
                        img[x] = x
                img[start] = start
            remaining[k] += 1

    place(dict(Counter(parts)), list(range(d)))
    return out


def _eager_h_set(d, k):
    out = []
    for parts in partitions_of(d):
        norm = d - len(parts)
        if norm <= k and (k - norm) % 2 == 0:
            out.extend(_eager_class_elements(d, parts))
    return out


def _eager_orbit_reps(elements, p):
    gens = centralizer_generators(p)
    pool = set(elements)
    reps = []
    for e in elements:
        if e not in pool:
            continue
        reps.append(e)
        frontier = [e]
        pool.discard(e)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = conjugate(x, g)
                if y in pool:
                    pool.discard(y)
                    frontier.append(y)
    return reps


def _three_fibre_sample(seed, per_degree, degrees=(6, 7, 8)):
    """Seeded three-fibre queries at the given degrees with up to 3 free
    points."""
    rng = random.Random(seed)
    out = []
    for d in degrees:
        kinds = [lam for lam in partitions_of(d) if lam[0] > 1]
        population = []
        for combo in combinations_with_replacement(kinds, 3):
            n_free = sum(len(t) for t in combo) - d - 2
            if 0 <= n_free <= 3:
                population.append(combo + ((2,) + (1,) * (d - 2),) * n_free)
        out += [(d, t) for t in rng.sample(population, per_degree)]
    return out


def test_lazy_pools_generate_the_eager_order():
    for d in range(1, 8):
        for lam in partitions_of(d):
            assert list(class_elements(d, lam)) == _eager_class_elements(d, lam)
        for k in range(5):
            assert list(h_set(d, k)) == _eager_h_set(d, k)
    for lam in partitions_of(8):
        assert list(class_elements(8, lam)) == _eager_class_elements(8, lam)
    # the norm <= 3 classes of d = 9, mostly fixed points, that the
    # slowest benchmark query walks as its h pool, and the norm <= 2 pools
    # of d = 10
    for lam in partitions_of(9):
        if 9 - len(lam) <= 3:
            assert list(class_elements(9, lam)) == _eager_class_elements(9, lam)
    for k in range(4):
        assert list(h_set(9, k)) == _eager_h_set(9, k)
    for k in range(3):
        assert list(h_set(10, k)) == _eager_h_set(10, k)
    # every class of d = 9 and 10 made of 2-cycles and fixed points, whose
    # 2-cycles class_elements places directly (at most 4,725 elements);
    # [2^4, 1] is the derived class of the d = 9, 10 panel's slowest queries
    for d in (9, 10):
        for twos in range(d // 2 + 1):
            lam = (2,) * twos + (1,) * (d - 2 * twos)
            assert list(class_elements(d, lam)) == _eager_class_elements(d, lam), lam


def test_orbit_reps_match_the_eager_closure():
    # every class of d <= 7 under the canonical anchor of every type of d
    for d in range(1, 8):
        classes = {lam: _eager_class_elements(d, lam) for lam in partitions_of(d)}
        for anchor_type in classes:
            anchor = canonical_perm(anchor_type)
            for lam, elements in classes.items():
                assert (list(orbit_reps(class_elements(d, lam), anchor))
                        == _eager_orbit_reps(elements, anchor)), (d, anchor_type, lam)


def test_orbit_closure_translates_conjugate():
    # the closure step on bytes, ginv.translate(x + pad).translate(g + pad),
    # against conjugate at every degree the search takes; then orbit_reps
    # itself on the transpositions (the identity at d = 1) up to the
    # centralizer of a seeded anchor
    rng = random.Random(33)
    for d in range(1, MAX_DEGREE + 1):
        pad = bytes(256 - d)
        for _ in range(50):
            x, g = _random_perm(rng, d), _random_perm(rng, d)
            got = bytes(inverse(g)).translate(bytes(x) + pad).translate(bytes(g) + pad)
            assert got == bytes(conjugate(x, g)), (x, g)
        lam = (2,) + (1,) * (d - 2) if d > 1 else (1,)
        anchor = canonical_perm(rng.choice(partitions_of(d)))
        assert (list(orbit_reps(class_elements(d, lam), anchor))
                == _eager_orbit_reps(list(class_elements(d, lam)), anchor)), (d, anchor)


@pytest.mark.slow
def test_lazy_pools_generate_the_eager_order_at_degrees_nine_and_ten():
    # every class of d = 9 and the norm <= 3 pools of d = 10, past the
    # tier-1 subset above
    for lam in partitions_of(9):
        assert list(class_elements(9, lam)) == _eager_class_elements(9, lam)
    for k in range(4):
        assert list(h_set(10, k)) == _eager_h_set(10, k)


def test_pool_is_drawn_lazily_then_read_from_its_tuple(empty_pool_store):
    source = list(class_elements(5, (3, 1, 1)))
    drawn = []

    def make():
        for p in source:
            drawn.append(p)
            yield p

    # a first walk stopped midway draws only what it reached and publishes
    # nothing, so the next walk draws afresh
    for n, p in enumerate(hurwitz._pool(("drawn",), make)):
        if n == 6:
            break
    assert len(drawn) == 7
    assert hurwitz._POOLS == {}
    # a walk drawn to its end publishes the tuple of what it drew; later
    # walks read that tuple and never call make
    assert list(hurwitz._pool(("drawn",), make)) == source
    assert len(drawn) == 7 + len(source)
    assert hurwitz._POOLS == {("drawn",): tuple(source)}
    assert hurwitz._pool(("drawn",), None) == tuple(source)
    assert len(drawn) == 7 + len(source)


def _match_queries():
    """The small queries, the T1/T4 profiles with their free points and a
    seeded three-fibre sample."""
    queries = list(_genus0_queries())
    for d, parts in PROFILE_ROWS:
        profile = RamificationProfile(d, parts)
        queries.append((d, tuple(profile.partitions)
                        + ((2,) + (1,) * (d - 2),) * profile.free_points))
    return queries + _three_fibre_sample(7, 20)


def test_lazy_pools_match_eager_search(monkeypatch, empty_pool_store):
    queries = _match_queries()
    lazy = [find_tuple(types, d) for d, types in queries]
    # the eager run generates its own pools, not those the lazy run published
    hurwitz._POOLS.clear()
    monkeypatch.setattr(hurwitz, "class_elements", _eager_class_elements)
    monkeypatch.setattr(hurwitz, "h_set", _eager_h_set)
    monkeypatch.setattr(hurwitz, "orbit_reps", _eager_orbit_reps)
    for (d, types), got in zip(queries, lazy):
        # equal exists, perms, stats and reason
        assert got == find_tuple(types, d), (d, types)


def _pin(queries):
    """sha256 of (exists, perms, stats, reason) over the queries, and the
    summed stats."""
    digest = hashlib.sha256()
    totals = Counter()
    for d, types in queries:
        cert = find_tuple(types, d)
        perms = None if cert.tuple_ is None else cert.tuple_.perms
        digest.update(repr((cert.exists, perms, sorted(cert.stats.items()),
                            cert.reason)).encode())
        totals.update(cert.stats)
    return digest.hexdigest(), totals


def test_find_tuple_walk_is_pinned(empty_pool_store):
    # (exists, perms, stats, reason) on the query set above: the eager
    # comparison runs both sides through the same leaf loop, so only pinned
    # values catch a change in walk order, which moves the stats or the
    # first hit; the same from an empty store and from the one it left
    queries = _match_queries()
    for _ in range(2):
        digest, totals = _pin(queries)
        assert len(queries) == 127
        assert totals == {"outer": 6993, "h": 180, "typehits": 166}
        assert digest == (
            "76e4139a3a5edb71b72883de90921da64b918e22e4726b7c73519c38525ea1cf")


def test_find_tuple_walk_is_pinned_at_degrees_nine_and_ten(empty_pool_store):
    # the shapes of the benchmark's d = 9, 10 panel, where the walk is
    # longest; the last query walks 20,951 h; from an empty and a warm store
    queries = _three_fibre_sample(1, 4, (9, 10))
    assert [d for d, _ in queries] == [9] * 4 + [10] * 4
    for _ in range(2):
        digest, totals = _pin(queries)
        assert totals == {"outer": 22839, "h": 305, "typehits": 305}
        assert digest == (
            "92816cc9788a14c034c979cc4a43556a397d81ceb4be2d4a93a910f00418194a")


def test_identity_entries_change_nothing_but_their_slots():
    # identity types at random positions: the same stats and reason as the
    # query without them, and its tuple with identity(d) in those slots
    rng = random.Random(18)
    queries = _match_queries()
    assert sum(any(t[0] == 1 for t in types) for _, types in queries) == 2
    for d, types in queries:
        with_ids = list(types)
        slots = []
        for _ in range(rng.randint(1, 3)):
            slots.append(rng.randint(0, len(with_ids)))
            with_ids.insert(slots[-1], (1,) * d)
        plain, cert = find_tuple(types, d), find_tuple(with_ids, d)
        assert (cert.exists, cert.stats, cert.reason) == (
            plain.exists, plain.stats, plain.reason), (d, with_ids)
        if plain.exists:
            want = list(plain.tuple_.perms)
            for i in slots:
                want.insert(i, identity(d))
            assert list(cert.tuple_.perms) == want, (d, with_ids)


def test_pools_stop_at_the_first_hit(monkeypatch, empty_pool_store):
    made = []
    generate = hurwitz.class_elements

    def counted(d, parts):
        for p in generate(d, parts):
            made.append(p)
            yield p

    monkeypatch.setattr(hurwitz, "class_elements", counted)
    d, parts = PROFILE_ROWS[-1]
    profile = RamificationProfile(d, parts)
    assert profile.free_points == 2
    cert = realize_profile(profile)
    assert cert.exists
    # eager pools: h_set(12, 2) (identity, 3-cycles, double transpositions)
    # plus the whole [2^6] class
    eager = sum(class_size(12, lam) for lam in
                [(1,) * 12, (3,) + (1,) * 9, (2, 2) + (1,) * 8, (2,) * 6])
    assert eager == 12321
    assert len(made) < eager / 5, len(made)


def test_pool_store_changes_no_result(monkeypatch, empty_pool_store):
    # the small queries, the T1/T4 rows and the seeded d = 6..8 draws: the
    # same (exists, perms, stats, reason) from an empty store, from the
    # store that run left, and with the store keeping nothing
    queries = _match_queries()
    cold = [find_tuple(types, d) for d, types in queries]
    assert hurwitz._POOLS
    warm = [find_tuple(types, d) for d, types in queries]
    monkeypatch.setattr(hurwitz, "_POOLS", _Unkept())
    bypassed = [find_tuple(types, d) for d, types in queries]
    assert not hurwitz._POOLS
    for i, (d, types) in enumerate(queries):
        assert cold[i] == warm[i] == bypassed[i], (d, types)


# queries whose middle classes repeat one type, so that walk positions 1,
# 2, ... draw under one pool key (d, type), with their pinned stats; in the
# last, positions 1 and 2 draw two types under two keys
SHARED_KEY_QUERIES = [
    (6, [(2, 2, 1, 1)] * 5, {"outer": 140, "h": 14, "typehits": 14}),
    (6, [(3, 1, 1, 1)] * 5, {"outer": 50, "h": 3, "typehits": 3}),
    (7, [(2, 2, 1, 1, 1)] * 6, {"outer": 504, "h": 33, "typehits": 33}),
    (6, [(3, 1, 1, 1)] * 2 + [(2, 2, 1, 1)] * 3, {"outer": 70, "h": 7, "typehits": 7}),
]


def test_positions_that_share_a_pool_key(monkeypatch, empty_pool_store):
    # equal certificates from an empty store, a warm store, a store that
    # keeps nothing and the eager search
    certs = []
    for d, types, stats in SHARED_KEY_QUERIES:
        hurwitz._POOLS.clear()
        cert = find_tuple(types, d)
        assert cert.exists and cert.stats == stats, (d, types)
        if len(set(types)) == 1:
            # a later middle position drew the whole class and published
            # it, while position 1, under the same key, was stopped by the hit
            assert hurwitz._POOLS[(d, types[0])] == tuple(class_elements(d, types[0]))
        assert find_tuple(types, d) == cert
        certs.append(cert)
    monkeypatch.setattr(hurwitz, "_POOLS", _Unkept())
    assert [find_tuple(types, d) for d, types, _ in SHARED_KEY_QUERIES] == certs
    monkeypatch.setattr(hurwitz, "class_elements", _eager_class_elements)
    monkeypatch.setattr(hurwitz, "h_set", _eager_h_set)
    monkeypatch.setattr(hurwitz, "orbit_reps", _eager_orbit_reps)
    assert [find_tuple(types, d) for d, types, _ in SHARED_KEY_QUERIES] == certs
    assert not hurwitz._POOLS


def test_pools_are_published_only_when_drawn_to_the_end(monkeypatch, empty_pool_store):
    # a walk that stops at its first h keeps nothing, though that h is all
    # of h_set(4, 0)
    assert find_tuple([(3, 1), (3, 1), (2, 2)], 4).stats == {"outer": 1, "h": 1, "typehits": 1}
    assert hurwitz._POOLS == {}
    # the d = 12 row walks all of h_set(12, 2) for its first middle
    # representative and hits for the second: the h pool is kept, the
    # middle pool the hit stopped is not
    assert realize_profile(RamificationProfile(*PROFILE_ROWS[-1])).exists
    assert hurwitz._POOLS == {(12, 2): tuple(h_set(12, 2))}
    # NOT_EXISTS walks every pool to its end: each is kept under its key as
    # the tuple its fresh generator gives
    hurwitz._POOLS.clear()
    cert = find_tuple([(4, 2), (2, 2, 2), (2, 2, 2)], 6)
    assert not cert.exists
    reps = tuple(orbit_reps(class_elements(6, (2, 2, 2)), canonical_perm((4, 2))))
    assert hurwitz._POOLS == {(6, (2, 2, 2), (4, 2)): reps, (6, 0): tuple(h_set(6, 0))}
    # a later query with those keys walks them and generates nothing
    monkeypatch.setattr(hurwitz, "class_elements", None)
    assert find_tuple([(2, 2, 2), (4, 2), (2, 2, 2)], 6) == cert


def test_memoised_constants_equal_their_formulas():
    # find_tuple reads these through _memo, with tuples; the public
    # functions stay the uncached formulas and still take lists
    assert (hurwitz._memo(min, 3, 4), hurwitz._memo(max, 3, 4)) == (3, 4)
    for d in range(1, 11):
        sizes = 0
        for lam in partitions_of(d):
            size = hurwitz._memo(class_size, d, lam)
            assert size == class_size(d, list(lam))
            assert d > 7 or size == len(set(class_elements(d, lam)))
            sizes += size
            anchor = hurwitz._memo(canonical_perm, lam)
            assert anchor == canonical_perm(list(lam)) and cycle_type(anchor) == lam
        assert sizes == math.factorial(d)
        for k in range(d):
            assert hurwitz._memo(partitions_of, d, None, k) == partitions_of(d, budget=k)
        for i, j in combinations(range(d), 2):
            assert hurwitz._memo(transposition, d, i, j) == transposition(d, i, j)
