from __future__ import annotations

import math
import random
from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from garnier import hurwitz
from garnier.hurwitz import (
    MAX_DEGREE,
    canonical_perm,
    cayley_norm,
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
    assert cayley_norm(p) == (3 - 1) + (2 - 1)
    assert cycles_of(identity(3)) == [(0,), (1,), (2,)]
    assert format_perm(p) == "(1 2 3)(4 5)"
    assert format_perm(identity(4)) == "id"


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
    reps = list(orbit_reps(class_elements(4, [3, 1]), gens))
    assert 1 <= len(reps) < class_size(4, [3, 1])
    assert reps[0] == next(class_elements(4, [3, 1]))
    # the centralizer conjugates each rep around its orbit; the orbits are
    # disjoint and together cover the class
    orbits = [{conjugate(r, c) for c in _group(gens, 4)} for r in reps]
    assert all(a.isdisjoint(b) for a, b in combinations(orbits, 2))
    assert sum(len(o) for o in orbits) == class_size(4, [3, 1])


def test_h_set_parity_and_norm():
    for h in h_set(4, 2):
        assert cayley_norm(h) <= 2
        assert cayley_norm(h) % 2 == 0
    assert identity(4) in h_set(4, 2)
    assert all(cayley_norm(h) in (1,) for h in h_set(4, 1))


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
        least = cayley_norm(h) + 2 * (c - 1)
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


def test_find_tuple_parity_precheck():
    cert = find_tuple([(2, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1)], 4)
    assert not cert.exists
    assert "odd" in cert.reason


def test_find_tuple_validation():
    with pytest.raises(ValueError):
        find_tuple([(2, 2)], 3)
    with pytest.raises(ValueError):
        find_tuple([(2,)], MAX_DEGREE + 1)


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


def _eager_orbit_reps(elements, gens):
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


def _three_fibre_sample(seed, per_degree):
    """Seeded three-fibre queries at d = 6..8 with up to 3 free points."""
    rng = random.Random(seed)
    out = []
    for d in (6, 7, 8):
        kinds = [lam for lam in partitions_of(d) if lam[0] > 1]
        population = []
        for combo in combinations_with_replacement(kinds, 3):
            n_free = sum(len(t) for t in combo) - d - 2
            if 0 <= n_free <= 3:
                population.append(combo + ((2,) + (1,) * (d - 2),) * n_free)
        out += [(d, t) for t in rng.sample(population, per_degree)]
    return out


def test_lazy_pools_generate_the_eager_order():
    for d in range(1, 7):
        for lam in partitions_of(d):
            assert list(class_elements(d, lam)) == _eager_class_elements(d, lam)
        for k in range(5):
            assert list(h_set(d, k)) == _eager_h_set(d, k)
    gens = centralizer_generators(canonical_perm([3, 2, 1]))
    for lam in partitions_of(6):
        assert (list(orbit_reps(class_elements(6, lam), gens))
                == _eager_orbit_reps(_eager_class_elements(6, lam), gens))


def test_lazy_pools_match_eager_search(monkeypatch):
    queries = list(_genus0_queries())
    for d, parts in PROFILE_ROWS:
        profile = RamificationProfile(d, parts)
        queries.append((d, tuple(profile.partitions)
                        + ((2,) + (1,) * (d - 2),) * profile.free_points))
    queries += _three_fibre_sample(7, 20)
    lazy = [find_tuple(types, d) for d, types in queries]
    monkeypatch.setattr(hurwitz, "class_elements", _eager_class_elements)
    monkeypatch.setattr(hurwitz, "h_set", _eager_h_set)
    monkeypatch.setattr(hurwitz, "orbit_reps", _eager_orbit_reps)
    for (d, types), got in zip(queries, lazy):
        # equal exists, perms, stats and reason
        assert got == find_tuple(types, d), (d, types)


def test_pools_stop_at_the_first_hit(monkeypatch):
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
