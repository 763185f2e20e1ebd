from __future__ import annotations

import math
from itertools import combinations_with_replacement, permutations

import pytest

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
        els = class_elements(d, lam)
        assert len(els) == class_size(d, lam)
        assert len(set(els)) == len(els)
        assert all(cycle_type(p) == tuple(sorted(lam, reverse=True)) for p in els)


def test_centralizer_generators():
    p = canonical_perm([2, 2])
    gens = centralizer_generators(p)
    for g in gens:
        assert compose(g, p) == compose(p, g)
    # closure of the generators has the full centralizer order d!/|class|
    seen = {identity(len(p))}
    frontier = [identity(len(p))]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = compose(cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert len(seen) == math.factorial(4) // class_size(4, [2, 2])


def test_orbit_reps():
    p = canonical_perm([2, 2])
    gens = centralizer_generators(p)
    reps = orbit_reps(class_elements(4, [3, 1]), gens)
    # conjugation orbits partition the class
    assert 1 <= len(reps) < class_size(4, [3, 1])


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


def test_find_tuple_agrees_with_dp_oracle():
    queries = []
    for d in range(2, 6):
        kinds = [lam for lam in partitions_of(d) if lam[0] > 1]
        for k in range(1, 9):
            for combo in combinations_with_replacement(kinds, k):
                if sum(d - len(t) for t in combo) == 2 * d - 2:
                    queries.append((d, combo))
    assert len(queries) == 63
    for d, types in queries:
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
