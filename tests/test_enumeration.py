from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import gcd, prod

import pytest

import garnier.enumeration
import garnier.orbifold
from garnier.enumeration import (
    TABLE_IDS,
    RamificationProfile,
    TripleSpec,
    VerdictKind,
    _T2_EXTRA,
    _fiber_options,
    complete_profiles,
    enumerate_candidates,
    enumerate_profiles,
    floor_identity_holds,
    lookup_table_id,
    multipoint_bases,
    multipoint_complete_search,
    partitions_of,
    render_table,
    reproduce_table,
    verdict,
)
from garnier.fuchsian import Theta, hypergeometric_signature, pullback_exponents
from garnier.orbifold import INF, OrbifoldStructure, pullback, underlying


def test_triple_spec_canonical_order():
    t = TripleSpec(7, 2, 3)
    assert t.entries == (2, 3, 7)
    assert str(t) == "(2,3,7)"
    t = TripleSpec(INF, 3, 2)
    assert t.pinf is INF
    assert str(t) == "(2,3,inf)"
    assert TripleSpec(INF, 7, 2).entries == (2, 7, INF)
    assert str(TripleSpec(INF, 2, INF)) == "(2,inf,inf)"


def test_triple_spec_validation():
    with pytest.raises(ValueError):
        TripleSpec(1, 3, 7)
    with pytest.raises(ValueError):
        TripleSpec(Fraction(5, 2), 3, 7)
    with pytest.raises(ValueError):
        TripleSpec(2, 3, 6)  # euclidean
    with pytest.raises(ValueError):
        TripleSpec(2, 2, INF)  # euclidean with inf


def test_floor_identity():
    t = TripleSpec(2, 3, 7)
    assert floor_identity_holds(t, 12)
    assert not floor_identity_holds(t, 11)
    t = TripleSpec(2, 3, INF)
    assert floor_identity_holds(t, 4)
    assert not floor_identity_holds(t, 5)


def _kept(n, es, d):
    return (TripleSpec(*es), d) in enumerate_candidates(n)


def test_chi_inequality():
    # d/42 <= 1 - n/7 at the candidate (2,3,7), d = 12
    assert _kept(5, (2, 3, 7), 12)
    assert not _kept(6, (2, 3, 7), 12)
    assert _kept(100, (2, 3, INF), 6)  # rhs is 1 when pinf = inf


def _fraction_neg_chi(es):
    return 1 - sum(Fraction(0) if p is INF else Fraction(1, p) for p in es)


SMALL_TRIPLES = [es for es in product(list(range(2, 14)) + [INF], repeat=3)
                 if list(es) == sorted(es)]


def test_triple_spec_raises_exactly_off_hyperbolic():
    for es in SMALL_TRIPLES:
        if _fraction_neg_chi(es) > 0:
            assert TripleSpec(*es).entries == es
        else:
            with pytest.raises(ValueError, match="not hyperbolic"):
                TripleSpec(*es)


def test_triple_spec_repr_and_equality_read_the_entries():
    t = TripleSpec(2, 3, 7)
    assert repr(t) == "TripleSpec(entries=(2, 3, 7))"
    assert t == TripleSpec(7, 3, 2) and hash(t) == hash(TripleSpec(3, 7, 2))


def test_chi_inequality_equality_boundary():
    # d * (-chi) = 42 * 1/42 = 1 - 0/7 exactly, and the inequality is not
    # strict; at n = 1 the right side drops to 6/7
    assert _kept(0, (2, 3, 7), 42)
    assert not _kept(1, (2, 3, 7), 42)


def test_chi_inequality_negative_rhs_fails():
    # 1 - 8/7 < 0 <= d * (-chi) at every degree
    assert not any(t == TripleSpec(2, 3, 7) for t, _ in enumerate_candidates(8))


@pytest.mark.parametrize("es", [(2, 3, 6), (2, 4, 4), (3, 3, 3), (2, 2, INF)]
                         + [(2, 2, p) for p in range(2, 14)])
def test_triple_spec_rejects_non_hyperbolic(es):
    # the Euclidean triples (chi = 0) and the spherical (2, 2, p) (chi > 0)
    with pytest.raises(ValueError, match="not hyperbolic"):
        TripleSpec(*es)


EXPECTED_N5_CANDIDATES = [
    ("(2,3,7)", 7), ("(2,3,7)", 8), ("(2,3,7)", 9), ("(2,3,7)", 10), ("(2,3,7)", 12),
    ("(2,3,8)", 8), ("(2,3,8)", 9),
    ("(2,3,inf)", 3), ("(2,3,inf)", 4), ("(2,3,inf)", 6),
    ("(2,4,inf)", 4),
    ("(2,inf,inf)", 2),
    ("(3,3,inf)", 3),
]


EXPECTED_N6_CANDIDATES = [
    ("(2,3,inf)", 3), ("(2,3,inf)", 4), ("(2,3,inf)", 6),
    ("(2,4,inf)", 4),
    ("(2,inf,inf)", 2),
    ("(3,3,inf)", 3),
]


def test_enumerate_candidates_n5():
    for n, want in ((5, EXPECTED_N5_CANDIDATES), (6, EXPECTED_N6_CANDIDATES)):
        got = [(str(t), d) for t, d in enumerate_candidates(n)]
        assert sorted(got) == sorted(want)


def test_enumerate_candidates_monotone_in_n():
    # raising n only tightens the chi inequality; from n = 6 on only the
    # triples with pinf = inf are left, and their inequality ignores n
    counts = {5: 13, **{n: 6 for n in range(6, 13)}}
    for n in range(5, 13):
        lo = {(str(t), d) for t, d in enumerate_candidates(n + 1)}
        hi = {(str(t), d) for t, d in enumerate_candidates(n)}
        assert lo <= hi
        assert len(hi) == counts[n]


@lru_cache(maxsize=None)
def _cube_sweep(d_max):
    """Reference: every p0 <= p1 <= pinf in {2..d, inf} for every d, kept
    when hyperbolic with the floor identity; the n-dependent chi inequality
    is left to the caller as (triple, d, -chi)."""
    out = []
    for d in range(2, d_max + 1):
        pool = list(range(2, d + 1)) + [INF]
        for i, p0 in enumerate(pool):
            for j in range(i, len(pool)):
                for k in range(j, len(pool)):
                    es = (p0, pool[j], pool[k])
                    if d - sum(0 if p is INF else d // p for p in es) != 1:
                        continue
                    neg_chi = 1 - sum(Fraction(0) if p is INF else Fraction(1, p) for p in es)
                    if neg_chi > 0:
                        out.append((es, d, neg_chi))
    return tuple(out)


def _cube_candidates(n):
    """The cube sweep's (triple, degree) pairs that pass the chi inequality at n."""
    return [(es, d) for es, d, neg_chi in _cube_sweep(60)
            if d * neg_chi <= 1 - (0 if es[2] is INF else Fraction(n, es[2]))]


def test_enumerate_candidates_matches_cube_sweep():
    # 4..7 and 12 reach the f = 0 (pinf = inf) case and the edges of the
    # pinf interval the sweep solves the floor identity for, 60 passes the
    # bound 42; from n = 7 on pmin <= n for every (p0, p1) pair, so only
    # the b // a term of the degree bound is left
    for es, d, neg_chi in _cube_sweep(60):
        # the floor identity alone gives d * (-chi) <= 1, the chi inequality
        # at n = 0
        assert d * neg_chi == 1 - sum(Fraction(d % p, p) for p in es if p is not INF)
    for n in range(46):
        cube = _cube_candidates(n)
        cube.sort(key=lambda e: ([(p is INF, 0 if p is INF else p) for p in e[0]], e[1]))
        for d_max in (2, 3, 4, 5, 6, 7, 10, 12, 20, 42, 43, 60):
            want = [e for e in cube if e[1] <= d_max]
            got = [(t.entries, d) for t, d in enumerate_candidates(n, d_max)]
            assert got == want, (d_max, n)


def _pair_degree_bound(p0, p1, n):
    """The degree bound of _candidate_rows' docstring for the pair (p0, p1)
    at n, with 1 - 1/p0 - 1/p1 = a/b and pmin the least hyperbolic pinf."""
    a, b = p0 * p1 - p1 - p0, p0 * p1
    pmin = max(p1, b // a + 1)
    return max(b // a, (pmin - n) * b // (a * pmin - b))


def test_candidate_degrees_stay_within_the_pair_bound():
    # the argument of _candidate_rows, checked on the cube sweep: every
    # candidate has p1 (p0 - 1) <= 3 p0 and a degree within its pair's bound
    for n in range(46):
        for (p0, p1, _), d in _cube_candidates(n):
            if p1 is INF:
                assert d <= p0 // (p0 - 1), (p0, d)
            else:
                assert p1 * (p0 - 1) <= 3 * p0 and d <= _pair_degree_bound(p0, p1, n)
    # (2,3,7) reaches the bound: at 42 for n = 0 and at 12 for n = 5
    for n, top in ((0, 42), (5, 12)):
        assert _pair_degree_bound(2, 3, n) == top
        assert max(d for es, d in _cube_candidates(n) if es[:2] == (2, 3)) == top
        assert ((2, 3, 7), top) in _cube_candidates(n)


def test_candidate_pairs_are_canonical():
    # at n = 0 the chi inequality reads d * (-chi) <= 1, which the floor
    # identity implies, so these are all the n-independent pairs: 62, and
    # none above d = 42
    pairs = enumerate_candidates(0, 60)
    assert len(pairs) == 62
    assert max(d for _, d in pairs) == 42
    for t, d in pairs:
        # a finite entry above d would be weight inf written another way
        assert all(p is INF or p <= d for p in t.entries), (t, d)
        assert floor_identity_holds(t, d)


def test_candidate_rows_stop_at_the_degree_bound():
    assert garnier.enumeration.DEGREE_BOUND == 42
    rows = garnier.enumeration._candidate_rows(0, 42)
    assert max(row[3] for row in rows) == 42
    assert garnier.enumeration._candidate_rows(0, 10**9) == rows


def test_floor_identity_implies_the_chi_inequality_at_pinf_inf():
    # T3's degrees and the sweep test only the floor identity: with an inf
    # entry it gives d * (-chi) = 1 - sum of frac(d/p) <= 1, every n's bound
    entries = list(range(2, 43)) + [INF]
    checked = 0
    for p0, p1 in combinations_with_replacement(entries, 2):
        if (p0, p1) == (2, 2):
            continue  # (2,2,inf) is not hyperbolic
        t = TripleSpec(p0, p1, INF)
        for d in range(2, 43):
            if floor_identity_holds(t, d):
                checked += 1
                assert d * _fraction_neg_chi(t.entries) <= 1, (t, d)
    assert checked == 46


def test_candidate_rows_need_no_chi_test():
    # at n = 0 the floor identity alone keeps a row
    rows = garnier.enumeration._candidate_rows(0, 42)
    assert len(rows) == 62
    assert all(d * _fraction_neg_chi(es) <= 1 for *es, d in rows)


def test_enumerate_candidates_fresh_list():
    first = enumerate_candidates(5)
    want = list(first)
    first.clear()
    assert enumerate_candidates(5) == want


def test_enumerate_candidates_rejects_negative_n():
    with pytest.raises(ValueError):
        enumerate_candidates(-1)


def test_partitions_of():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_of(0) == [()]
    assert partitions_of(3, max_part=2) == [(2, 1), (1, 1, 1)]


def test_profile_validation():
    p = RamificationProfile(4, [(2, 2), (1, 3), (1, 1, 1, 1)])
    assert p.partitions[1] == (3, 1)
    assert p.free_points == 2
    assert str(p) == "[2,2] [3,1] [1,1,1,1]"
    with pytest.raises(ValueError):
        RamificationProfile(4, [(2, 1), (3, 1), (1, 1, 1, 1)])
    assert p.with_free_points().partitions == p.partitions + ((2, 1, 1),) * 2
    # a negative free count is a profile, but no covering of the line
    q = RamificationProfile(4, [(2, 2), (3, 1), (4,), (4,)])
    assert q.free_points == -4
    with pytest.raises(ValueError):
        q.with_free_points()


def test_nonapparent_counts():
    # essential points are the weights other than 1 in the underlying
    # structure of the pullback: index 2 over weight 2 and index 3 over
    # weight 3 become apparent, the free points get weight 1/2 -> 1
    p = RamificationProfile(4, [(2, 2), (3, 1), (1, 1, 1, 1)])
    base = OrbifoldStructure(0, [2, 3, INF])
    up = underlying(pullback(base, p.with_free_points()))
    assert up.weights() == (3, INF, INF, INF, INF)
    assert up.n_points() == 5
    with pytest.raises(ValueError):
        pullback(base, RamificationProfile(4, [(2, 2), (3, 1)]))


def _base_signatures(t):
    """The family tables' base signatures over t: 1/p at finite weights and
    theta at inf, and k/pinf at a finite pinf for each reduced k <= pinf/2."""
    q = t.pinf
    numerators = [1] if q is INF else [k for k in range(1, q // 2 + 1) if gcd(k, q) == 1]
    for k in numerators:
        yield hypergeometric_signature(*(
            Theta() if p is INF else Fraction(k if i == 2 else 1, p)
            for i, p in enumerate(t.entries)))


def _orbifold_count(t, profile):
    """Essential points as the weighted points of the underlying pullback of
    the base structure, free points included."""
    base = OrbifoldStructure(0, t.entries)
    up = underlying(pullback(base, profile.with_free_points()))
    assert up.genus == 0
    return up.n_points()


def test_essential_counts_match_orbifold_pullback():
    # every profile the enumeration gives over the n = 3..8 candidates: its
    # essential-point total from _fiber_options equals the number of
    # weighted points of the underlying pulled-back structure, on genus 0,
    # and the number of non-apparent pulled-back exponents of every base
    # signature the family tables use
    checked = 0
    for n in range(3, 9):
        for t, d in enumerate_candidates(n, 42):
            for profile, n_total in enumerate_profiles(t.entries, d):
                key = (str(t), d, str(profile))
                assert _orbifold_count(t, profile) == n_total, key
                for sig in _base_signatures(t):
                    assert len(pullback_exponents(sig, profile).exponents) == n_total, key
                checked += 1
    assert checked == 154


@pytest.mark.parametrize("tid", ["T2", "T4"])
def test_family_rows_match_orbifold_verdict(tid):
    # every printed row: free count and verdict as the orbifold pullback of
    # its triple and branch data gives them
    rows = reproduce_table(tid).rows
    assert rows
    for row in rows:
        t = TripleSpec(*(INF if p == "inf" else int(p) for p in row[0][1:-1].split(",")))
        profile = RamificationProfile(int(row[1]), (
            tuple(int(k) for k in lam[1:-1].split(",")) for lam in row[2].split()))
        assert str(profile) == row[2]
        want = verdict(profile, _orbifold_count(t, profile))
        assert row[6:] == (f"N={profile.free_points}", str(want)), row


def test_enumerate_profiles_forced_parts():
    out = enumerate_profiles([2, 3, INF], 4, n=5)
    assert len(out) == 1
    profile, n_total = out[0]
    assert str(profile) == "[2,2] [3,1] [1,1,1,1]"
    assert n_total == 5
    # without the filter, every profile keeps the forced index-p parts
    for profile, _ in enumerate_profiles([2, 3, INF], 4):
        assert profile.partitions[0].count(2) == 2
        assert profile.partitions[1].count(3) == 1


def test_fiber_options_branching_field():
    for p in list(range(2, 14)) + [INF]:
        for d in range(1, 21):
            for lam, _, branching in _fiber_options(p, d):
                assert branching == d - len(lam), (p, d, lam)


def _balance_and_most(ws, d):
    """The sum over ws of d - d//p (d at inf), every profile's essential
    count plus branching, and of d mod p (d at inf), the most essential
    points a profile over (ws, d) can have."""
    balance = sum(d if p is INF else d - d // p for p in ws)
    return balance, sum(d if p is INF else d % p for p in ws)


def test_deficit_is_fixed_by_the_balance():
    # every profile over (ws, d), N < 0 included, has n + branching equal to
    # the balance, so N - (n - 3) = 2d + 1 - balance; n counts the parts
    # beyond the forced d // p parts of size p, and N is the profile's own
    checked = 0
    for k, d_top in ((3, 6), (4, 5), (5, 4)):
        for ws in combinations_with_replacement((2, 3, 4, 6, INF), k):
            for d in range(2, d_top + 1):
                balance = _balance_and_most(ws, d)[0]
                for combo in product(*(_fiber_options(p, d) for p in ws)):
                    lams = [c[0] for c in combo]
                    n = sum(len(lam) - (0 if p is INF else d // p) for p, lam in zip(ws, lams))
                    profile = RamificationProfile(d, lams)
                    assert profile.free_points - (n - 3) == 2 * d + 1 - balance, (ws, lams)
                    checked += 1
    assert checked > 10000
    # the floor identity is the three-point case at deficit 0: every
    # candidate has balance 2d + 1, so verdict never rejects a profile of
    # complete_profiles that has the requested n >= 4
    for n in range(14):
        for t, d in enumerate_candidates(n):
            assert _balance_and_most(t.entries, d)[0] == 2 * d + 1, (n, t, d)


def _profiles_reference(choices, d):
    """Every profile with one fiber from each list of (partition, essential
    count) choices, built and then dropped when N < 0."""
    out = []
    for combo in product(*choices):
        profile = RamificationProfile(d, (c[0] for c in combo))
        if profile.free_points >= 0:
            out.append((profile, sum(c[1] for c in combo)))
    return sorted(out, key=lambda e: e[0].partitions)


def _check_profiles_against_reference(max_combos):
    """enumerate_profiles against the reference over every 3- and 4-point
    weight tuple from {2..7, inf} and d <= 12 whose product of fiber choices
    has at most max_combos combinations, for n in {None, 3..7}.  Over weight
    p a fiber is any partition of d with at least d // p parts equal to p,
    and its essential points are the other parts; over inf any partition,
    all parts essential.  Returns the number of (weights, d) cases checked."""
    checked = 0
    for d in range(2, 13):
        parts = _brute_partitions(d)
        for m in (3, 4):
            for ws in combinations_with_replacement([2, 3, 4, 5, 6, 7, INF], m):
                choices = []
                for p in ws:
                    q = 0 if p is INF else d // p
                    choices.append([(lam, len(lam) - q) for lam in parts if lam.count(p) >= q])
                if prod(map(len, choices)) > max_combos:
                    continue
                want = _profiles_reference(choices, d)
                for n in (None, 3, 4, 5, 6, 7):
                    got = enumerate_profiles(ws, d, n)
                    assert got == [e for e in want if n is None or e[1] == n], (ws, d, n)
                checked += 1
    return checked


def test_enumerate_profiles_matches_reference():
    # the cases of at most 200 combinations, to fit the tier-1 budget: 1,910
    # of the 2,002 all-finite cases and 762 of the 1,232 with an inf
    assert _check_profiles_against_reference(200) == 2672


@pytest.mark.slow
def test_enumerate_profiles_matches_reference_large():
    # the same check up to 20,000 combinations per case, opt-in (pytest -m
    # slow)
    assert _check_profiles_against_reference(20000) == 3174


def test_verdict_precedence():
    p = RamificationProfile(4, [(2, 2), (3, 1), (1, 1, 1, 1)])  # N = 2
    assert verdict(p, 2).kind is VerdictKind.IMPOSSIBLE
    assert verdict(p, 3).kind is VerdictKind.DEGENERATE_HYPERGEOMETRIC
    assert verdict(p, 5).kind is VerdictKind.COMPLETE
    v = verdict(p, 6)
    assert v.kind is VerdictKind.PARTIAL and v.deficit == 1
    assert str(v) == "PARTIAL(deficit=1)"


EXPECTED_COMPLETE_N5 = {
    ("(2,3,inf)", 4, "[2,2] [3,1] [1,1,1,1]"),
    ("(2,3,inf)", 6, "[2,2,2] [3,3] [2,1,1,1,1]"),
    ("(2,3,7)", 12, "[2,2,2,2,2,2] [3,3,3,3] [7,1,1,1,1,1]"),
}


def test_complete_profiles_n5():
    got = {(str(t), d, str(p)) for t, d, p in complete_profiles(5)}
    assert got == EXPECTED_COMPLETE_N5
    for _, _, p in complete_profiles(5):
        assert p.free_points == 2


def test_complete_profiles_n6_unique():
    rows = complete_profiles(6)
    assert len(rows) == 1
    t, d, p = rows[0]
    assert (str(t), d, str(p)) == ("(2,3,inf)", 6, "[2,2,2] [3,3] [1,1,1,1,1,1]")
    assert p.free_points == 3


# n = 4 is Painleve VI; the rows as `garnier enumerate --n 4` prints them
EXPECTED_COMPLETE_N4 = [
    ("(2,3,7)", 10, "[2,2,2,2,2] [3,3,3,1] [7,1,1,1]"),
    ("(2,3,7)", 12, "[2,2,2,2,2,2] [3,3,3,3] [7,2,1,1,1]"),
    ("(2,3,7)", 18, "[2,2,2,2,2,2,2,2,2] [3,3,3,3,3,3] [7,7,1,1,1,1]"),
    ("(2,3,8)", 12, "[2,2,2,2,2,2] [3,3,3,3] [8,1,1,1,1]"),
    ("(2,3,inf)", 3, "[2,1] [3] [1,1,1]"),
    ("(2,3,inf)", 4, "[2,2] [3,1] [2,1,1]"),
    ("(2,3,inf)", 6, "[2,2,2] [3,3] [2,2,1,1]"),
    ("(2,3,inf)", 6, "[2,2,2] [3,3] [3,1,1,1]"),
    ("(2,4,inf)", 4, "[2,2] [4] [1,1,1,1]"),
    ("(2,inf,inf)", 2, "[2] [1,1] [1,1]"),
]


def test_complete_profiles_n4_painleve_vi():
    rows = complete_profiles(4)
    assert [(str(t), d, str(p)) for t, d, p in rows] == EXPECTED_COMPLETE_N4
    assert all(p.free_points == 1 for _, _, p in rows)


def _brute_partitions(r, top=None):
    top = r if top is None else top
    if r == 0:
        return [()]
    return [(k,) + rest for k in range(min(r, top), 0, -1)
            for rest in _brute_partitions(r - k, k)]


def _brute_complete(d_max, n_max):
    """COMPLETE profiles with n <= n_max essential points, by brute force
    and using neither the floor identity, the chi inequality nor the
    forced-part rule: every hyperbolic triple in {2..d, inf}^3 and every
    triple of partitions of d.  A part k over weight p is essential unless
    p divides k (k/p is an integer exponent, so the point is apparent or
    regular); every part over inf is essential.  The genus balance gives
    N = (number of parts) - d - 2, so COMPLETE (n >= 4, N >= n - 3) reads:
    at least d - 1 inessential parts.  Partitions are grouped by
    (essential, inessential) counts, a group triple is kept or dropped
    whole, and a partition with more than n_max essential parts is never
    grouped."""
    out = {}
    for d in range(2, d_max + 1):
        pool = list(range(2, d + 1)) + [INF]
        groups = {}
        for p in pool:
            g = groups[p] = {}
            for lam in _brute_partitions(d):
                ess = len(lam) if p is INF else sum(1 for k in lam if k % p)
                if ess <= n_max:
                    g.setdefault((ess, len(lam) - ess), []).append(lam)
        for es in product(pool, repeat=3):
            if list(es) != sorted(es) or _fraction_neg_chi(es) <= 0:
                continue
            g0, g1, g2 = (groups[p] for p in es)
            for e0, m0 in g0:
                for e1, m1 in g1:
                    for e2, m2 in g2:
                        n = e0 + e1 + e2
                        if 4 <= n <= n_max and m0 + m1 + m2 >= d - 1:
                            out.setdefault(n, set()).update(
                                (es, d, lams) for lams in product(
                                    g0[e0, m0], g1[e1, m1], g2[e2, m2]))
    return out


def test_complete_profiles_match_brute_force():
    # an independent check of the classification: 9, 3, 1 and 0 profiles
    # with d <= 12 for n = 4, 5, 6 and 7
    brute = _brute_complete(12, 7)
    assert {n: len(rows) for n, rows in brute.items()} == {4: 9, 5: 3, 6: 1}
    for n in (4, 5, 6, 7):
        got = {(t.entries, d, p.partitions) for t, d, p in complete_profiles(n, 12)}
        assert got == brute.get(n, set()), n


@pytest.mark.slow
def test_complete_profiles_match_brute_force_d24():
    # the same check up to d = 24, opt-in (pytest -m slow): it adds the n = 4
    # (2,3,7) d = 18 row
    brute = _brute_complete(24, 7)
    assert {n: len(rows) for n, rows in brute.items()} == {4: 10, 5: 3, 6: 1}
    assert any(es == (2, 3, 7) and d == 18 for es, d, _ in brute[4])
    for n in (4, 5, 6, 7):
        got = {(t.entries, d, p.partitions) for t, d, p in complete_profiles(n, 24)}
        assert got == brute.get(n, set()), n


def _rows_by_key(table_id):
    """Table rows keyed by (printed triple, degree)."""
    return {(r[0], int(r[1])): r for r in reproduce_table(table_id).rows}


def test_intermediate_rows_finite():
    # columns: triple, d, branch data, points, free, status
    rows = _rows_by_key("N2b")
    assert rows[("(2,3,7)", 7)][4:] == ("N=-1", "IMPOSSIBLE")
    assert rows[("(2,3,7)", 8)][4:] == ("N=0", "DEGENERATE_HYPERGEOMETRIC")
    assert rows[("(2,3,7)", 9)][4] == "N=0"
    assert rows[("(2,3,7)", 10)][4:] == ("N=1", "PARTIAL(deficit=1)")
    assert rows[("(2,3,7)", 12)][4:] == ("N=2", "COMPLETE")
    assert rows[("(2,3,8)", 8)][4] == "N=-1"
    assert rows[("(2,3,8)", 9)][4] == "N=-1"
    assert set(rows) == {("(2,3,7)", d) for d in (7, 8, 9, 10, 12)} | {
        ("(2,3,8)", 8), ("(2,3,8)", 9)}


def test_intermediate_rows_infinite():
    rows = _rows_by_key("N2a")
    assert rows[("(2,3,inf)", 3)][5] == "PARTIAL(deficit=1)"
    assert rows[("(2,3,inf)", 4)][5] == "COMPLETE"
    assert rows[("(2,3,inf)", 6)][5] == "COMPLETE"
    assert rows[("(2,3,inf)", 6)][4] == "N=3"  # max-free profile splits the 2
    assert rows[("(2,4,inf)", 4)][5] == "PARTIAL(deficit=1)"
    assert rows[("(2,inf,inf)", 2)][5] == "PARTIAL(deficit=1)"
    assert rows[("(3,3,inf)", 3)][5] == "DEGENERATE_HYPERGEOMETRIC"


def test_t2_rows_shape():
    # columns: triple, d, branch data, base exponents, exponents, apparent,
    # free, verdict; one row per non-elementary exponent variant
    rows = reproduce_table("T2").rows
    assert list(dict.fromkeys((r[0], int(r[1])) for r in rows)) == [
        ("(2,3,inf)", 3), ("(2,3,inf)", 4), ("(2,3,inf)", 6),
        ("(2,3,8)", 9), ("(2,3,7)", 12)]
    flat = [(r[0], int(r[1]), r[4], r[5]) for r in rows]
    assert ("(2,3,inf)", 4, "(1/3,theta,theta,theta,theta)", "apparent=3") in flat
    assert ("(2,3,7)", 12, "(2/7,2/7,2/7,2/7,2/7)", "apparent=11") in flat
    assert ("(2,3,7)", 12, "(3/7,3/7,3/7,3/7,3/7)", "apparent=11") in flat
    assert ("(2,3,8)", 9, "(1/2,1/3,1/3,1/3,1/8)", "apparent=7") in flat
    assert ("(2,3,8)", 9, "(1/2,1/3,1/3,1/3,3/8)", "apparent=7") in flat
    assert len(flat) == 8


def test_t2_rows_filter_elementary_variants():
    # over (2,3,8) only numerators 1 and 3 survive; 2/8 and 4/8 are not reduced
    bases = [r[3] for r in reproduce_table("T2").rows if r[1] == "9"]
    nums = sorted(Fraction(base.strip("()").split(",")[2]) for base in bases)
    assert nums == [Fraction(1, 8), Fraction(3, 8)]


def test_t4_rows():
    rows = reproduce_table("T4").rows
    assert len(rows) == 1
    r = rows[0]
    assert (r[0], int(r[1])) == ("(2,3,inf)", 6)
    assert r[4] == "(" + ",".join(["theta"] * 6) + ")"
    assert r[5] == "apparent=5"
    assert r[6] == "N=3"


def test_t3_rows():
    got = dict(reproduce_table("T3").rows)
    assert got == {
        "(2,p,p)": "2",
        "(2,3,p)": "2,3,4,6",
        "(2,4,p)": "2,4",
        "(3,3,p)": "3",
    }
    # a family with one finite entry names the other two p
    assert reproduce_table("T3", 2).rows == (("(2,p,p)", "2"),)


def test_n7_summary_empty():
    assert reproduce_table("N7").rows == tuple(
        (str(n), "0", "none") for n in range(7, 13))


# the n = 7 candidates with the most essential points a profile over each
# can have: every fibre takes its last option, the remainder split into ones
N7_CANDIDATE_MAXIMA = {
    ("(2,3,inf)", 3): 4, ("(2,3,inf)", 4): 5, ("(2,3,inf)", 6): 6,
    ("(2,4,inf)", 4): 4, ("(2,inf,inf)", 2): 4, ("(3,3,inf)", 3): 3,
}


def test_n7_candidate_bound():
    # the chi inequality only tightens as n grows, so from n = 7 on the
    # candidates stay the same six rows (all pinf = inf), and no profile
    # over them reaches seven points: N7 rests on these maxima
    pairs = enumerate_candidates(7)
    for n in range(8, 61):
        assert enumerate_candidates(n) == pairs, n
    got = {}
    for t, d in pairs:
        bound = _balance_and_most(t.entries, d)[1]
        assert bound == max(k for _, k in enumerate_profiles(t.entries, d)), (t, d)
        got[str(t), d] = bound
    assert got == N7_CANDIDATE_MAXIMA


def test_n7_raises_on_a_seven_point_candidate(monkeypatch):
    # (2,inf,inf) at d = 3 (no candidate: its floor identity fails) has a
    # profile with 1 + 3 + 3 essential points
    monkeypatch.setattr(garnier.enumeration, "enumerate_candidates",
                        lambda n, d_max: [(TripleSpec(2, INF, INF), 3)])
    with pytest.raises(AssertionError, match="internal error"):
        reproduce_table("N7")


def test_t2_quoted_rows():
    # the two partial T2 rows are quoted, not enumerated: each splits one
    # forced part over a finite fiber into ones and has n = 5 and N = 1
    t2 = {r[:3]: r for r in reproduce_table("T2").rows}
    for d, lams, pinf in _T2_EXTRA:
        t = TripleSpec(2, 3, pinf)
        profile = RamificationProfile(d, lams)
        assert profile.partitions not in {
            p.partitions for p, _ in enumerate_profiles(t.entries, d, 5)}
        # forced parts missing per finite fiber: exactly one, and the
        # fiber that misses it holds at least p ones
        missing = {p: d // p - lam.count(p)
                   for p, lam in zip(t.entries, lams) if p is not INF}
        assert sorted(missing.values()) == [0] * (len(missing) - 1) + [1]
        split = next(p for p, m in missing.items() if m)
        assert lams[t.entries.index(split)].count(1) >= split
        n_pts = _orbifold_count(t, profile)
        assert n_pts == 5 and profile.free_points == 1
        assert str(verdict(profile, n_pts)) == "PARTIAL(deficit=1)"
        assert t2[(str(t), str(d), str(profile))][6:] == ("N=1", "PARTIAL(deficit=1)")


def _at_most_three_parts(d):
    """The partitions a >= b >= c of d, zero parts dropped."""
    return [tuple(x for x in (a, b, d - a - b) if x)
            for a in range(d, 0, -1) for b in range(min(a, d - a), -1, -1) if d - a - b <= b]


def test_t2_relaxation_counts():
    # the relaxation the quoted rows come from: over (2,3,p), p in 7..d or
    # inf, d <= 42, one forced part q of a finite fibre becomes q ones and
    # the profile reaches n = 5 and N = 1.  It admits 47 profiles, 24 of
    # them over a five-point candidate, the two quoted rows among those
    found = set()
    for d in range(2, 43):
        for p in [*range(7, d + 1), INF]:
            ws = (2, 3, p)
            # the q >= 2 new ones are essential, so the rest has at most 3
            # essential points: over inf, a partition of at most 3 parts
            options = [[(lam, len(lam)) for lam in _at_most_three_parts(d)] if w is INF
                       else [o for o in _fiber_options(w, d) if o[1] <= 3] for w in ws]
            for combo in product(*options):
                n_rest = sum(o[1] for o in combo)
                for i, q in enumerate(ws):
                    if q is INF or n_rest + q != 5 or q not in combo[i][0]:
                        continue
                    lam = list(combo[i][0])
                    lam.remove(q)
                    lams = [o[0] for o in combo]
                    lams[i] = tuple(lam) + (1,) * q
                    profile = RamificationProfile(d, lams)
                    if profile.free_points == 1:
                        found.add((d, profile.partitions, p))
    candidates = {(t.entries, d) for t, d in enumerate_candidates(5)}
    on_candidate = {e for e in found if ((2, 3, e[2]), e[0]) in candidates}
    assert (len(found), len(on_candidate)) == (47, 24)
    assert set(_T2_EXTRA) <= on_candidate


def test_t2_rows_respect_dmax():
    # the quoted rows obey d_max like the enumerated ones
    for d_max in range(2, 13):
        rows = reproduce_table("T2", d_max).rows
        assert all(int(r[1]) <= d_max for r in rows), d_max
        keys = {(r[1], r[2]) for r in rows}
        for d, lams, _ in _T2_EXTRA:
            key = (str(d), str(RamificationProfile(d, lams)))
            assert (key in keys) == (d <= d_max), (d_max, d)


def _sorted_product_sweep(k, weight_cap):
    """Reference: every non-decreasing k-tuple of {2..cap, inf} with
    0 < -chi <= 1/2, in lexicographic order of the pool, with budget
    int(1/(-chi)), in Fractions.  A prefix is dropped once -chi exceeds 1/2
    with every weight still to pick read as 2, the largest reciprocal."""
    pool = list(range(2, weight_cap + 1)) + [INF]
    out = []

    def extend(start, ws, neg_chi):
        left = k - len(ws)
        if neg_chi - Fraction(left, 2) > Fraction(1, 2):
            return
        if left == 0:
            if neg_chi > 0:
                out.append((ws, int(1 / neg_chi)))
            return
        for i in range(start, len(pool)):
            w = pool[i]
            extend(i, ws + (w,), neg_chi - (0 if w is INF else Fraction(1, w)))

    extend(0, (), Fraction(k - 2))
    return out


def _readings(bases):
    """The (weights as read at d, d) pairs of bases over their budgets: a
    weight above d forces no part, so it reads as inf."""
    return {(tuple(INF if w is not INF and w > d else w for w in ws), d)
            for ws, budget in bases for d in range(2, budget + 1)}


def test_multipoint_bases_matches_product_sweep():
    for k in range(4, 11):
        assert multipoint_bases(k) == _sorted_product_sweep(k, 4 // (k - 3)), k


def test_multipoint_bases_cover_every_reading():
    # a weight above the degree has the options of inf, so a reading is all
    # that the search sees of a base at a degree; the derived pool gives
    # every reading that a pool to 60 gives
    for d in range(2, 13):
        for p in range(d + 1, 61):
            assert _fiber_options(p, d) == _fiber_options(INF, d), (p, d)
    for k in (4, 5):
        assert _readings(multipoint_bases(k)) == _readings(_sorted_product_sweep(k, 60)), k


def test_multipoint_bases_edge_k():
    for k in range(-1, 4):
        with pytest.raises(ValueError):
            multipoint_bases(k)
    for k in (6, 7, 8):
        assert multipoint_bases(k) == []


def test_multipoint_bases_bounded():
    for k in (4, 5):
        for ws, budget in multipoint_bases(k):
            neg_chi = (k - 2) - sum(Fraction(0) if w is INF else Fraction(1, w) for w in ws)
            assert 0 < neg_chi <= Fraction(1, 2)
            assert budget == int(1 / neg_chi)
    # the two facts of the argument, on a pool to 60: at k = 4 a finite
    # weight >= 5 leaves a budget of at most 3, at k = 5 no base has a
    # weight >= 3, and from k = 6 there is no base
    wide = [b for ws, b in _sorted_product_sweep(4, 60)
            if any(w is not INF and w >= 5 for w in ws)]
    assert max(wide) == 3
    assert all(w is INF or w < 3 for ws, _ in _sorted_product_sweep(5, 60) for w in ws)
    for k in (6, 7, 8):
        assert _sorted_product_sweep(k, 60) == []
    assert (tuple([2, 2, 2, 3]), 6) in multipoint_bases(4)
    assert multipoint_bases(5) == [((2, 2, 2, 2, 2), 2)]


def test_multipoint_complete_search_empty():
    for k in range(4, 41):
        assert multipoint_complete_search(k) == [], k


def test_multipoint_search_enumerates_nothing(monkeypatch):
    # no base passes the balance test, so no profile is enumerated at all
    seen = []
    real = enumerate_profiles

    def recorded(ws, d, n=None):
        seen.append((tuple(ws), d))
        return real(ws, d, n)

    monkeypatch.setattr(garnier.enumeration, "enumerate_profiles", recorded)
    for k in (4, 5, 6):
        assert multipoint_complete_search(k) == [], k
    assert seen == []


def test_multipoint_search_matches_brute_force(monkeypatch):
    # on every base of a pool to 60 and every degree of its budget, a
    # COMPLETE profile exists (enumerate_profiles + verdict) iff
    # balance <= 2d + 1 and most >= 4, and the search, handed that one
    # base, returns exactly the brute-force COMPLETE profiles and enumerates
    # only the degrees that have one.  Three-point bases are added so that
    # the test also sees hits, and (3,3,inf) at d = 3, at the equality with
    # at most three essential points
    bases = _sorted_product_sweep(4, 60) + _sorted_product_sweep(5, 60)
    bases += [((2, 3, p), 12) for p in (7, 8, 9, 10, 12, INF)] + [((3, 3, INF), 3)]
    hits = 0
    for ws, budget in bases:
        brute = []
        for d in range(2, budget + 1):
            complete = [(ws, d, pr) for pr, n in enumerate_profiles(ws, d)
                        if verdict(pr, n).kind is VerdictKind.COMPLETE]
            balance, most = _balance_and_most(ws, d)
            assert bool(complete) == (balance <= 2 * d + 1 and most >= 4), (ws, d)
            brute += complete
        seen = []
        monkeypatch.setattr(garnier.enumeration, "multipoint_bases",
                            lambda k: [(ws, budget)])
        monkeypatch.setattr(garnier.enumeration, "enumerate_profiles",
                            lambda ws, d: seen.append(d) or enumerate_profiles(ws, d))
        assert multipoint_complete_search(len(ws)) == brute, ws
        assert seen == sorted({d for _, d, _ in brute}), ws
        hits += len(brute)
    assert hits == 52  # all over the (2,3,p) bases
    # the derived pool's pairs at the equality balance = 2d + 1: each has
    # at most two essential points, so none is COMPLETE
    monkeypatch.undo()
    at_equality = {k: [(ws, d, _balance_and_most(ws, d)[1])
                       for ws, budget in multipoint_bases(k) for d in range(2, budget + 1)
                       if _balance_and_most(ws, d)[0] == 2 * d + 1] for k in (4, 5)}
    assert at_equality == {
        4: [((2, 2, 2, 3), 2, 2), ((2, 2, 2, 3), 4, 1), ((2, 2, 2, 3), 6, 0),
            ((2, 2, 2, 4), 2, 2), ((2, 2, 2, 4), 4, 0), ((2, 2, 2, INF), 2, 2)],
        5: [((2, 2, 2, 2, 2), 2, 0)],
    }


def test_multipoint_search_builds_no_fraction(monkeypatch):
    # the multipoint path decides everything in integers: a Fraction built
    # through either module it runs through fails here
    made = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    for module in (garnier.enumeration, garnier.orbifold):
        monkeypatch.setattr(module, "Fraction", CountingFraction)
    for k in (4, 5, 6):
        assert multipoint_complete_search(k) == []
    assert made == []


@pytest.mark.parametrize("tid, count", [("T2", 50), ("T4", 5)])
def test_family_table_fraction_count_is_pinned(monkeypatch, tid, count):
    # apparent points and elementarity are decided on integers: the Fractions
    # left are the base exponents k/p, the denominators of is_elementary's
    # structure and one chi per classify that reaches euler_char
    reproduce_table(tid)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    reproduce_table(tid)
    monkeypatch.undo()
    assert len(built) == count


def test_reproduce_table_ids():
    assert TABLE_IDS == ("T1", "T2", "T3", "T4", "N2a", "N2b", "N7")
    for tid in TABLE_IDS:
        table = reproduce_table(tid)
        assert table.table_id == tid
        text = render_table(table)
        assert text.startswith(f"# {tid}:")
        assert len(text.splitlines()) == 2 + len(table.rows)
        assert lookup_table_id(tid.lower()) == lookup_table_id(tid.upper()) == tid
    assert reproduce_table("n2a").table_id == "N2a"
    assert lookup_table_id("T9") is None
    with pytest.raises(ValueError):
        reproduce_table("T9")


def test_tables_match_goldens():
    from importlib import resources

    for tid in ("t1", "t2", "t3", "t4", "n2a", "n2b", "n7"):
        want = resources.files("garnier").joinpath("goldens", f"{tid}.txt").read_text("utf-8")
        assert render_table(reproduce_table(tid.upper())) == want
