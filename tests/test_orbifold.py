from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from garnier.orbifold import (
    INF,
    CurvatureClass,
    OrbifoldStructure,
    RamificationProfile,
    classify,
    covering_genus,
    euler_char,
    make_weight,
    partitions_of,
    pullback,
    underlying,
    weight_reciprocal,
)


def structure(weights, genus=0):
    return OrbifoldStructure(genus, weights)


def test_weight_parsing():
    assert make_weight(2) == Fraction(2)
    assert make_weight(INF) is INF
    assert make_weight("7/2") == Fraction(7, 2)
    with pytest.raises(ValueError):
        make_weight(0)
    with pytest.raises(ValueError):
        make_weight(-3)
    # a Fraction is checked as well, not passed through
    for bad in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            make_weight(bad)
    w = Fraction(7, 2)
    assert make_weight(w) is w
    assert str(INF) == "inf"
    assert weight_reciprocal(INF) == 0
    assert weight_reciprocal(Fraction(7, 2)) == Fraction(2, 7)
    # int weights give an exact Fraction, never a float
    assert type(weight_reciprocal(7)) is Fraction
    assert weight_reciprocal(7) == Fraction(1, 7)


def test_weight_one_points_kept_in_place():
    o = structure([3, 1, 2, 1, 3])
    # the support keeps every weight in the order given, weight 1 and equal
    # weights included, so partitions pair with the points by position
    assert o.support == (Fraction(3), Fraction(1), Fraction(2), Fraction(1), Fraction(3))
    # weights() and n_points() skip weight 1, which carries no data
    assert o.n_points() == 3
    assert o.weights() == (Fraction(2), Fraction(3), Fraction(3))
    assert euler_char(o) == euler_char(structure([3, 2, 3]))
    # partition i lies over the i-th point, the weight-1 ones included
    up = pullback(o, RamificationProfile(2, [(2,), (2,), (1, 1), (1, 1), (1, 1)]))
    assert up.weights() == (Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(2),
                            Fraction(3), Fraction(3))


def test_euler_char_triangle_values():
    # the classical minimal hyperbolic triangle values
    assert euler_char(structure([2, 3, 7])) == Fraction(-1, 42)
    assert euler_char(structure([2, 3, 8])) == Fraction(-1, 24)
    assert euler_char(structure([2, 4, 5])) == Fraction(-1, 20)
    assert euler_char(structure([3, 3, 4])) == Fraction(-1, 12)


def test_euler_char_general():
    assert euler_char(structure([])) == 2
    assert euler_char(structure([], genus=1)) == 0
    assert euler_char(structure([INF, INF])) == 0
    assert euler_char(structure([2, 2, INF])) == 0
    assert euler_char(structure([Fraction(5, 2)])) == 2 + Fraction(2, 5) - 1
    assert euler_char(structure([2, 3], genus=1)) == Fraction(-7, 6)


def test_weights_sorted_inf_last():
    o = structure([INF, 3, 2, INF])
    assert o.weights() == (Fraction(2), Fraction(3), INF, INF)


def test_is_integral():
    assert structure([2, 3, INF]).is_integral()
    assert not structure([Fraction(5, 2), 3]).is_integral()


def test_partitions_of_bounds_filter_the_full_list():
    # the full lists: p(r) distinct partitions of r, parts non-increasing,
    # in strictly descending-lex order
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for r, count in enumerate(counts):
        full = partitions_of(r)
        assert len(full) == count
        assert all(sum(lam) == r and list(lam) == sorted(lam, reverse=True)
                   and (not lam or lam[-1] >= 1) for lam in full)
        assert all(a > b for a, b in zip(full, full[1:]))
        # each bound gives the full list filtered, in the same order
        for max_part in range(r + 2):
            for budget in range(r + 1):
                assert partitions_of(r, max_part, budget) == [
                    lam for lam in full
                    if all(k <= max_part for k in lam)
                    and sum(k - 1 for k in lam) <= budget], (r, max_part, budget)
            assert partitions_of(r, max_part) == [
                lam for lam in full if all(k <= max_part for k in lam)]
        for budget in range(r + 1):
            assert partitions_of(r, budget=budget) == [
                lam for lam in full if sum(k - 1 for k in lam) <= budget]


def test_covering_genus():
    # degree 12 cover of the sphere with total branching 2d - 2 stays genus 0;
    # the two simple branch points are needed to reach 22 = 2d - 2
    cover = RamificationProfile(12, [[2] * 6, [3] * 4, [7, 1, 1, 1, 1, 1],
                                     [2] + [1] * 10, [2] + [1] * 10])
    assert covering_genus(0, cover) == 0
    # double cover of the sphere branched over six points: genus 2, and the
    # genus-0 balance would ask for N = -4 free points
    cover = RamificationProfile(2, [[2]] * 6)
    assert covering_genus(0, cover) == 2
    assert cover.free_points == -4
    with pytest.raises(ValueError):
        covering_genus(0, RamificationProfile(2, [[2]]))  # odd total branching
    with pytest.raises(ValueError):
        covering_genus(0, RamificationProfile(3, [[2, 1], [2, 1]]))  # genus < 0


def test_ramification_data_validation():
    with pytest.raises(ValueError):
        RamificationProfile(4, [[3, 2]])  # parts must sum to the degree
    with pytest.raises(ValueError):
        RamificationProfile(4, [[4, 0]])
    with pytest.raises(ValueError):
        RamificationProfile(0, [])
    d = RamificationProfile(6, [[1, 2, 3]])
    assert d.partitions[0] == (3, 2, 1)
    assert d.branching() == 3


def test_pullback_weights_divide():
    base = structure([2, 3, INF])
    cover = RamificationProfile(4, [[2, 2], [3, 1], [1, 1, 1, 1], [2, 1, 1], [2, 1, 1]])
    up = pullback(base, cover)
    # weight p/k at a point of index k; weight-1 preimages disappear, and the
    # free simple branch points acquire weight 1/2 upstairs
    assert up.weights() == (Fraction(1, 2), Fraction(1, 2), Fraction(3), INF, INF, INF, INF)
    assert up.genus == 0
    assert euler_char(up) == 4 * euler_char(base)


def test_pullback_fractional_weights():
    base = structure([Fraction(7)])
    up = pullback(base, RamificationProfile(2, [[2], [2]]))
    assert up.weights() == (Fraction(1, 2), Fraction(7, 2))
    cover = RamificationProfile(3, [[2, 1]] * 4)
    up = pullback(base, cover)
    assert Fraction(7, 2) in up.weights()
    assert Fraction(7) in up.weights()
    assert euler_char(up) == 3 * euler_char(base)


def test_pullback_keeps_support_order_past_ten_points():
    # the weights stay in the given order, so partition 10 lies over point 10
    # (a sort by repr of a point label would put it over point 2)
    base = structure([2] * 10 + [3])
    up = pullback(base, RamificationProfile(3, [(2, 1)] * 10 + [(3,)]))
    assert up.weights() == (Fraction(2),) * 10


def test_pullback_requires_known_points():
    base = structure([2, 3, 7])
    with pytest.raises(ValueError):
        pullback(base, RamificationProfile(2, [[2], [2]]))


def _random_partition(rng, d):
    parts = []
    left = d
    while left:
        k = rng.randint(1, left)
        parts.append(k)
        left -= k
    return sorted(parts, reverse=True)


def test_riemann_hurwitz_property_random():
    rng = random.Random(20260814)
    pool = [Fraction(2), Fraction(3), Fraction(7, 2), Fraction(5), INF]
    checked = 0
    attempts = 0
    while checked < 300 and attempts < 5000:
        attempts += 1
        genus = rng.choice([0, 0, 0, 1])
        n = rng.randint(0, 4)
        o = OrbifoldStructure(genus, [rng.choice(pool) for _ in range(n)])
        d = rng.randint(1, 8)
        fibers = [_random_partition(rng, d) for _ in o.support]
        if rng.random() < 0.5:
            fibers.append(_random_partition(rng, d))
        try:
            up = pullback(o, RamificationProfile(d, fibers))
        except ValueError:
            continue  # parity or genus constraint failed for this draw
        assert euler_char(up) == d * euler_char(o)
        checked += 1
    assert checked == 300


def test_underlying():
    o = structure([Fraction(5, 2), Fraction(7, 3), 2, INF])
    u = underlying(o)
    assert u.weights() == (Fraction(2), Fraction(5), Fraction(7), INF)
    assert underlying(u).weights() == u.weights()


def test_classify_branches():
    assert classify(structure([2, 3, 7])) is CurvatureClass.HYPERBOLIC
    assert classify(structure([2, 3, 6])) is CurvatureClass.EUCLIDEAN
    assert classify(structure([2, 3, 5])) is CurvatureClass.SPHERICAL
    assert classify(structure([])) is CurvatureClass.SPHERICAL
    assert classify(structure([], genus=1)) is CurvatureClass.EUCLIDEAN
    assert classify(structure([], genus=2)) is CurvatureClass.HYPERBOLIC
    # genus 0 exceptional cases: one finite weight, or two distinct weights
    assert classify(structure([5])) is CurvatureClass.NOT_UNIFORMIZABLE
    assert classify(structure([2, 3])) is CurvatureClass.NOT_UNIFORMIZABLE
    assert classify(structure([2, INF])) is CurvatureClass.NOT_UNIFORMIZABLE
    assert classify(structure([INF, INF])) is CurvatureClass.EUCLIDEAN
    assert classify(structure([3, 3])) is CurvatureClass.SPHERICAL
    assert classify(structure([INF])) is CurvatureClass.SPHERICAL
    assert classify(structure([2, 2, 2, 2])) is CurvatureClass.EUCLIDEAN
    with pytest.raises(ValueError):
        classify(structure([Fraction(5, 2), 3, 7]))


def test_min_neg_chi_is_sharp_exhaustively():
    # every integral hyperbolic structure with small weights respects the bound,
    # and the bound is attained within the scan (at (2,3,7), (2,2,2,3), ...);
    # raising any weight only lowers chi, so small pools cover the minima;
    # the minima of -chi are the classical ones (Hurwitz's 1/42 for (2,3,7))
    pool = [Fraction(k) for k in range(2, 13)] + [INF]
    quoted = {(0, 3): Fraction(1, 42), (0, 4): Fraction(1, 6),
              (1, 1): Fraction(1, 2), (1, 2): Fraction(1)}
    for (genus, n), bound in quoted.items():
        best = None
        for combo in itertools.combinations_with_replacement(pool, n):
            o = OrbifoldStructure(genus, combo)
            chi = euler_char(o)
            if chi < 0:
                assert -chi >= bound
                best = -chi if best is None else min(best, -chi)
        assert best == bound


def test_chi_monotone_in_weights():
    assert euler_char(structure([2, 3, 8])) < euler_char(structure([2, 3, 7]))
    assert euler_char(structure([2, 3, INF])) < euler_char(structure([2, 3, 100]))
