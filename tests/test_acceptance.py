"""Acceptance gate: one criterion per test, one pass/fail line each.

Every comparison is exact (rational or field arithmetic, no tolerances);
the stated wall-clock budgets are asserted as well.  Run with -s to see
the lines, or rely on the per-test pass/fail from pytest itself.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction
from importlib import resources

from garnier.cli import main as cli_main
from garnier.covers import check_f_factorization
from garnier.enumeration import complete_profiles, render_table, reproduce_table
from garnier.exactalg import format_quad
from garnier.hurwitz import find_tuple, realize_profile, verify_tuple
from garnier.orbifold import (
    INF,
    OrbifoldStructure,
    RamificationProfile,
    euler_char,
    pullback,
)


def _report(num: int, ok: bool, desc: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:2d}: {status} {desc} [{elapsed:.2f}s < {budget:g}s]")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def _triangle(*weights):
    return OrbifoldStructure(0, weights)


def test_criterion_01_euler_characteristic_goldens():
    t0 = time.perf_counter()
    ok = (euler_char(_triangle(2, 3, 7)) == Fraction(-1, 42)
          and euler_char(_triangle(2, 3, 8)) == Fraction(-1, 24)
          and euler_char(_triangle(2, 4, 5)) == Fraction(-1, 20)
          and euler_char(_triangle(3, 3, 4)) == Fraction(-1, 12))
    _report(1, ok, "chi goldens -1/42, -1/24, -1/20, -1/12 exact",
            time.perf_counter() - t0, 1.0)


def _random_partition(rng, d):
    parts = []
    left = d
    while left:
        k = rng.randint(1, left)
        parts.append(k)
        left -= k
    return parts


def test_criterion_02_riemann_hurwitz_property():
    t0 = time.perf_counter()
    rng = random.Random(42)
    pool = [Fraction(2), Fraction(3), Fraction(5), Fraction(7, 2), Fraction(9, 4), INF]
    checked = 0
    attempts = 0
    ok = True
    while checked < 1000 and attempts < 40000:
        attempts += 1
        genus = rng.choice([0, 0, 0, 1, 2])
        n = rng.randint(0, 4)
        o = OrbifoldStructure(genus, [rng.choice(pool) for _ in range(n)])
        d = rng.randint(1, 8)
        fibers = [_random_partition(rng, d) for _ in o.support]
        if rng.random() < 0.5:
            fibers.append(_random_partition(rng, d))
        try:
            up = pullback(o, RamificationProfile(d, fibers))
        except ValueError:
            continue
        if euler_char(up) != d * euler_char(o):
            ok = False
            break
        checked += 1
    ok = ok and checked == 1000
    _report(2, ok, f"chi(pullback) = d*chi on {checked} random pairs, d <= 8",
            time.perf_counter() - t0, 5.0)


EXPECTED_T1 = {
    ("(2,3,inf)", 4, "[2,2] [3,1] [1,1,1,1]"),
    ("(2,3,inf)", 6, "[2,2,2] [3,3] [2,1,1,1,1]"),
    ("(2,3,7)", 12, "[2,2,2,2,2,2] [3,3,3,3] [7,1,1,1,1,1]"),
}


def test_criterion_03_five_point_complete_table():
    t0 = time.perf_counter()
    rows = complete_profiles(5, 42)
    got = {(str(t), d, str(p)) for t, d, p in rows}
    ok = got == EXPECTED_T1 and all(p.free_points == 2 for _, _, p in rows)
    _report(3, ok, "exactly 3 complete five-point profiles, N=2 each (d <= 42)",
            time.perf_counter() - t0, 10.0)


def test_criterion_04_intermediate_tables():
    t0 = time.perf_counter()
    ok = True
    for tid in ("n2a", "n2b"):
        want = resources.files("garnier").joinpath("goldens", f"{tid}.txt").read_text("utf-8")
        ok = ok and render_table(reproduce_table(tid.upper())) == want
    # the called-out N-column spot values
    rows = {(r[0], int(r[1])): (r[4], r[5])
            for r in reproduce_table("N2B").rows}
    ok = ok and rows[("(2,3,7)", 10)] == ("N=1", "PARTIAL(deficit=1)")
    ok = ok and rows[("(2,3,7)", 8)] == ("N=0", "DEGENERATE_HYPERGEOMETRIC")
    ok = ok and rows[("(2,3,7)", 9)] == ("N=0", "DEGENERATE_HYPERGEOMETRIC")
    ok = ok and rows[("(2,3,8)", 8)] == ("N=-1", "IMPOSSIBLE")
    ok = ok and rows[("(2,3,8)", 9)] == ("N=-1", "IMPOSSIBLE")
    _report(4, ok, "intermediate N columns match the recorded tables exactly",
            time.perf_counter() - t0, 10.0)


def test_criterion_05_six_point_uniqueness():
    t0 = time.perf_counter()
    rows = complete_profiles(6, 42)
    ok = (len(rows) == 1
          and str(rows[0][0]) == "(2,3,inf)"
          and rows[0][1] == 6
          and str(rows[0][2]) == "[2,2,2] [3,3] [1,1,1,1,1,1]"
          and rows[0][2].free_points == 3)
    _report(5, ok, "unique complete six-point profile: (2,3,inf) d=6, N=3",
            time.perf_counter() - t0, 10.0)


def test_criterion_06_seven_and_more_points_empty():
    t0 = time.perf_counter()
    ok = all(len(complete_profiles(n, 42)) == 0 for n in range(7, 13))
    _report(6, ok, "no complete profiles for any n in 7..12 (d <= 42)",
            time.perf_counter() - t0, 30.0)


def test_criterion_07_hurwitz_certificates():
    t0 = time.perf_counter()
    types12 = [(2,) * 6, (3,) * 4, (7, 1, 1, 1, 1, 1),
               (2,) + (1,) * 10, (2,) + (1,) * 10]
    cert = find_tuple(types12, 12)
    ok = cert.exists and verify_tuple(cert.tuple_.perms, types12, 12)
    mid = time.perf_counter()
    ok = ok and mid - t0 < 60.0
    cert4 = find_tuple([(2, 2), (2, 2), (3, 1)], 4)
    ok = ok and not cert4.exists
    ok = ok and time.perf_counter() - mid < 1.0
    _report(7, ok, "d=12 tuple EXISTS and verifies; d=4 counterexample NOT_EXISTS",
            time.perf_counter() - t0, 61.0)


def test_criterion_08_exponent_table():
    t0 = time.perf_counter()
    # one row per exponent variant; column 4 holds the pulled-back exponents
    rows = reproduce_table("T2", 42).rows
    groups = {(r[0], int(r[1])) for r in rows}
    flat = {(r[0], int(r[1]), tuple(r[4].strip("()").split(","))) for r in rows}
    ok = groups == {("(2,3,inf)", 3), ("(2,3,inf)", 4), ("(2,3,inf)", 6),
                    ("(2,3,8)", 9), ("(2,3,7)", 12)}
    ok = ok and ("(2,3,inf)", 4, ("1/3", "theta", "theta", "theta", "theta")) in flat
    ok = ok and ("(2,3,7)", 12, ("2/7",) * 5) in flat
    ok = ok and ("(2,3,7)", 12, ("3/7",) * 5) in flat
    ok = ok and len(flat) == 8
    _report(8, ok, "all 5 exponent rows reproduced, with the d=4 and d=12 lists",
            time.perf_counter() - t0, 10.0)


def test_criterion_09_degree_four_family(capsys):
    t0 = time.perf_counter()
    code = cli_main(["verify-deg4", "--samples", "30", "--seed", "1"])
    out = capsys.readouterr().out
    ok = code == 0
    ok = ok and "verify-deg4: PASS" in out
    ok = ok and all(" -> ok" in line for line in out.splitlines()
                    if line.startswith("sample "))
    kappa, fact_ok = check_f_factorization()
    golden = resources.files("garnier").joinpath(
        "goldens", "f_factorization.txt").read_text("utf-8")
    recorded = [ln for ln in golden.splitlines() if ln.startswith("kappa = ")][0]
    ok = ok and fact_ok and format_quad(kappa) == recorded.removeprefix("kappa = ")
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print()
        _report(9, ok, "verify-deg4 (30 samples, seed 1) zero failures; "
                       "F = kappa*F1*F2 with golden kappa", elapsed, 30.0)


def test_criterion_10_cross_module_consistency():
    t0 = time.perf_counter()
    ok = True
    for t, d, profile in complete_profiles(5, 42) + complete_profiles(6, 42):
        cert = realize_profile(profile)
        want = list(profile.partitions) + [(2,) + (1,) * (d - 2)] * profile.free_points
        ok = ok and cert.exists and verify_tuple(cert.tuple_.perms, want, d)
    _report(10, ok, "every complete profile admits a verified permutation tuple",
            time.perf_counter() - t0, 70.0)
