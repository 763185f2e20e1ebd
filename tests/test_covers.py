from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from garnier import covers
from garnier.covers import (
    MAX_REJECTED_IN_A_ROW,
    DegenerateInput,
    DegFourParams,
    RejectedDraws,
    STPoint,
    UVPoint,
    branch_points_st,
    check_f_factorization,
    cross_ratio,
    draw_uv,
    evaluate_st,
    f1_poly,
    f2_poly,
    f_poly,
    free_critical_quadratic,
    params_from_st,
    phi_from_params,
    solution_record,
    t_quadratic_coeffs,
    uv_lift,
    verify_family,
)
from garnier.exactalg import ALPHA, ONE, Poly, QuadElement, discriminant, format_quad


def q(a, b=0):
    return QuadElement(Fraction(a), Fraction(b))


def at_s_first(rows, s, t):
    """f(s, t) from f's rows (one Poly in t per power of s), taking s first:
    each power of t's coefficient, a polynomial in s, at s, then t.  The
    rows of F, F1 and F2 all have the same length."""
    cols = [Poly([row.coeffs[j] for row in rows]) for j in range(len(rows[0].coeffs))]
    return Poly([col.evaluate(s) for col in cols]).evaluate(t)


def row_by_row(rows, s, t):
    """Reference: each row at t, normalised, then the Poly of those values
    at s."""
    return Poly([row.evaluate(t) for row in rows]).evaluate(s)


UV = UVPoint(q(2), q(3))


def test_uvpoint_validation():
    with pytest.raises(DegenerateInput):
        UVPoint(q(2), q(0))
    with pytest.raises(DegenerateInput):
        UVPoint(q(2), q(1))
    with pytest.raises(DegenerateInput):
        UVPoint(q(2), q(-1))
    assert UV.vprime == 2 * ALPHA * q(10) / q(-8)


def test_uvpoint_vprime_is_derived():
    # vprime follows from v alone: passing one is an error, not ignored
    with pytest.raises(TypeError):
        UVPoint(q(2), q(3), q(99))
    with pytest.raises(TypeError):
        UVPoint(q(2), q(3), vprime=q(99))
    assert "vprime=" in repr(UV) and UV == UVPoint(q(2), q(3))
    assert UV.vprime == q(0, Fraction(-5, 2))


def test_stpoint_validation():
    for s in (0, 1, -1):
        with pytest.raises(DegenerateInput):
            STPoint(q(s), q(5))
    with pytest.raises(DegenerateInput):
        STPoint(q(2), q(1))
    with pytest.raises(DegenerateInput):
        STPoint(q(3), q(2))  # (s-1)^2 t^2 = (s+1)^2


def test_params_validation():
    with pytest.raises(DegenerateInput):
        DegFourParams(q(0), q(1), q(5))
    with pytest.raises(DegenerateInput):
        DegFourParams(q(1), q(1), q(1))
    # off the phi(1) = 1 surface the parameters still build, and
    # solution_record's phi_fixes_0_and_1 check is what reports it
    num, den = phi_from_params(DegFourParams(q(1), q(1), q(5)))
    assert (num - den).evaluate(ONE) != 0


def test_uv_lift_pinned_point():
    st = uv_lift(UV)
    assert format_quad(st.s) == "-39/469-30/469*alpha"
    assert format_quad(st.t) == "48/139+30/139*alpha"


def test_uv_lift_chart_pole():
    # u = -vprime/2 sits over the vertex of the conic chart
    v = q(2)
    vp = 2 * ALPHA * (1 + v ** 2) / (1 - v ** 2)
    with pytest.raises(DegenerateInput):
        uv_lift(UVPoint(-vp / 2, v))


def test_phi_fixes_unit_fiber():
    params = params_from_st(uv_lift(UV))
    num, den = phi_from_params(params)
    assert den == (Poly.x() - params.c) ** 3
    assert num.degree() == 4 and num.evaluate(params.c) != 0
    # phi(x) = 1 where num(x) = den(x) != 0
    assert num.evaluate(q(0)) == den.evaluate(q(0)) != 0
    assert num.evaluate(q(1)) == den.evaluate(q(1)) != 0


def test_phi_degree_drop_is_degenerate():
    # on the phi(1) = 1 surface, but p = x^2 + 4/3 x + 1/3 vanishes at
    # c = -1/3: x - c cancels and phi falls to degree 2
    params = DegFourParams(q(Fraction(1, 3)), q(Fraction(4, 3)), q(Fraction(-1, 3)))
    with pytest.raises(DegenerateInput, match="below degree 4"):
        phi_from_params(params)


def test_branch_points_satisfy_quadratic():
    st = uv_lift(UV)
    t1, t2 = branch_points_st(st)
    params = params_from_st(st)
    total, prod = t_quadratic_coeffs(st.s, params.a0)
    assert t1 + t2 == total
    assert t1 * t2 == prod
    num, den = phi_from_params(params)
    assert num.evaluate(t1) == den.evaluate(t1) != 0
    assert num.evaluate(t2) == den.evaluate(t2) != 0


def test_free_critical_quadratic():
    st = uv_lift(UV)
    b, c_val, disc, fval, rho = free_critical_quadratic(st)
    params = params_from_st(st)
    assert b == params.a1 + 4 * params.c
    assert c_val == 2 * params.a1 * params.c + 3 * params.a0
    assert disc == b ** 2 + 4 * c_val
    assert rho is not None
    # F taken at s first, then t, against the rows-at-t-first evaluation
    assert fval == at_s_first(f_poly(), st.s, st.t)
    assert disc == st.s ** 2 * (st.s + 1) ** 2 * fval * rho ** 2


def test_f_factorization():
    kappa, ok = check_f_factorization()
    assert ok
    assert kappa == 1


def test_f_factorization_matches_golden():
    from importlib import resources

    text = resources.files("garnier").joinpath("goldens", "f_factorization.txt").read_text("utf-8")
    line = [ln for ln in text.splitlines() if ln.startswith("kappa = ")][0]
    kappa, ok = check_f_factorization()
    assert ok
    assert format_quad(kappa) == line.removeprefix("kappa = ")


def test_f_poly_palindromic_in_s():
    # rows of F read the same upside down, so s^4 F(1/s, t) = F(s, t)
    F = f_poly()
    for i in range(5):
        for j in range(5):
            assert F[i].coeffs[j] == F[4 - i].coeffs[j]


def test_f1_f2_conjugate():
    F1, F2 = f1_poly(), f2_poly()
    for i in range(3):
        for j in range(3):
            c1 = QuadElement.coerce(F1[i].coeffs[j])
            assert c1.conj() == QuadElement.coerce(F2[i].coeffs[j])
    assert F2[1].coeffs[1] == 4 * ALPHA and F2[1].coeffs[0] == -10


def test_pencil_ratio_on_lift():
    for u, v in [(2, 3), (5, 2), (-3, 7)]:
        uv = UVPoint(q(u), q(v))
        st = uv_lift(uv)
        f1 = at_s_first(f1_poly(), st.s, st.t)
        f2 = at_s_first(f2_poly(), st.s, st.t)
        assert f1 == uv.v ** 2 * f2


def test_solution_record_checks_pass():
    rec = solution_record(UV)
    assert rec.ok
    assert len(rec.checks) == 11
    assert dict(rec.checks)["discriminant_identity"]
    assert dict(rec.checks)["ramification_profile_2+2_1+1+1+1_3+1"]
    assert len({rec.t1, rec.t2, rec.q1, rec.q2}) == 4
    d = rec.to_dict()
    assert d["ok"] is True
    assert d["t1"] == format_quad(rec.t1)


@pytest.fixture
def quoted_at_uv():
    """The (s, t) chart map and the closed forms for (t1, t2, q1, q2) quoted
    in the family's original presentation, evaluated at UV."""
    u, v, vp = UV.u, UV.v, UV.vprime
    a = ALPHA
    den = u ** 2 - 3 - u * vp
    s = -4 * u * (vp * u + 2) / den
    t = -(3 * u ** 2 + vp * u - 1) / den
    d0 = (u ** 2 * v ** 2 - u ** 2 - 2 * a * u * v ** 2 - 2 * a * u
          + v ** 2 - 1)
    p1 = (-4 * a * u ** 2 + 2 * u * v ** 2 - 2 * u - v ** 2 + 1
          + 13 * u ** 2 * v ** 2 + 11 * u ** 2 + 4 * a * u * v ** 2
          - 4 * a * u - 2 * a * v ** 2 + 2 * a)
    p2 = (-v ** 2 + 1 + 13 * u ** 2 * v ** 2 + 11 * u ** 2 + 4 * a * u ** 2
          - 2 * u * v ** 2 + 2 * u + 2 * a * v ** 2 - 2 * a
          + 4 * a * u * v ** 2 - 4 * a * u)
    t1_den = ((u + 1) * d0 * (v + 1) * (v - 1)
              * (a * v - 2 * v + a - 2 + 7 * u * v + u - 4 * a * u) ** 2
              * (a * v - 2 * v + 2 - a + 7 * u * v - u + 4 * a * u) ** 2)
    t2_den = ((u - 1) * d0 * (v + 1) * (v - 1)
              * (2 * v + a * v - 2 - a + 7 * u * v - u - 4 * a * u) ** 2
              * (2 * v + a * v + 2 + a + 7 * u * v + u + 4 * a * u) ** 2)
    q1_den = (d0 * (a * v - 2 * v + 2 - a + 7 * u * v - u + 4 * a * u)
              * (2 * v + a * v - 2 - a + 7 * u * v - u - 4 * a * u) * (v + 1))
    q2_den = (d0 * (2 * v + a * v + 2 + a + 7 * u * v + u + 4 * a * u)
              * (a * v - 2 * v + a - 2 + 7 * u * v + u - 4 * a * u) * (v - 1))
    t1 = (-Fraction(1, 52) * (353 + 9 * a) * p1 * u
          * (2 * v - 1 + a) * (2 * v + 1 - a)
          * (u * v + u + a * v - a) ** 2 * (u * v - u + a * v + a) ** 2
          / t1_den)
    t2 = (Fraction(1, 52) * (9 * a - 353) * p2 * u
          * (2 * v - 1 - a) * (2 * v + 1 + a)
          * (u * v + u + a * v - a) ** 2 * (u * v - u + a * v + a) ** 2
          / t2_den)
    q1 = (-Fraction(7, 2) * (u * v - u + a * v + a) * u
          * (2 * v + 1 - a) * (2 * v + 1 + a)
          * (u * v + u + a * v - a) ** 2 / q1_den)
    q2 = (-Fraction(7, 2) * (u * v + u + a * v - a) * u
          * (2 * v - 1 + a) * (2 * v - 1 - a)
          * (u * v - u + a * v + a) ** 2 / q2_den)
    return s, t, t1, t2, q1, q2


def test_quoted_forms_disagree_with_the_chart(quoted_at_uv):
    # the quoted forms do not hold in this chart (they appear to assume an
    # undocumented reparametrization), so the package does not carry them
    s, t, t1, t2, q1, q2 = quoted_at_uv
    g = t ** 2 + UV.vprime * t - 3
    assert (s - 1) ** 2 * g - 16 * s != 0  # the quoted (s, t) leaves the conic
    rec = solution_record(UV)
    assert rec.ok
    assert {t1, t2} != {rec.t1, rec.t2}
    assert {q1, q2} != {rec.q1, rec.q2}
    st = uv_lift(UV)
    assert (st.s - 1) ** 2 * (st.t ** 2 + UV.vprime * st.t - 3) == 16 * st.s


def test_cross_ratio():
    assert cross_ratio(q(2), q(3)) == (q(2) * q(-2)) / (q(3) * q(-1))
    rec_a = solution_record(UV)
    rec_b = solution_record(UVPoint(q(5), q(2)))
    assert cross_ratio(rec_a.t1, rec_a.t2) != cross_ratio(rec_b.t1, rec_b.t2)


def test_draw_uv_deterministic():
    a = [draw_uv(random.Random(3)) for _ in range(4)]
    b = [draw_uv(random.Random(3)) for _ in range(4)]
    # same seed, same draws; a fresh rng per draw repeats the first value
    assert a[0].u == b[0].u and a[0].v == b[0].v


def test_verify_family():
    rep = verify_family(samples=4, seed=7)
    assert rep.ok
    assert rep.kappa == 1
    assert len(rep.records) == 4
    rep2 = verify_family(samples=4, seed=7)
    assert rep.to_dict() == rep2.to_dict()
    rep3 = verify_family(samples=4, seed=8)
    assert rep3.to_dict() != rep.to_dict()


@pytest.mark.parametrize("samples", [1, 0, -3])
def test_verify_family_needs_a_sample(samples):
    # an empty report would read ok without checking anything, and one
    # sample has no second cross ratio to show the deformation
    with pytest.raises(ValueError):
        verify_family(samples=samples, seed=1)


def test_solution_record_builds_params_once(monkeypatch):
    calls = []
    original = covers.params_from_st

    def counting(pt):
        calls.append(pt)
        return original(pt)

    monkeypatch.setattr(covers, "params_from_st", counting)
    assert solution_record(UV).ok
    assert len(calls) == 1


def test_failed_identity_is_recorded_not_raised(monkeypatch):
    # each identity is checked once, in solution_record: a wrong helper gives
    # a record naming the failed check instead of an exception
    original = covers.t_quadratic_coeffs

    def wrong_sum(s, a0):
        total, prod = original(s, a0)
        return total + 1, prod

    monkeypatch.setattr(covers, "t_quadratic_coeffs", wrong_sum)
    rec = solution_record(UV)
    assert not rec.ok
    assert [name for name, good in rec.checks if not good] == ["t_quadratic_vieta"]
    monkeypatch.undo()

    monkeypatch.setattr(covers, "f1_poly", covers.f_poly)  # F in place of F1
    rec = solution_record(UV)
    assert not rec.ok
    assert [name for name, good in rec.checks if not good] == ["pencil_ratio_v_squared"]


def test_off_surface_parameters_fail_their_check(monkeypatch):
    # parameters off the phi(1) = 1 surface are a failed check, not a
    # rejected draw: with a1 off by 1/1000, verify_family returns and each
    # record fails phi_fixes_0_and_1.  Draws are capped, so a redraw loop
    # fails this test instead of hanging it.
    original, draw = covers.params_from_st, covers.draw_uv
    draws = []

    def off_surface(pt):
        p = original(pt)
        return DegFourParams(p.a0, p.a1 + Fraction(1, 1000), p.c)

    def capped(rng):
        draws.append(rng)
        if len(draws) > 100:
            raise AssertionError("verify_family keeps redrawing")
        return draw(rng)

    monkeypatch.setattr(covers, "params_from_st", off_surface)
    monkeypatch.setattr(covers, "draw_uv", capped)
    rep = verify_family(samples=2, seed=1)
    assert not rep.ok and len(rep.records) == 2
    assert all(not dict(r.checks)["phi_fixes_0_and_1"] for r in rep.records)


def test_verify_family_stops_after_rejected_draws(monkeypatch):
    # a helper that degenerates at every point ends in a named failure after
    # MAX_REJECTED_IN_A_ROW draws instead of redrawing forever
    original = covers.draw_uv
    draws = []

    def degenerate(uv):
        raise DegenerateInput("degenerate everywhere")

    def counting(rng):
        draws.append(rng)
        if len(draws) > 10 * MAX_REJECTED_IN_A_ROW:
            raise AssertionError("verify_family keeps redrawing")
        return original(rng)

    monkeypatch.setattr(covers, "solution_record", degenerate)
    monkeypatch.setattr(covers, "draw_uv", counting)
    with pytest.raises(RejectedDraws, match=f"rejected_draws: {MAX_REJECTED_IN_A_ROW} "
                       "draws in a row at sample 1, the last: degenerate everywhere"):
        verify_family(samples=2, seed=1)
    assert len(draws) == MAX_REJECTED_IN_A_ROW


def test_verify_family_counts_rejections_in_a_row_only(monkeypatch):
    # runs one short of the cap, more than the cap in all, never stop it
    original = covers.solution_record
    calls = []

    def one_short(uv):
        calls.append(uv)
        if len(calls) % MAX_REJECTED_IN_A_ROW:
            raise DegenerateInput("short run")
        return original(uv)

    monkeypatch.setattr(covers, "solution_record", one_short)
    rep = verify_family(samples=2, seed=1)
    assert rep.rejected == 2 * (MAX_REJECTED_IN_A_ROW - 1) and rep.ok


def test_solution_record_evaluates_each_bipoly_once(monkeypatch):
    # F, F1 and F2, each once at the lifted point
    calls = []
    original = covers.evaluate_st

    def counting(f, s, t):
        calls.append(f)
        return original(f, s, t)

    monkeypatch.setattr(covers, "evaluate_st", counting)
    assert solution_record(UV).ok
    assert len(calls) == 3
    assert calls == [f_poly(), f1_poly(), f2_poly()]


def test_solution_record_evaluates_the_unit_fiber_once(monkeypatch):
    # unit_num at 0, 1, t1 and t2 once, read by all three checks over the
    # unit fiber; evaluate_st takes its rows without Poly.evaluate, so the
    # total is those 4, dnum at q1, q2 and c, and p, num and x^2+a1x+a0 at c
    num, den = phi_from_params(params_from_st(uv_lift(UV)))
    unit_num = num - den
    calls = []
    original = Poly.evaluate

    def counting(self, x):
        calls.append((self, x))
        return original(self, x)

    monkeypatch.setattr(Poly, "evaluate", counting)
    rec = solution_record(UV)
    assert rec.ok
    assert [x for p, x in calls if p == unit_num] == [0, 1, rec.t1, rec.t2]
    assert len(calls) == 10


def _rand_scalar(rng):
    a = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
    b = Fraction(rng.randint(-20, 20), rng.randint(1, 9)) if rng.random() < 0.7 else 0
    return QuadElement(a, b)


def test_evaluate_st_matches_row_by_row_reference():
    # rows of unequal length and denominator, zero rows included, at random
    # points: one unnormalised pass equals normalising every row
    rng = random.Random(19)
    for _ in range(300):
        rows = tuple(Poly([_rand_scalar(rng) for _ in range(rng.randint(0, 6))])
                     for _ in range(rng.randint(1, 5)))
        s, t = _rand_scalar(rng), _rand_scalar(rng)
        assert evaluate_st(rows, s, t) == row_by_row(rows, s, t), (rows, s, t)
    rows = (Poly([1, ALPHA, Fraction(1, 3)]), Poly([]), Poly([Fraction(2, 5)]),
            Poly([0, 0, 0, 1, ALPHA]))
    s, t = q(Fraction(2, 3), Fraction(1, 5)), q(Fraction(-3, 7), 2)
    assert evaluate_st(rows, s, t) == row_by_row(rows, s, t) != 0
    assert evaluate_st((Poly([]), Poly([])), s, t) == 0
    for f in (f_poly(), f1_poly(), f2_poly()):
        assert evaluate_st(f, s, t) == row_by_row(f, s, t)


def test_family_stream_pinned():
    # the family benchmark's stream: the first 100 records drawn from
    # Random("family:1"), degenerate draws skipped; the digest pins every
    # point, value and check of each record
    rng = random.Random("family:1")
    records = []
    while len(records) < 100:
        try:
            records.append(solution_record(draw_uv(rng)).to_dict())
        except DegenerateInput:
            continue
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "ee839494e8261b29ecebc9a2015ed8e4a174aeb9ac1db83d6d0713939fa62d2a")


def test_discriminant_of_the_double_fiber_over_0():
    # solution_record's one discriminant: p = x^2 + a1 x + a0 on the family
    # benchmark's stream, degenerate draws skipped
    rng = random.Random("family:1")
    seen = 0
    while seen < 100:
        try:
            params = solution_record(draw_uv(rng)).params
        except DegenerateInput:
            continue
        a0, a1 = params.a0, params.a1
        d = discriminant(Poly([a0, a1, ONE]))
        assert d == a1 * a1 - 4 * a0 and type(d) is QuadElement, (a0, a1)
        seen += 1


def test_solution_record_builds_no_fraction(monkeypatch):
    # drawing builds Fractions, so the chart points are drawn first
    rng = random.Random(4)
    points = [draw_uv(rng) for _ in range(60)]
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    records = 0
    for uv in points:
        try:
            records += solution_record(uv).ok
        except DegenerateInput:
            pass
    monkeypatch.undo()
    assert records >= 40 and built == []


def test_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    alpha = sympy.sqrt(sympy.Integer(-3))

    def sym(z: QuadElement):
        return sympy.Rational(z.a) + sympy.Rational(z.b) * alpha

    rec = solution_record(UV)
    p = rec.params
    phi = (-(sym(p.c) ** 3 / sym(p.a0) ** 2)
           * (x ** 2 + sym(p.a1) * x + sym(p.a0)) ** 2 / (x - sym(p.c)) ** 3)
    # unit fiber {0, 1, t1, t2}
    unit_num = sympy.numer(sympy.together(phi - 1))
    for r in (sympy.Integer(0), sympy.Integer(1), sym(rec.t1), sym(rec.t2)):
        assert sympy.expand(unit_num.subs(x, r)) == 0
    # free critical points
    dnum = sympy.numer(sympy.together(sympy.diff(phi, x)))
    for r in (sym(rec.q1), sym(rec.q2)):
        assert sympy.expand(dnum.subs(x, r)) == 0
    # surface relation behind phi(1) = 1
    res = sym(p.a0) ** 2 / sym(p.c) ** 3 + (1 + sym(p.a1) + sym(p.a0)) ** 2 / (1 - sym(p.c)) ** 3
    assert sympy.simplify(res) == 0
