from __future__ import annotations

import random
from fractions import Fraction

import pytest

from garnier import covers
from garnier.covers import (
    DegenerateInput,
    DegFourParams,
    STPoint,
    UVPoint,
    branch_points_st,
    check_f_factorization,
    cross_ratio,
    draw_uv,
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
from garnier.exactalg import ALPHA, QuadElement, parse_quad


def q(a, b=0):
    return QuadElement(Fraction(a), Fraction(b))


UV = UVPoint(q(2), q(3))


def test_uvpoint_validation():
    with pytest.raises(DegenerateInput):
        UVPoint(q(2), q(0))
    with pytest.raises(DegenerateInput):
        UVPoint(q(2), q(1))
    with pytest.raises(DegenerateInput):
        UVPoint(q(2), q(-1))
    assert UV.vprime == 2 * ALPHA * q(10) / q(-8)


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
    with pytest.raises(DegenerateInput):
        DegFourParams(q(1), q(1), q(5))  # off the phi(1)=1 surface


def test_uv_lift_pinned_point():
    st = uv_lift(UV)
    assert st.s == parse_quad("-39/469-30/469*alpha")
    assert st.t == parse_quad("48/139+30/139*alpha")


def test_uv_lift_chart_pole():
    # u = -vprime/2 sits over the vertex of the conic chart
    v = q(2)
    vp = 2 * ALPHA * (1 + v ** 2) / (1 - v ** 2)
    with pytest.raises(DegenerateInput):
        uv_lift(UVPoint(-vp / 2, v))


def test_phi_fixes_unit_fiber():
    params = params_from_st(uv_lift(UV))
    phi = phi_from_params(params)
    assert phi.degree() == 4
    assert phi.evaluate(q(0)) == 1
    assert phi.evaluate(q(1)) == 1


def test_branch_points_satisfy_quadratic():
    st = uv_lift(UV)
    t1, t2 = branch_points_st(st)
    total, prod = t_quadratic_coeffs(st)
    assert t1 + t2 == total
    assert t1 * t2 == prod
    params = params_from_st(st)
    assert branch_points_st(st, params) == (t1, t2)
    assert t_quadratic_coeffs(st, params) == (total, prod)
    phi = phi_from_params(params)
    assert phi.evaluate(t1) == 1
    assert phi.evaluate(t2) == 1


def test_free_critical_quadratic():
    st = uv_lift(UV)
    b, c_val, disc, rho = free_critical_quadratic(st)
    params = params_from_st(st)
    assert free_critical_quadratic(st, params) == (b, c_val, disc, rho)
    assert b == params.a1 + 4 * params.c
    assert c_val == 2 * params.a1 * params.c + 3 * params.a0
    assert disc == b ** 2 + 4 * c_val
    assert rho is not None
    fval = f_poly().evaluate(st.s, st.t)
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
    assert parse_quad(line.removeprefix("kappa = ")) == kappa


def test_f_poly_palindromic_in_s():
    # rows of F read the same upside down, so s^4 F(1/s, t) = F(s, t)
    F = f_poly()
    for i in range(5):
        for j in range(5):
            assert F.coefficient(i, j) == F.coefficient(4 - i, j)


def test_f1_f2_conjugate():
    F1, F2 = f1_poly(), f2_poly()
    for i in range(3):
        for j in range(3):
            c1 = QuadElement.coerce(F1.coefficient(i, j))
            assert c1.conj() == QuadElement.coerce(F2.coefficient(i, j))
    assert F2.coefficient(1, 1) == 4 * ALPHA and F2.coefficient(1, 0) == -10


def test_pencil_ratio_on_lift():
    for u, v in [(2, 3), (5, 2), (-3, 7)]:
        uv = UVPoint(q(u), q(v))
        st = uv_lift(uv)
        f1 = f1_poly().evaluate(st.s, st.t)
        f2 = f2_poly().evaluate(st.s, st.t)
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
    assert parse_quad(d["t1"]) == rec.t1


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
