"""The explicit degree-4 covering family and its exact verification.

The family: phi(x) = -(c^3/a0^2) (x^2 + a1 x + a0)^2 / (x-c)^3 with
phi(0) = phi(1) = 1, branch data [2,2] over 0, [1,1,1,1] over 1 (the fiber
{0, 1, t1, t2}) and [3,1] over infinity, plus two free simple critical
points q1, q2.  The parameter surface is rational in (s, t); extracting
q1, q2 exactly requires the discriminant quartic F(s, t) to become a
square, which happens on a double cover rationalized over Q(alpha),
alpha^2 = -3, where F splits into two conics F1 F2.

The (u, v) chart implemented here parametrizes that double cover through
the pencil of conics through the four points F1 = F2 = 0: the conic
C: (s-1)^2 (t^2 + v' t - 3) = 16 s carries the constant ratio
F1/F2 = (v' - 2 alpha)/(v' + 2 alpha), which equals v^2 when
v' = 2 alpha (1 + v^2)/(1 - v^2); rational points of C are then reached
from a parameter u by t = (u^2-1)/(v'+2u) and s = (g+8+4(t-u))/g with
g = t^2 + v' t - 3.  On such points F is a perfect square and both free
critical points are rational over Q(alpha).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .exactalg import (ALPHA, BiPoly, Poly, QuadElement, RatFunc,
                       discriminant, exact_sqrt, format_quad)


class DegenerateInput(ValueError):
    """Parameter point outside the open locus where the family is defined."""


def _q(x) -> QuadElement:
    return QuadElement.coerce(x)


@dataclass(frozen=True)
class DegFourParams:
    """Coefficients (a0, a1, c) of the covering, on the surface phi(1) = 1."""

    a0: QuadElement
    a1: QuadElement
    c: QuadElement

    def __post_init__(self):
        object.__setattr__(self, "a0", _q(self.a0))
        object.__setattr__(self, "a1", _q(self.a1))
        object.__setattr__(self, "c", _q(self.c))
        if self.a0.is_zero():
            raise DegenerateInput("a0 = 0 collapses the double fiber")
        if self.c == 0 or self.c == 1:
            raise DegenerateInput("pole position c must avoid 0 and 1")
        if not surface_residual(self.a0, self.a1, self.c).is_zero():
            raise DegenerateInput("parameters are off the phi(1)=1 surface")


def surface_residual(a0: QuadElement, a1: QuadElement, c: QuadElement) -> QuadElement:
    return a0 ** 2 / c ** 3 + (1 + a1 + a0) ** 2 / (1 - c) ** 3


def phi_from_params(p: DegFourParams) -> RatFunc:
    """The covering as a reduced rational function of x; degree must be 4."""
    quad = Poly([p.a0, p.a1, QuadElement(1)], "x")
    scale = -(p.c ** 3) / (p.a0 ** 2)
    num = quad * quad * scale
    den = Poly([-p.c, QuadElement(1)], "x") ** 3
    phi = RatFunc(num, den)
    if phi.degree() != 4:
        raise DegenerateInput("covering degenerates below degree 4")
    for base in (QuadElement(0), QuadElement(1)):
        if phi.evaluate(base) != 1:
            raise AssertionError("phi must fix 0 and 1")
    return phi


@dataclass(frozen=True)
class STPoint:
    """Chart point of the branch-point surface."""

    s: QuadElement
    t: QuadElement

    def __post_init__(self):
        s, t = _q(self.s), _q(self.t)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        if s == 0 or s == 1 or s == -1:
            raise DegenerateInput("s must avoid 0, 1, -1")
        if t ** 2 == 1:
            raise DegenerateInput("t = +-1 gives a0 = 0")
        if ((s - 1) ** 2 * t ** 2 - (s + 1) ** 2).is_zero():
            raise DegenerateInput("pole of the a0 chart")


def params_from_st(pt: STPoint) -> DegFourParams:
    s, t = pt.s, pt.t
    a0 = (t ** 2 - 1) / ((s + 1) * ((s - 1) ** 2 * t ** 2 - (s + 1) ** 2))
    a1 = a0 * (s ** 3 - 1) - 1
    c = 1 / (1 - s ** 2)
    return DegFourParams(a0, a1, c)


def t_quadratic_coeffs(pt: STPoint, params: Optional[DegFourParams] = None
                       ) -> Tuple[QuadElement, QuadElement]:
    """(sum, product) of the two extra points of the unit fiber, as a monic
    quadratic T^2 - sum T + product in terms of (a0, s).  params, when
    given, must be params_from_st(pt); it saves rebuilding them."""
    s = pt.s
    a0 = (params or params_from_st(pt)).a0
    total = a0 ** 2 * (s ** 2 - 1) ** 3 - 2 * a0 * (s ** 3 - 1) + 1
    prod = a0 * (2 - a0 * (2 * s ** 3 - 3 * s ** 2 + 1))
    return total, prod


def branch_points_st(pt: STPoint, params: Optional[DegFourParams] = None
                     ) -> Tuple[QuadElement, QuadElement]:
    """The points t1, t2 with phi(ti) = 1 besides 0 and 1, in closed form;
    verified against the quadratic they must satisfy.  params as in
    t_quadratic_coeffs."""
    s, t = pt.s, pt.t
    am = s * t - t - 1 - s
    ap = s * t - t + 1 + s
    # am * ap = (s-1)^2 t^2 - (s+1)^2, nonzero on the chart
    t1 = -(t + 1) * (s * t - t - 1 - 3 * s) / (am ** 2 * (s + 1))
    t2 = -(t - 1) * (s * t - t + 1 + 3 * s) / (ap ** 2 * (s + 1))
    total, prod = t_quadratic_coeffs(pt, params)
    if t1 + t2 != total or t1 * t2 != prod:
        raise AssertionError("closed-form branch values fail their quadratic")
    return t1, t2


def f_poly() -> BiPoly:
    """Discriminant factor F(s, t): disc of the free-critical quadratic is
    s^2 (s+1)^2 F(s, t) times a square."""
    one = QuadElement(1)
    terms = {
        (4, 4): one, (4, 2): _q(6), (4, 0): _q(9),
        (3, 4): _q(-4), (3, 2): _q(-56), (3, 0): _q(60),
        (2, 4): _q(6), (2, 2): _q(100), (2, 0): _q(118),
        (1, 4): _q(-4), (1, 2): _q(-56), (1, 0): _q(60),
        (0, 4): one, (0, 2): _q(6), (0, 0): _q(9),
    }
    return BiPoly.from_terms(terms, ("s", "t"))


def f1_poly() -> BiPoly:
    a = ALPHA
    terms = {
        (0, 2): _q(1), (0, 1): 2 * a, (0, 0): _q(-3),
        (1, 2): _q(-2), (1, 1): -4 * a, (1, 0): _q(-10),
        (2, 2): _q(1), (2, 1): 2 * a, (2, 0): _q(-3),
    }
    return BiPoly.from_terms(terms, ("s", "t"))


def f2_poly() -> BiPoly:
    """The Galois conjugate of F1, alpha -> -alpha in every coefficient."""
    f1 = f1_poly()
    return BiPoly([[c.conj() for c in row] for row in f1.rows], f1.vars)


def check_f_factorization() -> Tuple[QuadElement, bool]:
    """Constant kappa with F = kappa * F1 * F2: read off the leading
    coefficients, then checked coefficientwise."""
    f = f_poly()
    prod = f1_poly() * f2_poly()
    kappa = _q(f.rows[-1][-1]) / prod.rows[-1][-1]
    scaled = BiPoly([[_q(cc) * kappa for cc in row] for row in prod.rows], prod.vars)
    return kappa, scaled == f


def free_critical_quadratic(pt: STPoint, params: Optional[DegFourParams] = None
                            ) -> Tuple[QuadElement, QuadElement, QuadElement,
                                       Optional[QuadElement]]:
    """(B, C, disc, rho) for the free critical points, roots of
    x^2 - B x - C; disc = B^2 + 4C = s^2 (s+1)^2 F(s,t) rho^2.

    The quadratic is also 2 p'(x)(x - c) - 3 p(x) for p = x^2 + a1 x + a0,
    which is asserted; rho is None only if the square identity fails.
    params as in t_quadratic_coeffs.
    """
    s, t = pt.s, pt.t
    am = s * t - t - 1 - s
    ap = s * t - t + 1 + s
    bnum = (t ** 2 * s ** 3 + 3 * s ** 3 - 4 * t ** 2 * s ** 2 + 4 * s ** 2
            + 5 * t ** 2 * s + 7 * s + 2 - 2 * t ** 2)
    b = bnum / ((s - 1) * (s + 1) * ap * am)
    c_val = ((s * t - t + 1 + 3 * s) * (s * t - t - 1 - 3 * s)
             / ((s + 1) ** 2 * ap * am * (s - 1)))
    p = params or params_from_st(pt)
    if b != p.a1 + 4 * p.c or c_val != 2 * p.a1 * p.c + 3 * p.a0:
        raise AssertionError("free-critical quadratic disagrees with 2p'(x-c)-3p")
    disc = b ** 2 + 4 * c_val
    fval = f_poly().evaluate(s, t)
    if fval.is_zero():
        raise DegenerateInput("F(s,t) = 0: the two free critical points collide "
                              "with the square-root locus")
    rho = exact_sqrt(disc / (s ** 2 * (s + 1) ** 2 * fval))
    return b, c_val, disc, rho


@dataclass(frozen=True)
class UVPoint:
    """Chart point of the double cover on which the free critical points
    are rational; vprime is the pencil parameter of the conic through it."""

    u: QuadElement
    v: QuadElement
    vprime: QuadElement = QuadElement(0)

    def __post_init__(self):
        u, v = _q(self.u), _q(self.v)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if v.is_zero() or v ** 2 == 1:
            raise DegenerateInput("v in {0, 1, -1} degenerates the conic pencil")
        object.__setattr__(self, "vprime", 2 * ALPHA * (1 + v ** 2) / (1 - v ** 2))


def uv_lift(uv: UVPoint) -> STPoint:
    """Rational point of the conic C_vprime over (u, v), with the pencil
    ratio F1/F2 = v^2 asserted exactly."""
    u, v, vp = uv.u, uv.v, uv.vprime
    den = vp + 2 * u
    if den.is_zero():
        raise DegenerateInput("u sits over the vertex of the conic chart")
    t = (u ** 2 - 1) / den
    g = t ** 2 + vp * t - 3
    if g.is_zero():
        raise DegenerateInput("conic chart pole: t^2 + v't - 3 = 0")
    s = (g + 8 + 4 * (t - u)) / g
    if ((s - 1) ** 2 * g - 16 * s) != 0:
        raise AssertionError("lift left the conic")
    pt = STPoint(s, t)
    f1 = f1_poly().evaluate(s, t)
    f2 = f2_poly().evaluate(s, t)
    if f1 != v ** 2 * f2:
        raise AssertionError("pencil ratio F1/F2 = v^2 fails on the lift")
    return pt


@dataclass(frozen=True)
class SolutionRecord:
    """One exactly verified member of the algebraic solution family."""

    uv: UVPoint
    st: STPoint
    params: DegFourParams
    t1: QuadElement
    t2: QuadElement
    q1: QuadElement
    q2: QuadElement
    rho: QuadElement
    checks: Tuple[Tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(v for _, v in self.checks)

    def to_dict(self) -> Dict[str, object]:
        return {
            "u": format_quad(self.uv.u),
            "v": format_quad(self.uv.v),
            "s": format_quad(self.st.s),
            "t": format_quad(self.st.t),
            "a0": format_quad(self.params.a0),
            "a1": format_quad(self.params.a1),
            "c": format_quad(self.params.c),
            "t1": format_quad(self.t1),
            "t2": format_quad(self.t2),
            "q1": format_quad(self.q1),
            "q2": format_quad(self.q2),
            "rho": format_quad(self.rho),
            "checks": {k: v for k, v in self.checks},
            "ok": self.ok,
        }


def solution_record(uv: UVPoint) -> SolutionRecord:
    """Build and exactly verify one member of the family over a chart point.

    Raises DegenerateInput off the open locus; all recorded checks are exact
    field identities.
    """
    st = uv_lift(uv)
    params = params_from_st(st)
    phi = phi_from_params(params)
    dphi = phi.derivative()
    t1, t2 = branch_points_st(st, params)
    b, c_val, disc, rho = free_critical_quadratic(st, params)
    if rho is None or rho.is_zero():
        raise DegenerateInput("discriminant identity unavailable at this point")
    sq = exact_sqrt(disc)
    if sq is None:
        raise AssertionError("discriminant is not a square on the double cover")
    q1 = (b + sq) / 2
    q2 = (b - sq) / 2

    s, t = st.s, st.t
    p_poly = Poly([params.a0, params.a1, QuadElement(1)], "x")
    x_poly = Poly.x("x")
    q_poly = x_poly * x_poly - b * x_poly - Poly.const(c_val, "x")
    norm_poly = (p_poly.derivative() * Poly([-params.c, QuadElement(1)], "x") * 2
                 - p_poly * 3)

    checks: List[Tuple[str, bool]] = []
    checks.append(("phi_fixes_0_and_1",
                   phi.evaluate(QuadElement(0)) == 1
                   and phi.evaluate(QuadElement(1)) == 1))
    checks.append(("branch_values_on_unit_fiber",
                   phi.evaluate(t1) == 1 and phi.evaluate(t2) == 1))
    total, prod = t_quadratic_coeffs(st, params)
    checks.append(("t_quadratic_vieta", t1 + t2 == total and t1 * t2 == prod))
    checks.append(("free_critical_points",
                   not dphi.evaluate(q1) and not dphi.evaluate(q2)))
    checks.append(("q_quadratic_vieta", q1 + q2 == b and q1 * q2 == -c_val))
    checks.append(("q_quadratic_normalization", q_poly == norm_poly))
    fval = f_poly().evaluate(s, t)
    checks.append(("discriminant_identity",
                   disc == s ** 2 * (s + 1) ** 2 * fval * rho ** 2
                   and not rho.is_zero()))
    f1v = f1_poly().evaluate(s, t)
    f2v = f2_poly().evaluate(s, t)
    checks.append(("pencil_ratio_v_squared", f1v == uv.v ** 2 * f2v))
    special = {QuadElement(0), QuadElement(1), params.c}
    pts = {t1, t2, q1, q2}
    checks.append(("points_distinct",
                   len(pts) == 4 and not (pts & special)))

    # branch data: double points over 0, simple unit fiber {0,1,t1,t2},
    # pole orders (3,1) over infinity
    disc_p = discriminant(p_poly)
    over0_ok = (not _q(disc_p).is_zero()
                and not p_poly.evaluate(params.c).is_zero())
    unit_num = phi.num - phi.den
    over1_ok = (unit_num.degree() == 4
                and not any(unit_num.evaluate(x)
                            for x in (QuadElement(0), QuadElement(1), t1, t2)))
    overinf_ok = (phi.den == Poly([-params.c, QuadElement(1)], "x") ** 3
                  and phi.num.degree() == 4
                  and not phi.num.evaluate(params.c).is_zero())
    checks.append(("ramification_profile_2+2_1+1+1+1_3+1",
                   over0_ok and over1_ok and overinf_ok))

    # total branching audit: phi' reduces to p * (x^2 - Bx - C) over (x-c)^4,
    # so branching = 2 (double fiber) + 2 (triple pole) + 2 (free) = 2d - 2
    dnum_ok = (dphi.num.monic() == (p_poly * q_poly).monic()
               and dphi.den.monic() == Poly([-params.c, QuadElement(1)], "x") ** 4)
    checks.append(("branching_balance_2d-2", dnum_ok))

    return SolutionRecord(uv, st, params, t1, t2, q1, q2, rho, tuple(checks))


def cross_ratio(t1: QuadElement, t2: QuadElement) -> QuadElement:
    """Cross ratio of (0, 1, t1, t2): the actual position of the branch
    configuration up to Moebius transformations."""
    return (t1 * (1 - t2)) / (t2 * (1 - t1))


def draw_uv(rng: random.Random, bound: int = 20) -> UVPoint:
    """Random chart point with rejection; numerators and denominators are
    uniform on [-bound, bound]."""
    while True:
        vals = []
        ok = True
        for _ in range(2):
            num = rng.randint(-bound, bound)
            den = rng.randint(-bound, bound)
            if den == 0:
                ok = False
                break
            vals.append(Fraction(num, den))
        if not ok:
            continue
        try:
            return UVPoint(_q(vals[0]), _q(vals[1]))
        except DegenerateInput:
            continue


@dataclass(frozen=True)
class VerifyReport:
    samples: int
    seed: int
    records: Tuple[SolutionRecord, ...]
    kappa: QuadElement
    kappa_ok: bool
    deformation_nontrivial: bool
    rejected: int

    @property
    def ok(self) -> bool:
        return (self.kappa_ok and self.deformation_nontrivial
                and all(r.ok for r in self.records))

    def to_dict(self) -> Dict[str, object]:
        return {
            "samples": self.samples,
            "seed": self.seed,
            "kappa": format_quad(self.kappa),
            "factorization_ok": self.kappa_ok,
            "deformation_nontrivial": self.deformation_nontrivial,
            "rejected_draws": self.rejected,
            "records": [r.to_dict() for r in self.records],
            "ok": self.ok,
        }


def verify_family(samples: int, seed: int) -> VerifyReport:
    """Verify the symbolic factorization once and the full construction at
    random chart points; samples must be at least 2, so that the cross
    ratios have something to vary against."""
    if samples < 2:
        raise ValueError(f"verify_family needs samples >= 2, got {samples}")
    kappa, kappa_ok = check_f_factorization()
    rng = random.Random(seed)
    records = []
    rejected = 0
    while len(records) < samples:
        uv = draw_uv(rng)
        try:
            records.append(solution_record(uv))
        except DegenerateInput:
            rejected += 1
            continue
    ratios = set()
    for r in records:
        if r.t2.is_zero() or r.t1 == 1:
            continue
        ratios.add(cross_ratio(r.t1, r.t2))
    nontrivial = len(ratios) > 1
    return VerifyReport(samples, seed, tuple(records), kappa, kappa_ok,
                        nontrivial, rejected)
