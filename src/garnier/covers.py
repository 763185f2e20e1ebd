"""The explicit degree-4 covering family and its exact verification.

The family: phi(x) = -(c^3/a0^2) (x^2 + a1 x + a0)^2 / (x-c)^3 with
phi(0) = phi(1) = 1, branch data [2,2] over 0, [1,1,1,1] over 1 (the fiber
{0, 1, t1, t2}) and [3,1] over infinity, plus two free simple critical
points q1, q2.  The parameter surface is rational in (s, t); extracting
q1, q2 exactly requires the discriminant quartic F(s, t) to become a
square, which happens on a double cover rationalized over Q(alpha),
alpha^2 = -3, where F splits into two conics F1 F2.  F, F1 and F2 are
tuples of Polys in t, one row per power of s; evaluate_st, which is
exactalg.evaluate_rows, takes them at a point with one gcd.

The (u, v) chart implemented here parametrizes that double cover through
the pencil of conics through the four points F1 = F2 = 0: the conic
C: (s-1)^2 (t^2 + v' t - 3) = 16 s carries the constant ratio
F1/F2 = (v' - 2 alpha)/(v' + 2 alpha), which equals v^2 when
v' = 2 alpha (1 + v^2)/(1 - v^2); rational points of C are then reached
from a parameter u by t = (u^2-1)/(v'+2u) and s = (g+8+4(t-u))/g with
g = t^2 + v' t - 3.  On such points F is a perfect square and both free
critical points are rational over Q(alpha).

The helpers below compute and reject degenerate input; solution_record
checks each identity of the construction once, as a named check.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from .exactalg import (ALPHA, ONE, ZERO, Poly, QuadElement, discriminant,
                       evaluate_rows as evaluate_st, exact_sqrt, format_quad)
from .frozen import Frozen


class DegenerateInput(ValueError):
    """Parameter point outside the open locus where the family is defined."""


class RejectedDraws(RuntimeError):
    """MAX_REJECTED_IN_A_ROW draws in a row were degenerate: some step fails
    at every point (seeds 1-40 at 30 samples never reject more than 2)."""


MAX_REJECTED_IN_A_ROW = 50
DRAW_BOUND = 20


_q = QuadElement.coerce


class DegFourParams(Frozen):
    """Coefficients (a0, a1, c) of the covering; solution_record checks
    that they lie on the surface phi(1) = 1."""

    __slots__ = _fields = ("a0", "a1", "c")
    a0: QuadElement
    a1: QuadElement
    c: QuadElement

    def __init__(self, a0, a1, c):
        a0, a1, c = _q(a0), _q(a1), _q(c)
        if not a0:
            raise DegenerateInput("a0 = 0 collapses the double fiber")
        if c == 0 or c == 1:
            raise DegenerateInput("pole position c must avoid 0 and 1")
        super().__init__(a0, a1, c)


def phi_from_params(p: DegFourParams) -> Tuple[Poly, Poly]:
    """The covering phi = num/den as the pair (num, den), den = (x-c)^3.

    The pair is reduced exactly when p(c) != 0 for p = x^2 + a1 x + a0;
    where p(c) = 0 a factor x - c cancels and phi drops below degree 4.
    """
    quad = Poly([p.a0, p.a1, ONE])
    if not quad.evaluate(p.c):
        raise DegenerateInput("covering degenerates below degree 4")
    num = quad * quad * (-(p.c ** 3) / (p.a0 ** 2))
    den = Poly([-p.c, ONE]) ** 3
    return num, den


class STPoint(Frozen):
    """Chart point of the branch-point surface."""

    __slots__ = _fields = ("s", "t")
    s: QuadElement
    t: QuadElement

    def __init__(self, s, t):
        s, t = _q(s), _q(t)
        if s == 0 or s == 1 or s == -1:
            raise DegenerateInput("s must avoid 0, 1, -1")
        if t ** 2 == 1:
            raise DegenerateInput("t = +-1 gives a0 = 0")
        if not ((s - 1) ** 2 * t ** 2 - (s + 1) ** 2):
            raise DegenerateInput("pole of the a0 chart")
        super().__init__(s, t)


def params_from_st(pt: STPoint) -> DegFourParams:
    s, t = pt.s, pt.t
    s2, sp1, st_t = s * s, s + 1, s * t - t
    a0 = (t * t - 1) / (sp1 * (st_t * st_t - sp1 * sp1))
    a1 = a0 * (s2 * s - 1) - 1
    c = 1 / (1 - s2)
    return DegFourParams(a0, a1, c)


def t_quadratic_coeffs(s: QuadElement, a0: QuadElement
                       ) -> Tuple[QuadElement, QuadElement]:
    """(sum, product) of the two extra points of the unit fiber, as a monic
    quadratic T^2 - sum T + product in terms of (a0, s)."""
    s2 = s * s
    s3 = s2 * s
    total = a0 * (a0 * (s2 - 1) ** 3 - 2 * (s3 - 1)) + 1
    prod = a0 * (2 - a0 * (2 * s3 - 3 * s2 + 1))
    return total, prod


def branch_points_st(pt: STPoint) -> Tuple[QuadElement, QuadElement]:
    """The points t1, t2 with phi(ti) = 1 besides 0 and 1, in closed form;
    solution_record checks them against t_quadratic_coeffs."""
    s, t = pt.s, pt.t
    sp1, st_t, k = s + 1, s * t - t, 1 + 3 * s
    am = st_t - sp1
    ap = st_t + sp1
    # am * ap = (s-1)^2 t^2 - (s+1)^2, nonzero on the chart
    t1 = -(t + 1) * (st_t - k) / (am * am * sp1)
    t2 = -(t - 1) * (st_t + k) / (ap * ap * sp1)
    return t1, t2


# F, F1 and F2 are fixed and Poly is immutable, so each is built once, as
# one Poly in t per power of s, and shared by every caller.
@lru_cache(maxsize=None)
def f_poly() -> Tuple[Poly, ...]:
    """Discriminant factor F(s, t): disc of the free-critical quadratic is
    s^2 (s+1)^2 F(s, t) times a square."""
    rows = ([9, 0, 6, 0, 1], [60, 0, -56, 0, -4], [118, 0, 100, 0, 6],
            [60, 0, -56, 0, -4], [9, 0, 6, 0, 1])
    return tuple(Poly(map(_q, row)) for row in rows)


@lru_cache(maxsize=None)
def f1_poly() -> Tuple[Poly, ...]:
    rows = ([-3, 2 * ALPHA, 1], [-10, -4 * ALPHA, -2], [-3, 2 * ALPHA, 1])
    return tuple(Poly(map(_q, row)) for row in rows)


@lru_cache(maxsize=None)
def f2_poly() -> Tuple[Poly, ...]:
    """The Galois conjugate of F1, alpha -> -alpha in every coefficient."""
    return tuple(Poly([c.conj() for c in row.coeffs]) for row in f1_poly())


def check_f_factorization() -> Tuple[QuadElement, bool]:
    """Constant kappa with F = kappa * F1 * F2: the rows of F1 F2 are the
    convolution of the rows of F1 and F2; kappa is read off the leading
    coefficients, then checked coefficientwise."""
    f, f1, f2 = f_poly(), f1_poly(), f2_poly()
    prod = [Poly([])] * (len(f1) + len(f2) - 1)
    for i, r1 in enumerate(f1):
        for j, r2 in enumerate(f2, i):
            prod[j] = prod[j] + r1 * r2
    kappa = f[-1].lc() / prod[-1].lc()
    return kappa, tuple(row * kappa for row in prod) == f


def free_critical_quadratic(pt: STPoint
                            ) -> Tuple[QuadElement, QuadElement, QuadElement,
                                       QuadElement, Optional[QuadElement]]:
    """(B, C, disc, F(s,t), rho) for the free critical points, roots of
    x^2 - B x - C; disc = B^2 + 4C = s^2 (s+1)^2 F(s,t) rho^2.

    solution_record checks that the quadratic is 2 p'(x)(x - c) - 3 p(x) for
    p = x^2 + a1 x + a0; rho is None when disc / (s^2 (s+1)^2 F) is not a
    square.
    """
    s, t = pt.s, pt.t
    t2, sp1, st_t, k = t * t, s + 1, s * t - t, 1 + 3 * s
    # (s+1)(s-1) ap am with ap am = (s-1)^2 t^2 - (s+1)^2
    den = sp1 * (s - 1) * (st_t * st_t - sp1 * sp1)
    bnum = (((t2 + 3) * s + 4 - 4 * t2) * s + 5 * t2 + 7) * s + 2 - 2 * t2
    b = bnum / den
    c_val = (st_t + k) * (st_t - k) / (den * sp1)
    disc = b * b + 4 * c_val
    fval = evaluate_st(f_poly(), s, t)
    if not fval:
        raise DegenerateInput("F(s,t) = 0: the two free critical points collide "
                              "with the square-root locus")
    rho = exact_sqrt(disc / (s * s * sp1 * sp1 * fval))
    return b, c_val, disc, fval, rho


class UVPoint(Frozen):
    """Chart point of the double cover on which the free critical points
    are rational; vprime is the pencil parameter of the conic through it."""

    __slots__ = _fields = ("u", "v", "vprime")
    u: QuadElement
    v: QuadElement
    vprime: QuadElement

    def __init__(self, u, v):
        u, v = _q(u), _q(v)
        if not v or v ** 2 == 1:
            raise DegenerateInput("v in {0, 1, -1} degenerates the conic pencil")
        super().__init__(u, v, 2 * ALPHA * (1 + v ** 2) / (1 - v ** 2))


def uv_lift(uv: UVPoint) -> STPoint:
    """Rational point of the conic C_vprime over (u, v); solution_record
    checks the pencil ratio F1/F2 = v^2 there."""
    u, vp = uv.u, uv.vprime
    den = vp + 2 * u
    if not den:
        raise DegenerateInput("u sits over the vertex of the conic chart")
    t = (u ** 2 - 1) / den
    g = t ** 2 + vp * t - 3
    if not g:
        raise DegenerateInput("conic chart pole: t^2 + v't - 3 = 0")
    s = (g + 8 + 4 * (t - u)) / g
    if ((s - 1) ** 2 * g - 16 * s) != 0:
        raise AssertionError("lift left the conic")
    return STPoint(s, t)


class SolutionRecord(NamedTuple):
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

    Raises DegenerateInput off the open locus.  The recorded checks are
    exact field identities, and the only place they are checked: a failing
    identity gives a record with ok False and that check's name, not an
    exception.
    """
    st = uv_lift(uv)
    params = params_from_st(st)
    num, den = phi_from_params(params)
    t1, t2 = branch_points_st(st)
    b, c_val, disc, fval, rho = free_critical_quadratic(st)
    if not rho:
        raise DegenerateInput("discriminant identity unavailable at this point")
    sq = exact_sqrt(disc)
    if sq is None:
        raise AssertionError("discriminant is not a square on the double cover")
    q1 = (b + sq) / 2
    q2 = (b - sq) / 2

    s, t = st.s, st.t
    p_poly = Poly([params.a0, params.a1, ONE])
    x_c = Poly([-params.c, ONE])
    q_poly = Poly([-c_val, -b, ONE])  # x^2 - Bx - C
    norm_poly = p_poly.derivative() * x_c * 2 - p_poly * 3
    # phi = 1 exactly where num - den vanishes (den is zero only at c, where
    # num is not), and phi' = dnum / (x-c)^4
    unit_num = num - den
    dnum = num.derivative() * x_c - num * 3

    # the unit fiber {0, 1, t1, t2}, read by three checks below
    unit_vals = [unit_num.evaluate(x) for x in (ZERO, ONE, t1, t2)]
    u0, u1, ut1, ut2 = unit_vals

    checks: List[Tuple[str, bool]] = []
    checks.append(("phi_fixes_0_and_1", not u0 and not u1))
    checks.append(("branch_values_on_unit_fiber", not ut1 and not ut2))
    total, prod = t_quadratic_coeffs(s, params.a0)
    checks.append(("t_quadratic_vieta", t1 + t2 == total and t1 * t2 == prod))
    checks.append(("free_critical_points",
                   not dnum.evaluate(q1) and not dnum.evaluate(q2)))
    checks.append(("q_quadratic_vieta", q1 + q2 == b and q1 * q2 == -c_val))
    checks.append(("q_quadratic_normalization", q_poly == norm_poly))
    checks.append(("discriminant_identity",
                   disc == s ** 2 * (s + 1) ** 2 * fval * rho ** 2))
    f1v = evaluate_st(f1_poly(), s, t)
    f2v = evaluate_st(f2_poly(), s, t)
    checks.append(("pencil_ratio_v_squared", f1v == uv.v ** 2 * f2v))
    special = {ZERO, ONE, params.c}
    pts = {t1, t2, q1, q2}
    checks.append(("points_distinct",
                   len(pts) == 4 and not (pts & special)))

    # branch data: double points over 0, simple unit fiber {0,1,t1,t2},
    # pole orders (3,1) over infinity
    over0_ok = bool(discriminant(p_poly)) and bool(p_poly.evaluate(params.c))
    over1_ok = unit_num.degree() == 4 and not any(unit_vals)
    overinf_ok = (den == x_c ** 3 and num.degree() == 4
                  and bool(num.evaluate(params.c)))
    checks.append(("ramification_profile_2+2_1+1+1+1_3+1",
                   over0_ok and over1_ok and overinf_ok))

    # total branching audit: dnum = p * (x^2 - Bx - C) up to a constant and
    # dnum(c) != 0, so phi' has a pole of order exactly 4 at c and
    # branching = 2 (double fiber) + 2 (triple pole) + 2 (free) = 2d - 2
    dnum_ok = (dnum.monic() == (p_poly * q_poly).monic()
               and bool(dnum.evaluate(params.c)))
    checks.append(("branching_balance_2d-2", dnum_ok))

    return SolutionRecord(uv, st, params, t1, t2, q1, q2, rho, tuple(checks))


def cross_ratio(t1: QuadElement, t2: QuadElement) -> QuadElement:
    """Cross ratio of (0, 1, t1, t2): the actual position of the branch
    configuration up to Moebius transformations."""
    return (t1 * (1 - t2)) / (t2 * (1 - t1))


def draw_uv(rng: random.Random) -> UVPoint:
    """Random chart point with rejection; numerators and denominators are
    uniform on [-DRAW_BOUND, DRAW_BOUND]."""
    b = DRAW_BOUND
    while True:
        try:
            # a zero denominator redraws before the second pair is drawn
            u = Fraction(rng.randint(-b, b), rng.randint(-b, b))
            v = Fraction(rng.randint(-b, b), rng.randint(-b, b))
            return UVPoint(_q(u), _q(v))
        except (ZeroDivisionError, DegenerateInput):
            continue


class VerifyReport(NamedTuple):
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
    rejected = in_a_row = 0
    while len(records) < samples:
        try:
            records.append(solution_record(draw_uv(rng)))
            in_a_row = 0
        except DegenerateInput as e:
            rejected, in_a_row = rejected + 1, in_a_row + 1
            if in_a_row == MAX_REJECTED_IN_A_ROW:
                raise RejectedDraws(f"rejected_draws: {in_a_row} draws in a row at "
                                    f"sample {len(records) + 1}, the last: {e}") from e
    ratios = {cross_ratio(r.t1, r.t2) for r in records if r.t2 and r.t1 != 1}
    return VerifyReport(samples, seed, tuple(records), kappa, kappa_ok,
                        len(ratios) > 1, rejected)
