"""Span tracer that instruments garnier from outside, without editing it.

``install`` replaces public functions by wrappers in every garnier module
that binds them.  Internal callers look module globals up at call time, so
a call from one layer into another goes through the wrapper, including
names imported into another module (``covers.discriminant`` is wrapped at
that binding too).  Each call records a span (id, parent, op, name, start,
end) in memory; arithmetic primitives and the per-profile verdict only bump
counters.  Nothing is written until the worker ends.
"""
from __future__ import annotations

import functools
import sys
import time
from types import ModuleType
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, Optional[int], Optional[str], str, float, float]

# (module, function, span name, counters fed from the result)
SPANNED = (
    ("cli", "main", "cli.main", None),
    ("orbifold", "classify", "orbifold.classify", None),
    ("fuchsian", "is_elementary", "fuchsian.is_elementary", None),
    ("fuchsian", "pullback_exponents", "fuchsian.pullback_exponents", None),
    ("enumeration", "reproduce_table", "enumeration.reproduce_table", None),
    ("enumeration", "render_table", "enumeration.render_table", None),
    ("enumeration", "complete_profiles", "enumeration.complete_profiles", None),
    ("enumeration", "enumerate_candidates", "enumeration.candidates",
     lambda r: {"enumeration.candidates.pairs": len(r)}),
    ("enumeration", "enumerate_profiles", "enumeration.profiles",
     lambda r: {"enumeration.profiles.kept": len(r)}),
    ("enumeration", "multipoint_complete_search", "enumeration.multipoint_search", None),
    ("enumeration", "multipoint_bases", "enumeration.multipoint_bases",
     lambda r: {"enumeration.multipoint_bases.kept": len(r)}),
    ("hurwitz", "realize_profile", "hurwitz.realize_profile", None),
    ("hurwitz", "find_tuple", "hurwitz.find_tuple",
     lambda r: {f"hurwitz.search.{k}": v for k, v in r.stats.items()}),
    ("hurwitz", "h_set", "hurwitz.h_set", None),
    ("hurwitz", "class_elements", "hurwitz.class_elements", None),
    ("hurwitz", "orbit_reps", "hurwitz.orbit_reps", None),
    ("hurwitz", "factor_into_transpositions", "hurwitz.factor", None),
    ("hurwitz", "verify_tuple", "hurwitz.verify_tuple", None),
    ("exactalg", "discriminant", "exactalg.discriminant", None),
    ("exactalg", "exact_sqrt", "exactalg.exact_sqrt", None),
    ("covers", "check_f_factorization", "covers.check_f_factorization", None),
    ("covers", "draw_uv", "covers.draw_uv", None),
    ("covers", "solution_record", "covers.solution_record", None),
    ("covers", "uv_lift", "covers.uv_lift", None),
    ("covers", "params_from_st", "covers.params_from_st", None),
    ("covers", "phi_from_params", "covers.phi_from_params", None),
    ("covers", "branch_points_st", "covers.branch_points_st", None),
    ("covers", "free_critical_quadratic", "covers.free_critical_quadratic", None),
)


class Tracer:
    """Spans and counters of one worker process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self.op: Optional[str] = None
        self._stack: List[int] = []

    def add(self, counts: Dict[str, int]) -> None:
        for key, n in counts.items():
            self.counts[key] = self.counts.get(key, 0) + n

    def spanned(self, name: str, fn: Callable,
                on_result: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.op, name, start, end)
            if on_result is not None:
                self.add(on_result(result))
            return result
        return wrapper

    def counted(self, key: Callable, fn: Callable) -> Callable:
        """Count calls under key(result), no span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            k = key(result)
            counts[k] = counts.get(k, 0) + 1
            return result
        return wrapper

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds (inclusive
        minus the time of direct child spans)."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for sid, _, _, name, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[sid]
        return out


def _garnier_modules() -> List[ModuleType]:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "garnier" or name.startswith("garnier."))]


def _rebind(original: Callable, wrapper: Callable) -> None:
    for mod in _garnier_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every SPANNED function and the counted primitives.  The garnier
    modules must already be imported."""
    mods = {m.__name__.rpartition(".")[2]: m for m in _garnier_modules()}
    for mod_name, fn_name, span_name, on_result in SPANNED:
        original = getattr(mods[mod_name], fn_name)
        _rebind(original, tracer.spanned(span_name, original, on_result))
    verdict = mods["enumeration"].verdict
    _rebind(verdict, tracer.counted(
        lambda v: f"enumeration.verdict.{v.kind.value}", verdict))
    quad = mods["exactalg"].QuadElement
    mul = tracer.counted(lambda _: "exactalg.quad_mul.count", quad.__mul__)
    quad.__mul__ = quad.__rmul__ = mul
    quad.inverse = tracer.counted(lambda _: "exactalg.quad_inverse.count",
                                  quad.inverse)
