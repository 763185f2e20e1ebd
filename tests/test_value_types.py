"""Value semantics of the package's record and value types: each keeps its
constructor, repr, equality and hash over its own type and fields, and
refuses assignment to a field.  A Frozen value type never equals a plain
tuple; the six NamedTuple records (PulledBackSignature, CandidateVerdict,
Table, PermutationTuple, SolutionRecord, VerifyReport) equal the tuple of
their fields, as every NamedTuple does."""
from __future__ import annotations

from fractions import Fraction

import pytest

from garnier.covers import (DegenerateInput, DegFourParams, SolutionRecord, STPoint,
                            UVPoint, VerifyReport)
from garnier.enumeration import CandidateVerdict, Table, TripleSpec, VerdictKind
from garnier.frozen import Frozen
from garnier.fuchsian import FuchsianSignature, PulledBackSignature, Theta
from garnier.hurwitz import PermutationTuple, RealizabilityCertificate
from garnier.orbifold import INF, OrbifoldStructure, RamificationProfile

F = Fraction


def _q(a, b=0):
    return f"QuadElement(Fraction({a}, 1), Fraction({b}, 1))"


# type name -> (make an instance, its exact repr, one of its fields)
CASES = {
    "OrbifoldStructure": (
        lambda: OrbifoldStructure(0, [2, 3, INF, F(1, 2)]),
        "OrbifoldStructure(genus=0, support=(Fraction(2, 1), Fraction(3, 1), inf, "
        "Fraction(1, 2)))", "genus"),
    "RamificationProfile": (
        lambda: RamificationProfile(3, [[1, 2], [3], (2, 1)]),
        "RamificationProfile(degree=3, partitions=((2, 1), (3,), (2, 1)))", "degree"),
    "Theta": (lambda: Theta(3), "Theta(k=3)", "k"),
    "FuchsianSignature": (
        lambda: FuchsianSignature(0, (F(1, 2), 1, Theta())),
        "FuchsianSignature(genus=0, exponents=(Fraction(1, 2), Fraction(1, 1), "
        "Theta(k=1)))", "exponents"),
    "PulledBackSignature": (
        lambda: PulledBackSignature((F(1, 2), Theta(2)), 3),
        "PulledBackSignature(exponents=(Fraction(1, 2), Theta(k=2)), apparent_count=3)",
        "apparent_count"),
    "TripleSpec": (lambda: TripleSpec(7, 3, 2), "TripleSpec(entries=(2, 3, 7))",
                   "entries"),
    "CandidateVerdict": (
        lambda: CandidateVerdict(VerdictKind.PARTIAL, deficit=2),
        "CandidateVerdict(kind=<VerdictKind.PARTIAL: 'PARTIAL'>, deficit=2)", "kind"),
    "Table": (lambda: Table("T1", "t", ("a",), (("x",),)),
              "Table(table_id='T1', title='t', header=('a',), rows=(('x',),))", "rows"),
    "PermutationTuple": (lambda: PermutationTuple(2, ((1, 0),)),
                         "PermutationTuple(degree=2, perms=((1, 0),))", "perms"),
    "RealizabilityCertificate": (
        lambda: RealizabilityCertificate(False, None, reason="no"),
        "RealizabilityCertificate(exists=False, tuple_=None, stats={}, reason='no')",
        "exists"),
    "DegFourParams": (lambda: DegFourParams(2, 3, 5),
                      f"DegFourParams(a0={_q(2)}, a1={_q(3)}, c={_q(5)})", "c"),
    "STPoint": (lambda: STPoint(2, 5), f"STPoint(s={_q(2)}, t={_q(5)})", "s"),
    "UVPoint": (lambda: UVPoint(2, 3),
                f"UVPoint(u={_q(2)}, v={_q(3)}, "
                "vprime=QuadElement(Fraction(0, 1), Fraction(-5, 2)))", "vprime"),
    "SolutionRecord": (
        lambda: SolutionRecord(1, 2, 3, 4, 5, 6, 7, 8, (("a", True),)),
        "SolutionRecord(uv=1, st=2, params=3, t1=4, t2=5, q1=6, q2=7, rho=8, "
        "checks=(('a', True),))", "checks"),
    "VerifyReport": (
        lambda: VerifyReport(2, 1, (), 3, True, False, 0),
        "VerifyReport(samples=2, seed=1, records=(), kappa=3, kappa_ok=True, "
        "deformation_nontrivial=False, rejected=0)", "kappa_ok"),
}


@pytest.mark.parametrize("name", CASES)
def test_repr_is_pinned(name):
    make, want, _ = CASES[name]
    assert type(make()).__name__ == name
    assert repr(make()) == want


@pytest.mark.parametrize("name", CASES)
def test_equal_values_are_equal(name):
    make = CASES[name][0]
    a, b = make(), make()
    assert a == b and not a != b
    if name != "RealizabilityCertificate":  # its stats dict makes it unhashable
        assert hash(a) == hash(b)
    assert sum(a == other() for other, _, _ in CASES.values()) == 1


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned(name):
    make, _, field = CASES[name]
    obj = make()
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    assert getattr(obj, field) is before


@pytest.mark.parametrize("name, fields", [
    ("OrbifoldStructure", ("genus", "support")),
    ("RamificationProfile", ("degree", "partitions")),
    ("Theta", ("k",)),
    ("FuchsianSignature", ("genus", "exponents")),
    ("TripleSpec", ("entries",)),
    ("DegFourParams", ("a0", "a1", "c")),
    ("STPoint", ("s", "t")),
    ("UVPoint", ("u", "v", "vprime")),
    ("RealizabilityCertificate", ("exists", "tuple_", "stats", "reason")),
])
def test_value_types_differ_from_their_field_tuples(name, fields):
    value = CASES[name][0]()
    assert value != tuple(getattr(value, f) for f in fields)


def test_every_frozen_type_has_a_case():
    # a new value type cannot skip the checks above; one that hands
    # Frozen.__init__ too few values leaves a slot unset and fails its repr
    import garnier.cli  # noqa: F401  (loads every layer a command runs)

    found, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub.__name__)
            todo.append(sub)
    assert found and sorted(found - set(CASES)) == []


def test_fields_compare_and_hash():
    assert Theta() == Theta(1) != Theta(2)
    assert hash(Theta()) == hash(Theta(1))
    assert OrbifoldStructure(0, [2, 3]) != OrbifoldStructure(0, [3, 2])
    assert OrbifoldStructure(0, [2, 3]) != OrbifoldStructure(1, [2, 3])
    assert RamificationProfile(3, [[2, 1]]) != RamificationProfile(3, [[3]])
    assert FuchsianSignature(0, (1,)) == FuchsianSignature(0, (F(1),))
    assert FuchsianSignature(0, (1,)) != FuchsianSignature(1, (1,))
    assert CandidateVerdict(VerdictKind.COMPLETE) == CandidateVerdict(VerdictKind.COMPLETE, None)
    assert CandidateVerdict(VerdictKind.PARTIAL, 1) != CandidateVerdict(VerdictKind.PARTIAL, 2)
    assert DegFourParams(2, 3, 5) != DegFourParams(2, 3, 7)
    assert UVPoint(2, 3) != UVPoint(2, 5)
    assert len({STPoint(2, 5), STPoint(2, 5), STPoint(5, 2)}) == 2


def test_triple_spec_compares_entries_only():
    t = TripleSpec(2, 3, 7)
    assert t == TripleSpec(7, 2, 3) and hash(t) == hash(TripleSpec(3, 7, 2))
    assert repr(t) == "TripleSpec(entries=(2, 3, 7))"
    assert TripleSpec(2, 3, INF) != TripleSpec(2, 3, 7)


def test_constructors_keep_keywords_and_defaults():
    assert Theta().k == 1
    assert OrbifoldStructure(2).support == ()
    assert OrbifoldStructure(genus=0, support=[2]).support == (F(2),)
    assert RamificationProfile(degree=2, partitions=[[1, 1]]).partitions == ((1, 1),)
    assert FuchsianSignature(genus=0, exponents=[2]).exponents == (F(2),)
    assert CandidateVerdict(VerdictKind.COMPLETE).deficit is None
    assert Table(table_id="T", title="t", header=(), rows=()).rows == ()
    assert PermutationTuple(degree=1, perms=()).degree == 1
    cert = RealizabilityCertificate(True, None)
    assert cert.stats == {} and cert.reason == ""
    assert RealizabilityCertificate(True, None).stats is not cert.stats
    assert RealizabilityCertificate(exists=False, tuple_=None, stats={"a": 1},
                                    reason="r").stats == {"a": 1}
    assert DegFourParams(a0=2, a1=3, c=5).a1 == DegFourParams(2, 3, 5).a1
    assert STPoint(s=2, t=5) == STPoint(2, 5)
    assert UVPoint(u=2, v=3) == UVPoint(2, 3)
    with pytest.raises(TypeError):
        UVPoint(2, 3, 4)  # vprime is derived, never passed
    assert SolutionRecord(*range(8), checks=()).ok
    assert not VerifyReport(2, 1, (), 3, kappa_ok=False, deformation_nontrivial=True,
                            rejected=0).ok


@pytest.mark.parametrize("make, exc, message", [
    (lambda: OrbifoldStructure(-1), ValueError, "genus must be >= 0"),
    (lambda: OrbifoldStructure(0, [0]), ValueError, "weight must be positive, got 0"),
    (lambda: RamificationProfile(0, []), ValueError, "degree must be >= 1"),
    (lambda: RamificationProfile(2, [[3]]), ValueError, "(3,) is not a partition of 2"),
    (lambda: Theta(0), ValueError, "theta multiple must be an int >= 1, got 0"),
    (lambda: Theta(F(2)), ValueError,
     "theta multiple must be an int >= 1, got Fraction(2, 1)"),
    (lambda: FuchsianSignature(0, ("x",)), ValueError, "Invalid literal for Fraction: 'x'"),
    (lambda: TripleSpec(1, 3, 7), ValueError,
     "weight must be an integer >= 2 or inf, got 1"),
    (lambda: TripleSpec(2, 3, 6), ValueError, "triple [2, 3, 6] is not hyperbolic"),
    (lambda: DegFourParams(0, 1, 2), DegenerateInput, "a0 = 0 collapses the double fiber"),
    (lambda: DegFourParams(1, 1, 1), DegenerateInput, "pole position c must avoid 0 and 1"),
    (lambda: STPoint(1, 5), DegenerateInput, "s must avoid 0, 1, -1"),
    (lambda: STPoint(2, 1), DegenerateInput, "t = +-1 gives a0 = 0"),
    (lambda: STPoint(2, 3), DegenerateInput, "pole of the a0 chart"),
    (lambda: UVPoint(1, 0), DegenerateInput, "v in {0, 1, -1} degenerates the conic pencil"),
])
def test_validation_messages(make, exc, message):
    with pytest.raises(exc) as info:
        make()
    assert str(info.value) == message
