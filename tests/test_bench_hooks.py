"""The benchmark's span tracer wraps garnier functions by name; each name
must still resolve, or ``perfbench/run.py --trace 1`` fails to install."""
from __future__ import annotations

import importlib
import json
import runpy
from pathlib import Path

import garnier
import garnier.cli  # noqa: F401  (the tracer installs after importing the cli)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def test_spanned_functions_resolve():
    # run_path compiles the source in memory and writes no bytecode beside it
    spanned = runpy.run_path(str(TRACER))["SPANNED"]
    assert spanned
    for mod_name, fn_name, _, _ in spanned:
        module = importlib.import_module(f"garnier.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"garnier.{mod_name}.{fn_name}"
    # the counted primitives install() patches besides SPANNED
    assert callable(garnier.enumeration.verdict)
    quad = garnier.exactalg.QuadElement
    assert callable(quad.__mul__) and callable(quad.inverse)


def test_worker_profile_contract():
    # the hurwitz workload builds its profiles through garnier.enumeration
    # from the reference rows (lists of lists) and reads these attributes
    assert garnier.enumeration.RamificationProfile is garnier.orbifold.RamificationProfile
    rows = json.loads((PERFBENCH / "reference.json").read_text("utf-8"))["hurwitz_profiles"]
    row = next(r for r in rows if r["degree"] == 4)
    profile = garnier.enumeration.RamificationProfile(row["degree"], row["partitions"])
    assert profile.degree == 4
    assert profile.partitions == ((2, 2), (3, 1), (1, 1, 1, 1))
    assert profile.free_points == 2
    cert = garnier.hurwitz.realize_profile(profile)
    types = list(profile.partitions) + [(2, 1, 1)] * profile.free_points
    assert cert.exists and garnier.hurwitz.verify_tuple(cert.tuple_.perms, types, 4)



def test_family_table_reaches_the_fuchsian_and_orbifold_layers():
    # the classify-tables workload reaches fuchsian and orbifold only through
    # the T2/T4 builder: wrap those spans with the tracer's own rebinding and
    # check that T2 calls each of them
    rebind = runpy.run_path(str(TRACER))["_rebind"]
    calls = dict.fromkeys(("fuchsian.is_elementary", "fuchsian.pullback_exponents",
                           "orbifold.classify"), 0)
    wrapped = []
    for key in calls:
        mod_name, _, fn_name = key.partition(".")
        original = getattr(importlib.import_module(f"garnier.{mod_name}"), fn_name)

        def counting(*args, _fn=original, _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)
        rebind(original, counting)
        wrapped.append((original, counting))
    try:
        garnier.enumeration.reproduce_table("T2")
    finally:
        for original, counting in wrapped:
            rebind(counting, original)
    assert all(calls.values()), calls
