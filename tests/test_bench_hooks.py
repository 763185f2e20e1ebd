"""The benchmark's span tracer wraps garnier functions by name; each name
must still resolve, or ``perfbench/run.py --trace 1`` fails to install."""
from __future__ import annotations

import importlib
import runpy
from pathlib import Path

import garnier
import garnier.cli  # noqa: F401  (the tracer installs after importing the cli)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
