"""Every function in src/garnier is reached by a command or has a named role.

tools/reach.py runs a fixed list of commands under a call tracer and lists
the functions never entered; that list must equal UNREACHED below, so a
function that loses its last command caller, or a new one that no command
calls, fails here until it is deleted, given a caller or tagged."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11),
                                reason="tools/reach.py names functions by co_qualname")

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reach.py"

# why each is kept although no command enters it:
#   oracle          - an independent reference that tests compare against
#   benchmark       - a search that tests and perfbench run, not the CLI
#   value-semantics - equality, hash, repr and immutability of a value type
#   api             - public arithmetic that no command's inputs take
TAGS = {"oracle", "benchmark", "value-semantics", "api"}
UNREACHED = {
    "enumeration.multipoint_bases": "benchmark",
    "enumeration.multipoint_complete_search": "benchmark",
    "exactalg.Poly.__hash__": "value-semantics",
    "exactalg.Poly.__repr__": "value-semantics",
    "exactalg.Poly.__rsub__": "api",
    "exactalg.Poly.__setattr__": "value-semantics",
    "exactalg.QuadElement.__repr__": "value-semantics",
    "exactalg.QuadElement.__setattr__": "value-semantics",
    "exactalg.QuadElement.inverse": "api",
    "frozen.Frozen.__delattr__": "value-semantics",
    "frozen.Frozen.__eq__": "value-semantics",
    "frozen.Frozen.__hash__": "value-semantics",
    "frozen.Frozen.__repr__": "value-semantics",
    "frozen.Frozen.__setattr__": "value-semantics",
    "frozen.Frozen._values": "value-semantics",
    "fuchsian._weight_of": "oracle",
    "fuchsian.orbifold_of": "oracle",
    "hurwitz.realize_profile": "benchmark",
    "orbifold.OrbifoldStructure.n_points": "oracle",
    "orbifold.RamificationProfile.with_free_points": "benchmark",
    "orbifold.covering_genus": "oracle",
    "orbifold.pullback": "oracle",
}


def test_allowlist_entries_are_tagged():
    assert set(UNREACHED.values()) <= TAGS
    assert len(UNREACHED) < 23


def test_unreached_functions_are_the_tagged_ones():
    # a fresh interpreter, so the tracer sees the import; the seed comes
    # from the default, as a plain `garnier verify-deg4` takes it
    env = {k: v for k, v in os.environ.items() if k != "GARNIER_SEED"}
    out = subprocess.run([sys.executable, str(TOOL)], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert sorted(out) == out
    missing = sorted(set(out) - set(UNREACHED))
    stale = sorted(set(UNREACHED) - set(out))
    assert (missing, stale) == ([], []), "untagged unreached / tagged but reached"
