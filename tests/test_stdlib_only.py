"""The package needs nothing beyond the standard library: every absolute
import in src/garnier names a stdlib module, so sympy stays a test-only
oracle and no dependency creeps in.  Its layers import each other only
downwards, along the allowed edges below, importing a layer loads no other
module of the package, and the source stays within its line budget."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "garnier"


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_stdlib():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = [f"{p.name}: {name}" for p in sources for name in _absolute_imports(p)
               if name not in sys.stdlib_module_names]
    assert foreign == []


# the package modules each layer may import; frozen (the base of the Frozen
# value types) is a leaf, cli sits on top and __init__ imports none
LAYERS = {
    "frozen": set(),
    "orbifold": {"frozen"},
    "exactalg": set(),
    "fuchsian": {"frozen", "orbifold"},
    "hurwitz": {"frozen", "orbifold"},
    "enumeration": {"frozen", "orbifold", "fuchsian"},
    "covers": {"frozen", "exactalg"},
}


def _relative_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1 and node.module, (path.name, node.module)
            yield node.module.partition(".")[0]


def test_layers_import_only_their_allowed_modules():
    assert {p.stem for p in SRC.glob("*.py")} == set(LAYERS) | {"cli", "__init__"}
    for name, allowed in LAYERS.items():
        used = set(_relative_imports(SRC / f"{name}.py"))
        assert used <= allowed, (name, sorted(used - allowed))


def _modules_after(statement: str):
    """The modules a fresh interpreter holds after the statement."""
    code = (f"{statement}\nimport sys\nprint(sorted(sys.modules))\n"
            "print(getattr(sys.modules.get('garnier'), '__file__', ''))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    if "garnier" in statement:
        assert Path(out[1]).resolve() == SRC / "__init__.py"
    return ast.literal_eval(out[0])


def _garnier_modules_after(statement: str):
    return [m for m in _modules_after(statement) if m.startswith("garnier.")]


def test_importing_a_layer_loads_only_that_layer():
    # the package re-exports nothing, so a caller pays only for what it imports
    assert _garnier_modules_after("import garnier") == []
    assert _garnier_modules_after("import garnier.orbifold") == ["garnier.frozen",
                                                                 "garnier.orbifold"]
    # covers shares the value-type base, not the orbifold layer
    assert _garnier_modules_after("import garnier.covers") == [
        "garnier.covers", "garnier.exactalg", "garnier.frozen"]


# stdlib modules no command needs at start-up: dataclasses pulls in inspect,
# ast, dis and tokenize; the cli loads difflib, json and importlib.resources
# only for --golden and --json
START_UP_UNNEEDED = {"dataclasses", "inspect", "ast", "dis", "tokenize", "difflib",
                     "json", "importlib.resources"}


def test_start_up_loads_no_unneeded_stdlib_module():
    bare = set(_modules_after("pass"))
    loaded = set(_modules_after("import garnier, garnier.cli; garnier.cli.build_parser()"))
    assert {"garnier.cli", "argparse"} <= loaded
    assert sorted((loaded - bare) & START_UP_UNNEEDED) == []


# at least 15% below the package's 2,920 lines at the start of this design
# round; new code pays for its lines with deletions
LINE_BUDGET = 2482


def test_source_stays_within_the_line_budget():
    counts = {p.name: len(p.read_text("utf-8").splitlines())
              for p in sorted(SRC.glob("*.py"))}
    assert sum(counts.values()) <= LINE_BUDGET, counts
