"""The package needs nothing beyond the standard library: every absolute
import in src/garnier names a stdlib module, so sympy stays a test-only
oracle and no dependency creeps in.  Its layers import each other only
downwards, along the allowed edges below."""
from __future__ import annotations

import ast
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


# the package modules each layer may import; cli and __init__ sit on top
LAYERS = {
    "orbifold": set(),
    "exactalg": set(),
    "fuchsian": {"orbifold"},
    "hurwitz": {"orbifold"},
    "enumeration": {"orbifold", "fuchsian"},
    "covers": {"exactalg"},
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
