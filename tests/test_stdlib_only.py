"""The package needs nothing beyond the standard library: every absolute
import in src/garnier names a stdlib module, so sympy stays a test-only
oracle and no dependency creeps in."""
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
