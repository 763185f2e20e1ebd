"""The functions of src/garnier that no command reaches.

    python3 tools/reach.py

starts a call tracer (sys.settrace) before `import garnier.cli`, runs every
argv in ARGVS through `garnier.cli.main` with stdout and stderr discarded,
and prints the functions of src/garnier that were never entered, one per
line and sorted, as `module.qualname` (the code object's co_qualname).
Lambdas, comprehensions and generator expressions are not listed, and a
generator function counts as entered once it is first resumed.  It exits 1,
naming the argv, when a command does not exit 0, so a broken command cannot
shrink what the map reaches unnoticed.  `tests/test_reach.py` compares the
list with its tagged allowlist.  Standard library only; needs Python 3.11
or later for co_qualname.
"""
from __future__ import annotations

import contextlib
import io
import os
import sys
from inspect import CO_OPTIMIZED
from types import CodeType
from typing import Iterator, List, Set

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "garnier")

TABLES = ("T1", "T2", "T3", "T4", "N2a", "N2b", "N7")
ARGVS = (
    [["tables", "--id", t] + extra for t in TABLES
     for extra in ([], ["--json"], ["--golden"], ["--dmax", "12"])]
    + [["enumerate", "--n", str(n)] for n in range(10)]
    + [["chi", "--weights", "2,3,7"], ["classify", "--weights", "inf,inf"],
       ["chi", "--weights", "2,2,2"], ["classify", "--weights", "2,3,6"],
       ["chi", "--genus", "1", "--weights", "3/2,inf"], ["classify", "--weights", "2,3,8"]]
    + [["hurwitz", "--degree", "4", "--types", "2,2;3,1;1,1,1,1;2,1,1;2,1,1"],
       ["hurwitz", "--degree", "4", "--types", "2,2;2,2;3,1"],
       # three classes that are not transpositions: the first is walked
       # over centralizer orbits, and its first representative fails
       ["hurwitz", "--degree", "6", "--types", "3,3;3,3;2,2,2;2,1,1,1,1"]]
    + [["verify-deg4", "--samples", "3", "--seed", "1"],
       ["verify-deg4", "--samples", "2", "--json"]]
    # a valid form that cli.parse_from_table leaves to argparse: the one
    # argv that builds the full parser, cli.build_parser
    + [["tables", "--id=T3"]]
)


def _functions(code: CodeType) -> Iterator[CodeType]:
    """The function code objects nested in code, at any depth."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & CO_OPTIMIZED and not const.co_name.startswith("<"):
                yield const
            yield from _functions(const)


def defined() -> Set[str]:
    """module.qualname of every function defined in src/garnier."""
    out = set()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path, encoding="utf-8") as fh:
                module = compile(fh.read(), path, "exec")
            out.update(f"{name[:-3]}.{c.co_qualname}" for c in _functions(module))
    return out


def unreached() -> List[str]:
    """Run ARGVS under the tracer and return the functions never entered.
    Call it once per interpreter, before garnier is imported: the import's
    own calls count as reached."""
    entered = set()

    def tracer(frame, event, arg):
        entered.add(frame.f_code)

    sys.path.insert(0, os.path.dirname(SRC))
    sys.settrace(tracer)
    try:
        import garnier.cli
        for argv in ARGVS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = garnier.cli.main(list(argv))
            if code != 0:
                raise SystemExit(f"reach: {' '.join(argv)} exited {code}")
    finally:
        sys.settrace(None)
    reached = {f"{os.path.basename(c.co_filename)[:-3]}.{c.co_qualname}"
               for c in entered if os.path.dirname(c.co_filename) == SRC}
    return sorted(defined() - reached)


if __name__ == "__main__":
    for name in unreached():
        print(name)
