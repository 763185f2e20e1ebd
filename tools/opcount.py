"""Bytecode instructions executed per command: a deterministic cost count.

    python3 tools/opcount.py

runs `import garnier.cli` and then every argv in ARGVS (the README's
commands and all seven tables), each in a fresh interpreter so that the
process caches start empty, under a tracer (sys.settrace with
`frame.f_trace_opcodes`) that counts the `opcode` events.  It prints one
line per row: the count in code from src/garnier, the count in the rest
(the standard library, import machinery included), and the command.  A
command row counts `garnier.cli.main(argv)` alone, with the import done
before tracing starts and stdout and stderr discarded; the import row
counts the import alone.  Each child runs with PYTHONHASHSEED as given
and GARNIER_SEED unset, and before tracing it points sys.pycache_prefix at
an empty directory and writes no bytecode, so every module imported under
the tracer is compiled from source whatever caches exist.  So the counts
do not depend on the hash seed or on earlier runs; the rest of a command
that reads a packaged file (`--golden`) also depends on the depth of the
checkout's path, so compare checkouts at paths of equal depth.  It exits
1, naming the argv, when a command does not exit 0.

Work done in C (sorting, dict and set operations, bytes.translate) is not
counted, so the count complements paired wall-clock runs and does not
replace them.  Standard library only.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from typing import List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "garnier") + os.sep

ARGVS = (
    ["chi", "--weights", "2,3,7"],
    ["classify", "--weights", "inf,inf"],
    ["enumerate", "--n", "5"],
    ["enumerate", "--n", "7"],
    *(["tables", "--id", t] for t in ("T1", "T2", "T3", "T4", "N2a", "N2b", "N7")),
    ["tables", "--id", "T2", "--golden"],
    ["tables", "--id", "N2b", "--json"],
    ["tables", "--id", "T1", "--dmax", "12"],
    ["hurwitz", "--degree", "4", "--types", "2,2;3,1;1,1,1,1;2,1,1;2,1,1"],
    ["hurwitz", "--degree", "4", "--types", "2,2;2,2;3,1"],
    ["verify-deg4", "--samples", "30", "--seed", "1"],
    ["verify-deg4", "--samples", "5", "--json"],
)


def _traced(run) -> Tuple[int, int, object]:
    """(src/garnier opcodes, other opcodes, run's result) of calling run()."""
    counts = [0, 0]

    def local(i):
        def tracer(frame, event, arg):
            if event == "opcode":
                counts[i] += 1
            return tracer
        return tracer

    in_src, rest = local(0), local(1)

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return in_src if frame.f_code.co_filename.startswith(PACKAGE) else rest

    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return counts[0], counts[1], result


def child(cache_dir: str, argv: Sequence[str]) -> None:
    """Print the JSON [src, rest, exit code] of argv, or of the import when
    argv is empty, with bytecode caches read from the empty cache_dir."""
    sys.pycache_prefix, sys.dont_write_bytecode = cache_dir, True
    sys.path.insert(0, SRC)
    if not argv:
        src, rest, _ = _traced(lambda: __import__("garnier.cli"))
        print(json.dumps([src, rest, 0]))
        return
    import garnier.cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        src, rest, code = _traced(lambda: garnier.cli.main(list(argv)))
    print(json.dumps([src, rest, code]))


def count(argv: Sequence[str], cache_dir: str) -> Tuple[int, int]:
    """(src/garnier, rest) opcode counts of argv in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "GARNIER_SEED"}
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", cache_dir, *argv],
                         env=env, capture_output=True, text=True, check=True).stdout
    src, rest, code = json.loads(out.strip().splitlines()[-1])
    if code != 0:
        raise SystemExit(f"opcount: {' '.join(argv)} exited {code}")
    return src, rest


def report() -> List[str]:
    """The header line and one line per row: src/garnier count, rest count,
    command."""
    lines = [f"{'src/garnier':>11} {'rest':>11}  command"]
    with tempfile.TemporaryDirectory() as cache_dir:
        for argv in [[], *ARGVS]:
            src, rest = count(argv, cache_dir)
            label = " ".join(argv) if argv else "(import garnier.cli)"
            lines.append(f"{src:>11} {rest:>11}  {label}")
    return lines


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], sys.argv[3:])
    else:
        print("\n".join(report()))
