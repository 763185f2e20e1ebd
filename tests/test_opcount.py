"""tools/opcount.py counts the same opcodes whatever the hash seed."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "opcount.py"


def test_counts_do_not_depend_on_the_hash_seed():
    # the two runs go side by side, each a sequence of fresh interpreters
    runs = [subprocess.Popen([sys.executable, str(TOOL)], stdout=subprocess.PIPE, text=True,
                             env=dict(os.environ, PYTHONHASHSEED=seed))
            for seed in ("0", "1")]
    outs = [run.communicate(timeout=120)[0].splitlines() for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    first = outs[0]
    assert first == outs[1]
    header, import_row, *rows = first
    assert header.split() == ["src/garnier", "rest", "command"]
    assert import_row.endswith("(import garnier.cli)")
    assert len(rows) == 18
    counts = [line.split(None, 2) for line in rows]
    # every command runs code of the package
    assert all(int(src) > 0 for src, _, _ in counts)
    assert {cmd for _, _, cmd in counts} >= {f"tables --id {t}" for t in
                                            ("T1", "T2", "T3", "T4", "N2a", "N2b", "N7")}
