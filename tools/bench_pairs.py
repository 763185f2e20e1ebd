"""Paired benchmark runs: a base git ref against the working tree.

    python3 tools/bench_pairs.py --workload hurwitz --seed 1 --seconds 20 --pairs 10

exports the base ref (default HEAD) with `git archive` into a temporary
directory, copies the working tree's files (`git ls-files -co
--exclude-standard`: tracked and untracked, not ignored, as they are on
disk) into another, and runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in the base copy and in the working-tree copy in turn, flipping which side
goes first each pair and removing `src/garnier/__pycache__` before every
run.  Both sides run from like temporary directories: run from the working
tree itself, the change read peak_rss_mb 0.5-1.2% higher than the base for
the same code.
It prints each pair's end-to-end metrics and then, per metric, the median
and quartiles of each side and the number of pairs the working tree won,
with the direction ("better") that BENCHMARK.json gives the metric.

Before the pairs it prints each side's import gen-0 count: the net number
of objects that `import garnier, garnier.cli` leaves in the youngest
garbage-collector generation, taken with gc off in a fresh interpreter
under PYTHONDONTWRITEBYTECODE=1, from a copy of the side's src/garnier
without a __pycache__ (the benchmark's condition: a cached import leaves
about 600 fewer objects).  The count is deterministic, and where the
perfbench worker's first gen-0 collection lands depends on it (README,
"Start-up"), so a shift in it can move a timed op by a collection.  The
count alone does not say which op, so each side then runs one untimed probe
pass of the workload: perfbench/worker.py with `Pass.timed` wrapped to note
the gen-0 count at each op's start and, through gc.callbacks, the
generation of each collection inside the op.  It prints the ops whose
collections differ between the sides, with both start counts.  The probe's
own objects, made before the worker starts, shift where collections land
by a few objects, so an op that starts within a few objects of a
collection can take one in the benchmark and not in the probe.
`--pairs 0` stops after the probe lines, which makes it the cheap check of
where collections land.
Standard library only; set TMPDIR to choose where the two copies go.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the tables of classify-tables, each run in its own worker (perfbench/run.py)
TABLE_IDS = ("T1", "T2", "T3", "T4", "N2a", "N2b", "N7")


def end_to_end_directions() -> Dict[str, str]:
    """Metric name -> "lower" or "higher", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def parse_result(stdout: str) -> dict:
    """The JSON object on the last line of a perfbench/run.py run."""
    return json.loads(stdout.strip().splitlines()[-1])


def _quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def pair_line(i: int, b: dict, c: dict, better: Dict[str, str]) -> str:
    """Pair i's failed ops and its value of each metric, base -> change."""
    cells = [f"{name} {b['metrics'][name]['value']:.6g} -> {c['metrics'][name]['value']:.6g}"
             for name in better]
    return (f"pair {i}: failed {b['failed']}/{b['attempted']} -> "
            f"{c['failed']}/{c['attempted']}; " + "; ".join(cells))


def summarize(base: Sequence[dict], change: Sequence[dict],
              better: Dict[str, str]) -> List[str]:
    """Report lines for paired results (base[i] ran next to change[i]):
    one line per pair with each metric's two values, then per metric the
    base median [q1, q3], the change median [q1, q3], the relative change
    of the medians and the pairs the change won.  A metric with equal
    values in a pair counts as not won."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same positive number of base and change results")
    lines = [pair_line(i, b, c, better) for i, (b, c) in enumerate(zip(base, change), 1)]
    for name, direction in better.items():
        bv = [r["metrics"][name]["value"] for r in base]
        cv = [r["metrics"][name]["value"] for r in change]
        won = sum((x < y) if direction == "lower" else (x > y) for y, x in zip(bv, cv))
        bq, cq = _quartiles(bv), _quartiles(cv)
        rel = (cq[1] - bq[1]) / bq[1] * 100 if bq[1] else float("nan")
        lines.append(f"{name} ({direction} is better):"
                     f" base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                     f" -> change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] ({rel:+.1f}%),"
                     f" won {won}/{len(bv)}")
    return lines


def export(ref: str, dest: str) -> None:
    """The files of ref, as `git archive` writes them, extracted into dest."""
    data = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def export_worktree(dest: str) -> None:
    """The working tree's files that git tracks or would track (untracked
    ones included, ignored ones not), copied into dest as they are on disk;
    a tracked file deleted from the disk is left out."""
    names = subprocess.run(["git", "ls-files", "-co", "--exclude-standard", "-z"], cwd=ROOT,
                           capture_output=True, check=True).stdout.decode().split("\0")
    for name in filter(None, names):
        src, dst = os.path.join(ROOT, name), os.path.join(dest, name)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst)


IMPORT_COUNT_CODE = ("import gc; gc.disable(); c0 = gc.get_count()[0];"
                     " import garnier, garnier.cli; print(gc.get_count()[0] - c0)")


def import_gen0_count(tree: str) -> int:
    """The net gen-0 count of `import garnier, garnier.cli` from a copy of
    tree/src/garnier that has no __pycache__."""
    with tempfile.TemporaryDirectory(prefix="gen0-") as tmp:
        shutil.copytree(os.path.join(tree, "src", "garnier"), os.path.join(tmp, "garnier"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=tmp)
        out = subprocess.run([sys.executable, "-c", IMPORT_COUNT_CODE], cwd=tree, env=env,
                             capture_output=True, text=True, check=True)
    return int(out.stdout)


# perfbench/worker.py's main with Pass.timed wrapped: per op, a line with
# its name, the gen-0 count at its start and the generation of each
# collection in it, printed as a JSON list on the last line.  The records
# are strings, which gc does not track, and the generations go to one list
# that is reused, so the wrapper leaves no tracked object per op and moves
# the worker's collections as little as it can.
PROBE_CODE = """
import gc, json, sys
sys.path.insert(0, sys.argv[1])
import worker
active, gens, lines = [False], [], []

def on_gc(phase, info):
    if phase == "start" and active[0]:
        gens.append(info["generation"])

def timed(self, name, fn, *args, _timed=worker.Pass.timed):
    start = gc.get_count()[0]
    active[0] = True
    try:
        return _timed(self, name, fn, *args)
    finally:
        active[0] = False
        lines.append(" ".join([name, str(start), *map(str, gens)]))
        gens.clear()

gc.callbacks.append(on_gc)
worker.Pass.timed = timed
worker.main(sys.argv[2:])
print(json.dumps(lines))
"""


def probe_events(tree: str, workload: str, seed: int) -> List[list]:
    """[op name, gen-0 count at its start, generations collected in it] for
    each op of one untimed pass of workload in tree, as perfbench/run.py runs
    it: one worker per table on classify-tables, one worker otherwise."""
    tables = TABLE_IDS if workload == "classify-tables" else (None,)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(tree, "src"))
    events = []
    for table in tables:
        argv = ["--workload", workload, "--seed", str(seed)]
        if table is not None:
            argv += ["--table", table]
        out = subprocess.run([sys.executable, "-c", PROBE_CODE,
                              os.path.join(tree, "perfbench"), *argv],
                             cwd=tree, env=env, capture_output=True, text=True, check=True)
        for line in json.loads(out.stdout.strip().splitlines()[-1]):
            name, start, *gens = line.split()
            events.append([name, int(start), [int(g) for g in gens]])
    return events


def collection_diff(base: Sequence[list], change: Sequence[list]) -> List[str]:
    """A line for each op whose collections differ between the two probe
    passes (as multisets of generations), or that only one side ran."""
    other = {name: (start, sorted(gens)) for name, start, gens in change}
    lines = []
    for name, start, gens in base:
        got = other.pop(name, None)
        if got is None:
            lines.append(f"{name}: base only")
        elif got[1] != sorted(gens):
            lines.append(f"{name}: base starts at {start}, collects {sorted(gens)}"
                         f" -> change starts at {got[0]}, collects {got[1]}")
    return lines + [f"{name}: change only" for name in other]


def _remove_cache(tree: str) -> None:
    shutil.rmtree(os.path.join(tree, "src", "garnier", "__pycache__"), ignore_errors=True)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    _remove_cache(tree)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, capture_output=True, text=True, check=True)
    return parse_result(out.stdout)


def _pair_count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--pairs", type=_pair_count, default=10,
                    help="0 runs the import count and the probe pass only")
    ap.add_argument("--base", default="HEAD", help="git ref to compare against")
    args = ap.parse_args(argv)
    better = end_to_end_directions()
    base, change = [], []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp, \
            tempfile.TemporaryDirectory(prefix="bench_pairs-") as work:
        export(args.base, tmp)
        export_worktree(work)
        counts = [import_gen0_count(tree) for tree in (tmp, work)]
        print(f"import gen-0 count: base {counts[0]} -> change {counts[1]}"
              f" ({counts[1] - counts[0]:+d})", flush=True)
        for tree in (tmp, work):
            _remove_cache(tree)
        probes = [probe_events(tree, args.workload, args.seed) for tree in (tmp, work)]
        moved = collection_diff(*probes)
        print(f"probe pass: {len(moved)} of {len(probes[1])} ops take other collections"
              " in the change", flush=True)
        for line in moved:
            print("  " + line, flush=True)
        if not args.pairs:
            return 0
        for i in range(args.pairs):
            order = [("base", tmp), ("change", work)]
            if i % 2:
                order.reverse()
            got = {side: run_once(tree, args.workload, args.seed, args.seconds)
                   for side, tree in order}
            base.append(got["base"])
            change.append(got["change"])
            print(pair_line(i + 1, base[-1], change[-1], better), f"({order[0][0]} first)",
                  flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s,"
          f" base {args.base}:")
    for line in summarize(base, change, better)[len(base):]:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
