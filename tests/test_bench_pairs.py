"""tools/bench_pairs.py's summary on canned perfbench result lines, its
collection diff on canned probe events, its import gen-0 count, one
probe pass of classify-multipoint, its --pairs option and the two copies
its sides run from; no benchmark runs here."""
from __future__ import annotations

import compileall
import importlib.util
import json
import shutil
import subprocess
import tempfile
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"ops_per_s": "higher", "op_p90_ms": "lower"}


def _line(ops_per_s, p90, failed=0):
    """A last stdout line of perfbench/run.py, as it prints it."""
    return json.dumps({"correct": 324 - failed, "attempted": 324, "failed": failed,
                       "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                                   "op_p90_ms": {"value": p90, "unit": "ms"}}})


def test_summary_of_canned_pairs():
    base = [bench_pairs.parse_result("ops_per_s = 2000 1/s\n" + _line(v, p))
            for v, p in [(2000, 0.50), (2100, 0.60), (2200, 0.40), (1900, 0.55)]]
    change = [bench_pairs.parse_result(_line(v, p, f)) for v, p, f in
              [(2100, 0.45, 0), (2100, 0.50, 0), (2300, 0.42, 0), (2000, 0.40, 1)]]
    lines = bench_pairs.summarize(base, change, BETTER)
    assert lines[0] == ("pair 1: failed 0/324 -> 0/324; ops_per_s 2000 -> 2100;"
                        " op_p90_ms 0.5 -> 0.45")
    assert lines[3].startswith("pair 4: failed 0/324 -> 1/324;")
    # medians and inclusive quartiles of each side; a tie is not a win, and
    # a lower p90 wins where a higher ops_per_s does
    assert lines[4] == ("ops_per_s (higher is better): base 2050 [1975, 2125]"
                        " -> change 2100 [2075, 2150] (+2.4%), won 3/4")
    assert lines[5] == ("op_p90_ms (lower is better): base 0.525 [0.475, 0.5625]"
                        " -> change 0.435 [0.415, 0.4625] (-17.1%), won 3/4")
    assert len(lines) == 6


def test_summary_of_one_pair_and_mismatched_sides():
    one = [bench_pairs.parse_result(_line(2000, 0.5))]
    lines = bench_pairs.summarize(one, one, BETTER)
    assert lines[-1] == ("op_p90_ms (lower is better): base 0.5 [0.5, 0.5]"
                         " -> change 0.5 [0.5, 0.5] (+0.0%), won 0/1")
    with pytest.raises(ValueError):
        bench_pairs.summarize(one, one * 2, BETTER)
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [], BETTER)


def test_directions_come_from_the_benchmark_file():
    better = bench_pairs.end_to_end_directions()
    assert better == {"setup_s": "lower", "ops_per_s": "higher", "op_p50_ms": "lower",
                      "op_p90_ms": "lower", "peak_rss_mb": "lower"}


def test_import_gen0_count_is_repeatable(tmp_path):
    first = bench_pairs.import_gen0_count(bench_pairs.ROOT)
    assert type(first) is int and first > 0
    assert bench_pairs.import_gen0_count(bench_pairs.ROOT) == first
    # a byte-compiled tree counts as the same tree without a __pycache__
    pkg = tmp_path / "src" / "garnier"
    shutil.copytree(Path(bench_pairs.ROOT) / "src" / "garnier", pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    plain = bench_pairs.import_gen0_count(str(tmp_path))
    assert compileall.compile_dir(str(pkg), quiet=1)
    assert list((pkg / "__pycache__").glob("cli.*.pyc"))
    assert bench_pairs.import_gen0_count(str(tmp_path)) == plain == first


def test_collection_diff_of_canned_probes():
    base = [["k4", 689, [0]], ["k5", 676, []], ["k6", 1, []], ["gone", 5, []]]
    change = [["k4", 683, [0]], ["k5", 695, [0]], ["k6", 1, [1, 0]], ["new", 7, [0]]]
    assert bench_pairs.collection_diff(base, change) == [
        "k5: base starts at 676, collects [] -> change starts at 695, collects [0]",
        "k6: base starts at 1, collects [] -> change starts at 1, collects [0, 1]",
        "gone: base only",
        "new: change only",
    ]
    # the same generations in another order are the same collections
    assert bench_pairs.collection_diff([["a", 3, [1, 0]]], [["a", 9, [0, 1]]]) == []


def test_probe_pass_notes_each_op_and_repeats():
    events = bench_pairs.probe_events(bench_pairs.ROOT, "classify-multipoint", 1)
    assert [name for name, _, _ in events] == ["k4", "k5", "k6"]
    for _, start, gens in events:
        assert 0 <= start and set(gens) <= {0, 1, 2}
    assert bench_pairs.probe_events(bench_pairs.ROOT, "classify-multipoint", 1) == events


def test_zero_pairs_is_a_probe_only_run(monkeypatch, capsys):
    # the exports, the counts and the probes are stubbed (a marker file
    # tells the change side's copy from the base's), and a benchmark run
    # fails the test
    monkeypatch.setattr(bench_pairs, "export", lambda ref, dest: None)
    monkeypatch.setattr(bench_pairs, "export_worktree",
                        lambda dest: Path(dest, "change").touch())

    def is_change(tree):
        return Path(tree, "change").exists()

    monkeypatch.setattr(bench_pairs, "import_gen0_count",
                        lambda tree: 4000 if is_change(tree) else 4006)
    monkeypatch.setattr(bench_pairs, "probe_events", lambda tree, workload, seed:
                        [["k4", 600 if is_change(tree) else 606, [0]]])

    def no_run(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    assert bench_pairs.main(["--workload", "classify-multipoint", "--pairs", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "import gen-0 count: base 4006 -> change 4000 (-6)",
        "probe pass: 0 of 1 ops take other collections in the change",
    ]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--workload", "classify-multipoint", "--pairs", "-1"])
    assert exc.value.code == 2
    assert "--pairs: must be >= 0, got -1" in capsys.readouterr().err


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    "-c", "commit.gpgsign=false", *args], cwd=repo, check=True,
                   capture_output=True)


def test_both_sides_run_from_temporary_copies(tmp_path, monkeypatch, capsys):
    # a small repository with a committed file edited on disk, an untracked
    # file, an ignored one and a tracked one deleted; the counts, probes
    # and benchmark runs are stubbed, and each run notes what its tree holds
    repo = tmp_path / "repo"
    repo.mkdir()
    shutil.copy(Path(bench_pairs.ROOT) / "BENCHMARK.json", repo)
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "a.txt").write_text("committed")
    (repo / "gone.txt").write_text("tracked")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "a.txt").write_text("edited")
    (repo / "new.txt").write_text("untracked")
    (repo / "ignored.txt").write_text("ignored")
    (repo / "gone.txt").unlink()
    monkeypatch.setattr(bench_pairs, "ROOT", str(repo))
    monkeypatch.setattr(bench_pairs, "import_gen0_count", lambda tree: 4000)
    monkeypatch.setattr(bench_pairs, "probe_events", lambda tree, workload, seed: [])
    runs = []

    def run_once(tree, workload, seed, seconds):
        runs.append((tree, sorted(p.name for p in Path(tree).iterdir()),
                     Path(tree, "a.txt").read_text()))
        metrics = {name: {"value": 1.0} for name in bench_pairs.end_to_end_directions()}
        return {"failed": 0, "attempted": 1, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--workload", "hurwitz", "--pairs", "2"]) == 0
    capsys.readouterr()
    # pair 1 runs the base first, pair 2 the change
    (base, base_files, base_a), (change, change_files, change_a) = runs[0], runs[1]
    assert runs[2][0] == change and runs[3][0] == base
    assert base_a == "committed" and base_files == [".gitignore", "BENCHMARK.json",
                                                     "a.txt", "gone.txt"]
    assert change_a == "edited" and change_files == [".gitignore", "BENCHMARK.json",
                                                     "a.txt", "new.txt"]
    # two temporary copies, removed at the end, and never the tree itself
    for tree in (base, change):
        assert Path(tree).parent == Path(tempfile.gettempdir())
        assert Path(tree) != repo and not Path(tree).exists()
