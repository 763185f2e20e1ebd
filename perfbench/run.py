"""Benchmark of the garnier package: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads (see perfbench/README.md for why each was chosen):
  classify-tables      the seven classification tables, one interpreter each
  classify-multipoint  multipoint_complete_search for k = 4, 5, 6
  hurwitz              Hurwitz existence queries, checked by an oracle
  family               seeded samples of the verified degree-4 family

Every timed pass runs in a fresh interpreter (perfbench/worker.py), one at a
time, and every pass of a run has the same inputs.  With --trace 0 the run
repeats passes for --seconds and reports the end-to-end metrics; with
--trace 1 it runs two untraced and two traced passes and reports the
per-layer metrics and the tracing overhead.  The
last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  A fuller record, with the run's environment, goes to
.perfbench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calibration import calibration_ms

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("classify-tables", "classify-multipoint", "hurwitz", "family")
TABLE_IDS = ("T1", "T2", "T3", "T4", "N2a", "N2b", "N7")
SETUP_CODE = "import garnier, garnier.cli; garnier.cli.build_parser()"
SETUP_REPEATS = 11
MIN_PASSES = 3
CALIBRATION_REFERENCE_MS = 1.2
IMPORTTIME_REPEATS = 3
WORKER_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _calls(name):
    return lambda c, s: s.get(name, {}).get("calls", 0)


def _secs(name):
    return lambda c, s: s.get(name, {}).get("s", 0.0)


def _count(key):
    return lambda c, s: c.get(key, 0)


def _ratio(num, den):
    def get(c, s):
        d = den(c, s)
        return num(c, s) / d if d else 0.0
    return get


# (metric, unit, better, getter(counts, span summary)); a layer that a
# workload never enters reads 0 there.
PER_LAYER = (
    ("enumeration.candidates.calls", "count", "lower", _calls("enumeration.candidates")),
    ("enumeration.candidates.s", "s", "lower", _secs("enumeration.candidates")),
    ("enumeration.candidates.pairs", "count", "lower", _count("enumeration.candidates.pairs")),
    ("enumeration.multipoint_bases.s", "s", "lower", _secs("enumeration.multipoint_bases")),
    ("enumeration.multipoint_bases.kept", "count", "lower",
     _count("enumeration.multipoint_bases.kept")),
    ("enumeration.profiles.calls", "count", "lower", _calls("enumeration.profiles")),
    ("enumeration.profiles.s", "s", "lower", _secs("enumeration.profiles")),
    ("enumeration.profiles.kept", "count", "lower", _count("enumeration.profiles.kept")),
) + tuple(
    (f"enumeration.verdict.{kind}", "count", "lower", _count(f"enumeration.verdict.{kind}"))
    for kind in ("COMPLETE", "PARTIAL", "DEGENERATE_HYPERGEOMETRIC", "IMPOSSIBLE")
) + (
    ("fuchsian.is_elementary.calls", "count", "lower", _calls("fuchsian.is_elementary")),
    ("fuchsian.is_elementary.s", "s", "lower", _secs("fuchsian.is_elementary")),
    ("fuchsian.pullback_exponents.calls", "count", "lower",
     _calls("fuchsian.pullback_exponents")),
    ("fuchsian.pullback_exponents.s", "s", "lower", _secs("fuchsian.pullback_exponents")),
    ("orbifold.classify.calls", "count", "lower", _calls("orbifold.classify")),
    ("hurwitz.find_tuple.calls", "count", "lower", _calls("hurwitz.find_tuple")),
    ("hurwitz.find_tuple.s", "s", "lower", _secs("hurwitz.find_tuple")),
    ("hurwitz.search.outer", "count", "lower", _count("hurwitz.search.outer")),
    ("hurwitz.search.h", "count", "lower", _count("hurwitz.search.h")),
    ("hurwitz.search.typehits", "count", "lower", _count("hurwitz.search.typehits")),
    ("hurwitz.typehit_ratio", "ratio", "higher",
     _ratio(_count("hurwitz.search.typehits"), _count("hurwitz.search.outer"))),
    ("hurwitz.class_elements.calls", "count", "lower", _calls("hurwitz.class_elements")),
    ("hurwitz.class_elements.s", "s", "lower", _secs("hurwitz.class_elements")),
    ("hurwitz.factor.calls", "count", "lower", _calls("hurwitz.factor")),
    ("hurwitz.factor.s", "s", "lower", _secs("hurwitz.factor")),
    ("hurwitz.verify_tuple.s", "s", "lower", _secs("hurwitz.verify_tuple")),
    ("hurwitz.verdict.EXISTS", "count", "higher", _count("hurwitz.verdict.EXISTS")),
    ("hurwitz.verdict.NOT_EXISTS", "count", "lower", _count("hurwitz.verdict.NOT_EXISTS")),
    ("hurwitz.unchecked_not_exists", "count", "lower", _count("hurwitz.unchecked_not_exists")),
    ("covers.solution_record.s", "s", "lower", _secs("covers.solution_record")),
    ("covers.uv_lift.s", "s", "lower", _secs("covers.uv_lift")),
    ("covers.free_critical_quadratic.s", "s", "lower", _secs("covers.free_critical_quadratic")),
    ("covers.branch_points_st.s", "s", "lower", _secs("covers.branch_points_st")),
    ("covers.phi_from_params.s", "s", "lower", _secs("covers.phi_from_params")),
    ("covers.check_f_factorization.s", "s", "lower", _secs("covers.check_f_factorization")),
    ("covers.rejected_draws", "count", "lower", _count("covers.rejected_draws")),
    ("covers.accept_ratio", "ratio", "higher",
     _ratio(lambda c, s: _calls("covers.solution_record")(c, s) - c.get("covers.rejected_draws", 0),
            _calls("covers.solution_record"))),
    ("exactalg.quad_mul.count", "count", "lower", _count("exactalg.quad_mul.count")),
    ("exactalg.quad_inverse.count", "count", "lower", _count("exactalg.quad_inverse.count")),
    ("exactalg.discriminant.calls", "count", "lower", _calls("exactalg.discriminant")),
    ("exactalg.discriminant.s", "s", "lower", _secs("exactalg.discriminant")),
    ("exactalg.exact_sqrt.calls", "count", "lower", _calls("exactalg.exact_sqrt")),
    ("exactalg.exact_sqrt.s", "s", "lower", _secs("exactalg.exact_sqrt")),
    ("cli.import_s", "s", "lower", _count("cli.import_s")),
    ("trace.overhead_share", "ratio", "lower", _count("trace.overhead_share")),
    ("trace.spans", "count", "lower", _count("trace.spans")),
)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _run(cmd):
    return subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, check=True)


def run_worker(workload, seed, table=None, spans=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if table is not None:
        cmd += ["--table", table]
    if spans is not None:
        cmd += ["--spans", spans]
    try:
        proc = _run(cmd)
    except subprocess.CalledProcessError as e:
        raise RuntimeError(f"worker {' '.join(cmd[2:])} failed:\n{e.stderr}") from None
    return json.loads(proc.stdout.splitlines()[-1])


def one_pass(workload, seed, spans_prefix=None):
    """Worker outputs of one pass: one interpreter per table on
    classify-tables, one interpreter otherwise."""
    tables = TABLE_IDS if workload == "classify-tables" else (None,)
    outs = []
    for table in tables:
        spans = None
        if spans_prefix is not None:
            spans = f"{spans_prefix}-{table or 'pass'}.json"
        outs.append(run_worker(workload, seed, table, spans))
    return outs


def setup_once():
    """Seconds from spawning a fresh interpreter to a built CLI parser, and
    the calibration kernel's mean time around it."""
    before = calibration_ms()
    start = time.perf_counter()
    _run([sys.executable, "-c", SETUP_CODE])
    seconds = time.perf_counter() - start
    return seconds, (before + calibration_ms()) / 2


def import_seconds():
    """-X importtime of the imports of SETUP_CODE: the cumulative seconds of
    the top-level garnier entries (garnier and garnier.cli, each with what
    it pulls in), and the cumulative seconds per garnier module."""
    proc = _run([sys.executable, "-X", "importtime", "-c", "import garnier, garnier.cli"])
    total, modules = 0.0, {}
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name == "garnier" or name.startswith("garnier."):
            modules[name] = int(parts[1]) / 1e6
            if parts[2] == " " + name:
                total += modules[name]
    return total, modules


def _ops(outs):
    return [op for o in outs for op in o["ops"]]


def _verdict(ops):
    failed = sum(1 for op in ops if not op["ok"])
    unexpected = sum(1 for op in ops if not op["ok"] and not op["known"])
    return unexpected == 0, len(ops), failed


def _latency(outs, key):
    """Median over passes of each operation, then ops/s, p50 and p90 over
    the operations."""
    per_op = {}
    for op in _ops(outs):
        per_op.setdefault(op["name"], []).append(key(op))
    typical = {name: statistics.median(v) for name, v in per_op.items()}
    ms = sorted(typical.values())
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return typical, {"ops_per_s": len(ms) / (sum(ms) / 1000.0),
                     "op_p50_ms": deciles[4], "op_p90_ms": deciles[8]}


def end_to_end(workload, seed, seconds):
    """Identical passes (at least MIN_PASSES) until `seconds` have passed.

    On a shared host the CPU speed drifts by a factor of up to 1.6 between
    runs and within seconds.  So every time is calibrated: scaled by
    CALIBRATION_REFERENCE_MS over the time of a fixed kernel
    (calibration.calibration_ms) around it -- before, after and, for an
    operation, during it (worker.Pass.timed) -- i.e. read as on a host where
    the kernel takes the reference time.  Each operation's time
    is its median over the passes; setup_s is the median of cold starts
    spread over the run.  The uncalibrated values go to the record.
    """
    start = time.perf_counter()
    setup, outs, passes = [], [], 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        setup.append(setup_once())
        outs.extend(one_pass(workload, seed))
        passes += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_once())
    _, raw = _latency(outs, lambda op: op["ms"])
    typical, metrics = _latency(
        outs, lambda op: op["ms"] * CALIBRATION_REFERENCE_MS / op["cal_ms"])
    raw["setup_s"] = statistics.median(s for s, _ in setup)
    metrics["setup_s"] = statistics.median(s * CALIBRATION_REFERENCE_MS / c for s, c in setup)
    raw["peak_rss_mb"] = metrics["peak_rss_mb"] = max(o["rss_kb"] for o in outs) / 1024.0
    detail = {"passes": passes, "distinct_ops": len(typical), "setup_samples": len(setup),
              "ops_beyond_p90": sum(1 for x in typical.values() if x > metrics["op_p90_ms"]),
              "calibration_ms": statistics.median(op["cal_ms"] for op in _ops(outs)),
              "uncalibrated_metrics": raw, "op_median_ms": typical}
    return _ops(outs), {k: (metrics[k], u) for k, u in END_TO_END}, detail


def traced(workload, seed):
    """Pass 0 untraced, traced, traced, untraced: the U T T U order keeps
    drift over the run out of the overhead.  The per-layer numbers come
    from the first traced pass; the spans of both are written out."""
    os.makedirs(OUT_DIR, exist_ok=True)
    prefix = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}")
    plain = one_pass(workload, seed)
    first = one_pass(workload, seed, spans_prefix=prefix + "-a")
    second = one_pass(workload, seed, spans_prefix=prefix + "-b")
    plain += one_pass(workload, seed)
    counts, spans = {}, {}
    for o in first:
        for k, v in o["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for name, row in o["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
    plain_ms = sum(op["ms"] for op in _ops(plain))
    traced_ms = sum(op["ms"] for op in _ops(first + second))
    imports = [import_seconds() for _ in range(IMPORTTIME_REPEATS)]
    counts["cli.import_s"] = statistics.median(total for total, _ in imports)
    counts["trace.overhead_share"] = traced_ms / plain_ms - 1.0
    counts["trace.spans"] = sum(row["calls"] for row in spans.values())
    metrics = {name: (get(counts, spans), unit) for name, unit, _, get in PER_LAYER}
    detail = {"untraced_ms": plain_ms, "traced_ms": traced_ms,
              "counts_repeat": [o["counts"] for o in first] == [o["counts"] for o in second],
              "import_s_by_module": imports[0][1], "spans": spans,
              "span_files": prefix + "-[ab]-*.json"}
    return _ops(plain + first + second), metrics, detail


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _git_commit():
    """HEAD of the checkout; None when it is not a git repository (git does
    not look above the checkout) or git is missing."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(workload, seed, seconds, trace):
    load_start = _loadavg()
    if trace:
        ops, metrics, detail = traced(workload, seed)
    else:
        ops, metrics, detail = end_to_end(workload, seed, seconds)
    correct, attempted, failed = _verdict(ops)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "platform": platform.platform(), "git_commit": _git_commit(),
        "loadavg_start": load_start, "loadavg_end": _loadavg(),
        "failed_share": failed / attempted,
        "trace_overhead_share": metrics.get("trace.overhead_share", (None,))[0],
        "detail": detail, "result": result,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, record = run(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_share={record['failed_share']:.4f}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
