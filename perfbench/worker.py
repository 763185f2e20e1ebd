"""One timed pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed S [--table ID]
        [--spans PATH]

Prints one JSON object: every operation with its latency in ms, its check
outcome and the calibration kernel's time around it; the process's peak
RSS; and with --spans the tracer's counters and per-span summary (tracing
is on, and the spans themselves go to PATH).  Only the calls into garnier are timed; the
checks run outside the timed region.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import oracle  # noqa: E402
from calibration import calibration_ms  # noqa: E402
from tracer import Tracer, install  # noqa: E402

HURWITZ_SEEDED_PER_DEGREE = 80
HURWITZ_PANEL_PER_DEGREE = 10
FAMILY_SAMPLES_PER_PASS = 100
CALIBRATE_EVERY_S = 0.05


def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _import_garnier():
    import garnier
    import garnier.cli
    if not os.path.abspath(garnier.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"garnier imported from {garnier.__file__}, not from {SRC}")
    return garnier


class Pass:
    """Collects the operations of one pass; ``tracer`` is None untraced."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ops = []
        self.counts = {}
        self.calibration = calibration_ms()
        self.samples = []
        signal.signal(signal.SIGALRM, lambda *_: self.samples.append(calibration_ms()))

    def timed(self, name, fn, *args):
        """fn(*args) and its time in ms.  While it runs, a SIGALRM timer runs
        the calibration kernel every CALIBRATE_EVERY_S, between bytecodes, so
        that a long operation is calibrated against the host's speed during
        it; the kernel's own time is taken out of the operation's."""
        if self.tracer is not None:
            self.tracer.op = name
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        ms = (time.perf_counter() - start) * 1000.0
        return result, ms - sum(self.samples)

    def record(self, name, ms, ok, known=False):
        """One checked operation, with the median time of the calibration
        kernel just before, during and just after it."""
        after = calibration_ms()
        cal = statistics.median([self.calibration, *self.samples, after])
        self.ops.append({"name": name, "ms": ms, "ok": bool(ok), "known": known,
                         "cal_ms": cal})
        self.calibration = after

    def bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n


def run_table(p: Pass, garnier, ref, table_id: str) -> None:
    """What `garnier tables --id X` does, stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code, ms = p.timed(table_id, garnier.cli.main, ["tables", "--id", table_id])
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    p.record(table_id, ms, code == 0 and digest == ref["tables"][table_id])


def run_multipoint(p: Pass, garnier, ref) -> None:
    en = garnier.enumeration
    for k in ref["multipoint_k"]:
        hits, ms = p.timed(f"k{k}", lambda: en.multipoint_complete_search(k))
        p.record(f"k{k}", ms, hits == [])


def _check_verdict(p: Pass, name, ms, d, types, cert, expected, known):
    """expected: True/False from the oracle or reference, None if unknown
    (a NOT_EXISTS then counts as unchecked)."""
    verdict = "EXISTS" if cert.exists else "NOT_EXISTS"
    p.bump(f"hurwitz.verdict.{verdict}")
    if cert.exists:
        ok = oracle.verify(d, types, cert.tuple_.perms) and expected is not False
    elif expected is None:
        p.bump("hurwitz.unchecked_not_exists")
        ok = True
    else:
        ok = expected is False
    p.record(name, ms, ok, known)


def run_hurwitz(p: Pass, garnier, ref, seed: int) -> None:
    hz = garnier.hurwitz
    known = {json.dumps(q) for q in ref["hurwitz_known_wrong"]}
    for i, q in enumerate(ref["hurwitz_small"]):
        d, types = q["degree"], [tuple(t) for t in q["types"]]
        cert, ms = p.timed(f"small{i}", lambda: hz.find_tuple(types, d))
        key = json.dumps({"degree": d, "types": q["types"]})
        _check_verdict(p, f"small{i}", ms, d, types, cert, q["exists"], key in known)
    for i, row in enumerate(ref["hurwitz_profiles"]):
        profile = garnier.enumeration.RamificationProfile(row["degree"], row["partitions"])
        cert, ms = p.timed(f"profile{i}", lambda: hz.realize_profile(profile))
        types = list(profile.partitions) + [
            oracle.transposition_type(profile.degree)] * profile.free_points
        _check_verdict(p, f"profile{i}", ms, profile.degree, types, cert, True, False)
    drawn = (oracle.drawn_queries(seed, HURWITZ_SEEDED_PER_DEGREE)
             + oracle.panel_queries(HURWITZ_PANEL_PER_DEGREE))
    certified = ref["hurwitz_certified"]
    for i, (d, types) in enumerate(drawn):
        cert, ms = p.timed(f"drawn{i}", lambda: hz.find_tuple(types, d))
        expected = True if oracle.query_key(d, types) in certified else None
        _check_verdict(p, f"drawn{i}", ms, d, types, cert, expected, False)


def run_family(p: Pass, garnier, ref, seed: int) -> None:
    import random
    cv = garnier.covers
    (kappa, fact_ok), ms = p.timed("factorization", cv.check_f_factorization)
    p.record("factorization", ms,
             fact_ok and garnier.exactalg.format_quad(kappa) == ref["kappa"])
    rng = random.Random(f"family:{seed}")
    want = set(ref["family_checks"])

    def sample():
        """One verified record; the draws it rejects count in its time."""
        rejected = 0
        while True:
            try:
                return cv.solution_record(cv.draw_uv(rng)), rejected
            except cv.DegenerateInput:
                rejected += 1

    for i in range(FAMILY_SAMPLES_PER_PASS):
        name = f"sample{i}"
        (rec, rejected), ms = p.timed(name, sample)
        p.bump("covers.rejected_draws", rejected)
        p.record(name, ms, rec.ok and {k for k, _ in rec.checks} == want)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--table")
    ap.add_argument("--spans", help="trace the pass and write its spans here")
    args = ap.parse_args(argv)

    ref = load_reference()
    garnier = _import_garnier()
    tracer = None
    if args.spans:
        tracer = Tracer()
        install(tracer)
    p = Pass(tracer)
    if args.workload == "classify-tables":
        run_table(p, garnier, ref, args.table)
    elif args.workload == "classify-multipoint":
        run_multipoint(p, garnier, ref)
    elif args.workload == "hurwitz":
        run_hurwitz(p, garnier, ref, args.seed)
    elif args.workload == "family":
        run_family(p, garnier, ref, args.seed)
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")

    out = {"ops": p.ops, "counts": p.counts,
           "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out["counts"].update(tracer.counts)
        out["spans"] = tracer.summary()
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start", "end"],
                       "spans": tracer.spans}, fh)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
