"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

REF = worker.load_reference()


def test_oracle_rederives_stored_verdicts():
    queries = oracle.small_queries()
    assert len(queries) == len(REF["hurwitz_small"]) == 60
    for (d, types), stored in zip(queries, REF["hurwitz_small"]):
        assert stored["degree"] == d
        assert [tuple(t) for t in stored["types"]] == list(types)
        assert oracle.exists(d, types) is stored["exists"]
    assert sum(not q["exists"] for q in REF["hurwitz_small"]) == 1


def test_known_wrong_verdicts_are_realisable():
    small = {json.dumps([q["degree"], q["types"]]): q["exists"] for q in REF["hurwitz_small"]}
    assert len(REF["hurwitz_known_wrong"]) == 6
    for q in REF["hurwitz_known_wrong"]:
        assert small[json.dumps([q["degree"], q["types"]])] is True


def test_certified_queries_verify():
    """The realisable queries of the d >= 6 sets: every stored certificate
    passes the benchmark's own check, and the keys cover the panel and all
    but the 25 members of the d = 6..8 populations that answer NOT_EXISTS
    at the seed commit."""
    certified = REF["hurwitz_certified"]
    for key, text in certified.items():
        d, types = oracle.parse_key(key)
        assert oracle.query_key(d, types) == key
        assert oracle.verify(d, types, oracle.parse_certificate(text)), key
    seeded = {oracle.query_key(d, t) for d in oracle.SEEDED_DEGREES
              for t in oracle.three_fibre_population(d)}
    panel = {oracle.query_key(d, t)
             for d, t in oracle.panel_queries(worker.HURWITZ_PANEL_PER_DEGREE)}
    assert panel <= certified.keys()
    assert certified.keys() == panel | (seeded & certified.keys())
    assert len(seeded - certified.keys()) == 25


def test_oracle_classics():
    assert oracle.exists(4, [(2, 2), (2, 2), (3, 1)]) is False
    assert oracle.exists(3, [(2, 1)] * 4) is True
    assert oracle.exists(2, [(2,), (2,)]) is True
    assert oracle.exists(3, [(3,), (3,), (3,)]) is True


def test_verify_rejects_bad_certificates():
    t = (1, 0, 2)
    assert oracle.verify(3, [(2, 1)] * 2, [t, t]) is False      # not transitive
    assert oracle.verify(3, [(2, 1)] * 2, [t, (0, 2, 1)]) is False  # product != 1
    assert oracle.verify(3, [(3,)], [(1, 0, 2)]) is False        # wrong type
    c = (1, 2, 0)
    assert oracle.verify(3, [(3,), (3,), (3,)], [c, c, c]) is True


def test_table_references_are_the_golden_bytes():
    goldens = os.path.join(os.path.dirname(HERE), "src", "garnier", "goldens")
    for table_id, digest in REF["tables"].items():
        with open(os.path.join(goldens, f"{table_id.lower()}.txt"), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest


def test_benchmark_json_names_match_run():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (n, u, b) for n, u, b, _ in run.PER_LAYER]


def _traced_counts(workload, tmp_path, tag):
    outs = run.one_pass(workload, 1, spans_prefix=str(tmp_path / tag))
    return [(o["counts"], {k: v["calls"] for k, v in o["spans"].items()}) for o in outs]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = _traced_counts(workload, tmp_path, "a")
    assert first == _traced_counts(workload, tmp_path, "b")


def test_traced_spans_cover_every_layer(tmp_path):
    names = set()
    for workload in run.WORKLOADS:
        for o in run.one_pass(workload, 1, spans_prefix=str(tmp_path / workload)):
            names |= set(o["spans"])
    layers = {n.split(".")[0] for n in names}
    assert {"orbifold", "fuchsian", "enumeration", "hurwitz", "exactalg", "covers",
            "cli"} <= layers
    with open(tmp_path / "family-pass.json", encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    by_id = {s[0]: s for s in spans}
    nested = [s for s in spans if s[1] is not None]
    assert nested and all(by_id[s[1]][4] <= s[4] <= s[5] <= by_id[s[1]][5] for s in nested)
    assert all(s[2] for s in spans)


@pytest.mark.parametrize("workload", ["hurwitz", "family"])
def test_second_seed_same_names_and_failure_share(workload):
    a, _ = run.run(workload, 1, 0, False)
    b, _ = run.run(workload, 2, 0, False)
    assert a["metrics"].keys() == b["metrics"].keys() == dict(run.END_TO_END).keys()
    assert (a["failed"], a["attempted"]) == (b["failed"], b["attempted"])
    assert a["correct"] and b["correct"]
    if workload == "hurwitz":
        queries_per_pass = (len(REF["hurwitz_small"]) + len(REF["hurwitz_profiles"])
                            + len(oracle.SEEDED_DEGREES) * worker.HURWITZ_SEEDED_PER_DEGREE
                            + len(oracle.PANEL_DEGREES) * worker.HURWITZ_PANEL_PER_DEGREE)
        assert a["failed"] / a["attempted"] == len(REF["hurwitz_known_wrong"]) / queries_per_pass
