from __future__ import annotations

import argparse
import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from garnier import cli, covers
from garnier.cli import COMMANDS, build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_chi(capsys):
    code, out, _ = run(capsys, "chi", "--weights", "2,3,7")
    assert code == 0
    assert out == "-1/42, HYPERBOLIC\n"
    code, out, _ = run(capsys, "chi", "--weights", "2,3,inf")
    assert code == 0
    assert out == "-1/6, HYPERBOLIC\n"
    code, out, _ = run(capsys, "chi", "--genus", "1", "--weights", "2")
    assert out == "-1/2, HYPERBOLIC\n"


def test_chi_non_integral_uses_underlying(capsys):
    code, out, _ = run(capsys, "chi", "--weights", "5/2,3")
    assert code == 0
    chi, cls = out.strip().split(", ")
    assert chi == "11/15"  # 2 + (2/5 - 1) + (1/3 - 1)
    assert cls == "NOT_UNIFORMIZABLE"  # underlying (5, 3) has two distinct weights


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--weights", "2,3,5")
    assert (code, out) == (0, "SPHERICAL\n")
    code, out, _ = run(capsys, "classify", "--weights", "inf,inf")
    assert (code, out) == (0, "EUCLIDEAN\n")


def test_classify_rejects_non_integral(capsys):
    code, _, err = run(capsys, "classify", "--weights", "5/2,3")
    assert code == 2
    assert "integral" in err


@pytest.mark.parametrize("argv, want", [
    (["chi", "--weights", "1"], "2, SPHERICAL\n"),
    (["chi", "--weights", "1,2,3,7"], "-1/42, HYPERBOLIC\n"),
    (["classify", "--weights", "1,5"], "NOT_UNIFORMIZABLE\n"),
    # 1/3 has numerator 1: weight 1 in the underlying structure
    (["chi", "--weights", "1/3,2"], "7/2, NOT_UNIFORMIZABLE\n"),
])
def test_weight_one_input_stdout_pinned(capsys, argv, want):
    # weight-1 points add 0 to chi and are skipped by the classification
    assert run(capsys, *argv) == (0, want, "")


def test_bad_weight_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chi", "--weights", "2,zebra"])
    assert exc.value.code == 2


def test_enumerate_n5(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "complete profiles for n=5: 3"
    assert "(2,3,inf) | d=4 | [2,2] [3,1] [1,1,1,1] | n=5 | N=2 | COMPLETE" in lines
    assert "(2,3,7) | d=12 | [2,2,2,2,2,2] [3,3,3,3] [7,1,1,1,1,1] | n=5 | N=2 | COMPLETE" in lines


def test_enumerate_n7_empty(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "7")
    assert code == 0
    assert out == "no complete solutions for n=7\n"


def test_tables_golden_all_ids(capsys):
    for tid in ("T1", "T2", "T3", "T4", "N2a", "N2b", "N7"):
        code, out, _ = run(capsys, "tables", "--id", tid, "--golden")
        assert code == 0, out
        assert out.startswith(f"OK: {tid} matches golden")


def test_tables_id_any_case(capsys):
    code, out, _ = run(capsys, "tables", "--id", "t1", "--golden")
    assert (code, out) == (0, "OK: T1 matches golden t1.txt\n")
    _, lower, _ = run(capsys, "tables", "--id", "n2b")
    _, printed, _ = run(capsys, "tables", "--id", "N2b")
    assert lower == printed


def test_tables_output_deterministic(capsys):
    _, first, _ = run(capsys, "tables", "--id", "T2")
    _, second, _ = run(capsys, "tables", "--id", "T2")
    assert first == second
    assert first.splitlines()[0] == "# T2: five-point pullback families with exponent data"


def test_tables_json(capsys):
    code, out, _ = run(capsys, "tables", "--id", "T1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["id"] == "T1"
    assert len(payload["rows"]) == 3
    assert payload["header"][0] == "triple"


# sha256 of the stdout of `garnier tables --id X` for the outputs the
# goldens leave out: the text tables at --dmax 2 and 12 and the JSON at 42
_TABLE_STDOUT_SHA256 = {
    ("--dmax", "2"): {
        "T1": "09f76620da5e7b816595329f653d504284ba76d7bfefbc8d35c47287b5f6db3b",
        "T2": "5b7d35e14df88854fa34a30febbad76f3552d56fe9bddb43694e60f31f5a897b",
        "T3": "a83fe682457c8b5161e4c6ce4ab76b40c56358cfe7c3b18d4c7f3d7054536059",
        "T4": "1c8bc59e8287356190986e99f428ef93b4e45f5890c1aa64d6dd56778567b0a4",
        "N2a": "a1254f21748c582bd4b33891954b7bf1bb2912846a2107e9248dee2244b42272",
        "N2b": "2a3d80910cbdbeb3b6d4c2543e54448690cacbb60fc425dc4f58db07093bb05d",
        "N7": "1e684ef2ed15caa4949b550eacb0b28e150552442665df139a374c5cd420877f",
    },
    ("--dmax", "12"): {
        "T1": "2cc9e8f767a9c1180699a19bdd8e4fd131948793b6cfebe77c813ade71311d16",
        "T2": "01d7c6f61c14a912f08a00fc658ebfb5adfd531223a0edf8f69d4b448a4417a7",
        "T3": "21eb070c8be2fcdf8da775aa141072484d2c57fb61c2398147f7d8ac8c50986f",
        "T4": "063f9a6f66061c62c1cfec5c512c47cc2dd67525b5f27c09aeebca02f33430e6",
        "N2a": "0b0c6bc84029f46d2c8655d542180bb6578fbd35cbbd37c36dd08fea0c1821f3",
        "N2b": "c461779a8ee0efe47d5ae4c0c1444ead8ab39835b4149229f736eb7bf3f410e5",
        "N7": "1e684ef2ed15caa4949b550eacb0b28e150552442665df139a374c5cd420877f",
    },
    ("--json",): {
        "T1": "058b3dee285f47ec9a50e251622e2a47e396fb8716b7c1f251d58e0a97101cb9",
        "T2": "0eed84b720eed9fa4e7a074d0368599772598c9411a8e74ed597ef3fc6e9e3c3",
        "T3": "99dd37f6d13bbd495b5f523b691acfe9028b7f71883d64a2bc5c13df2bc71ae8",
        "T4": "9ad98c8ae2e981388c4ffbc309d62063ada5f8bc6f9837e5b5992bccd5ed5867",
        "N2a": "26da037559e2dd899088adcae448139fa3a5b7583ed7604b66fd3f89f6f80dcf",
        "N2b": "0e00053d73ddc6afa822339e599ec840ac73321d8d6df4807113e196eeabacc0",
        "N7": "f5f330b0ae73be8e9cffaa0916c6d58f5282baf1e3684a0737c2720b2f5b9abb",
    },
}


@pytest.mark.parametrize("extra", list(_TABLE_STDOUT_SHA256),
                         ids=lambda v: "".join(v).lstrip("-"))
@pytest.mark.parametrize("tid", ("T1", "T2", "T3", "T4", "N2a", "N2b", "N7"))
def test_tables_stdout_pinned(capsys, extra, tid):
    code, out, _ = run(capsys, "tables", "--id", tid, *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _TABLE_STDOUT_SHA256[extra][tid]


def test_tables_bad_id_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--id", "T9"])
    assert exc.value.code == 2


def test_tables_json_golden_exclusive_exits_2(capsys):
    # only text goldens ship, so the combination is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--id", "T1", "--json", "--golden"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_tables_golden_other_dmax_exits_2(capsys):
    # the goldens are the d_max = 42 tables, so another d_max is a usage
    # error and not a failed verification; an explicit 42 still checks
    code, out, err = run(capsys, "tables", "--id", "T2", "--dmax", "8", "--golden")
    assert (code, out) == (2, "")
    assert err == ("error: the goldens are the --dmax 42 tables; "
                   "--golden cannot check --dmax 8\n")
    code, out, _ = run(capsys, "tables", "--id", "T2", "--dmax", "42", "--golden")
    assert (code, out) == (0, "OK: T2 matches golden t2.txt\n")


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "-3"],
    ["enumerate", "--n", "5", "--dmax", "1"],
    ["tables", "--id", "T1", "--dmax", "-5"],
    ["tables", "--id", "T1", "--dmax", "1"],
    ["verify-deg4", "--samples", "0"],
    ["verify-deg4", "--samples", "-3"],
    ["verify-deg4", "--samples", "1"],
])
def test_out_of_range_counts_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be >=" in capsys.readouterr().err


def test_smallest_accepted_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "0", "--dmax", "2")
    assert (code, out) == (0, "no complete solutions for n=0\n")
    code, out, _ = run(capsys, "tables", "--id", "T1", "--dmax", "2")
    assert code == 0
    assert out.splitlines()[1:] == ["triple | d | branch data | free | verdict"]


def test_hurwitz_exists(capsys):
    code, out, _ = run(capsys, "hurwitz", "--degree", "4",
                       "--types", "2,2;3,1;1,1,1,1;2,1,1;2,1,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "EXISTS"
    assert len(lines) == 6
    assert lines[1].startswith("[2,2] ")
    assert lines[3] == "[1,1,1,1] id"


def test_hurwitz_not_exists(capsys):
    code, out, _ = run(capsys, "hurwitz", "--degree", "4", "--types", "2,2;2,2;3,1")
    assert code == 0
    assert out.startswith("NOT_EXISTS")


def test_hurwitz_stdout_is_pinned(capsys):
    # the two README calls and the d = 12 T4 row with its two free points
    fixed = ",".join(["1"] * 10)
    calls = [
        ("4", "2,2;3,1;1,1,1,1;2,1,1;2,1,1", [
            "EXISTS",
            "[2,2] (1 3)(2 4)",
            "[3,1] (1 2 3)",
            "[1,1,1,1] id",
            "[2,1,1] (2 3)",
            "[2,1,1] (2 4)"]),
        ("4", "2,2;2,2;3,1", ["NOT_EXISTS (search space exhausted)"]),
        ("12", f"2,2,2,2,2,2;3,3,3,3;7,1,1,1,1,1;2,{fixed};2,{fixed}", [
            "EXISTS",
            "[2,2,2,2,2,2] (1 7)(2 3)(4 6)(5 8)(9 10)(11 12)",
            "[3,3,3,3] (1 6 3)(2 11 12)(4 5 8)(7 9 10)",
            "[7,1,1,1,1,1] (1 2 3 4 5 6 7)",
            "[2,1,1,1,1,1,1,1,1,1,1] (1 9)",
            "[2,1,1,1,1,1,1,1,1,1,1] (3 11)"]),
    ]
    for degree, types, lines in calls:
        assert run(capsys, "hurwitz", "--degree", degree, "--types", types) == (
            0, "".join(line + "\n" for line in lines), "")


def test_hurwitz_bad_input(capsys):
    assert run(capsys, "hurwitz", "--degree", "4", "--types", "2,2;5") == (
        2, "", "error: type (5,) is not a partition of 4\n")
    assert run(capsys, "hurwitz", "--degree", "99", "--types", "99") == (
        2, "", "error: degree 99 above search cap 16\n")


def test_verify_deg4(capsys):
    code, out, _ = run(capsys, "verify-deg4", "--samples", "3", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("sample 1: ")
    assert lines[-1] == "verify-deg4: PASS"
    assert any(l.startswith("factorization F = kappa*F1*F2 with kappa = 1: ok") for l in lines)


def test_verify_deg4_deterministic(capsys):
    _, first, _ = run(capsys, "verify-deg4", "--samples", "3", "--seed", "5")
    _, second, _ = run(capsys, "verify-deg4", "--samples", "3", "--seed", "5")
    assert first == second
    _, third, _ = run(capsys, "verify-deg4", "--samples", "3", "--seed", "6")
    assert third != first


def test_verify_deg4_rejected_draws_exit_1(capsys, monkeypatch):
    def degenerate(uv):
        raise covers.DegenerateInput("degenerate everywhere")

    monkeypatch.setattr(covers, "solution_record", degenerate)
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "verify-deg4", "--samples", "2", *extra)
        assert code == 1 and out == ""
        assert err.startswith("verify-deg4: FAIL (rejected_draws: ")


def test_verify_deg4_json(capsys):
    code, out, _ = run(capsys, "verify-deg4", "--samples", "2", "--seed", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["kappa"] == "1"
    assert len(payload["records"]) == 2
    assert payload["records"][0]["checks"]["branching_balance_2d-2"] is True


def test_verify_deg4_names_failed_identity(capsys, monkeypatch):
    from garnier import covers

    original = covers.t_quadratic_coeffs

    def wrong_sum(s, a0):
        total, prod = original(s, a0)
        return total + 1, prod

    monkeypatch.setattr(covers, "t_quadratic_coeffs", wrong_sum)
    code, out, _ = run(capsys, "verify-deg4", "--samples", "2")
    assert code == 1
    lines = out.splitlines()
    assert lines.count("  failed: t_quadratic_vieta") == 2
    assert lines[-1] == "verify-deg4: FAIL"


@pytest.mark.parametrize("argv, sha256", [
    (("verify-deg4", "--samples", "10", "--seed", "7", "--json"),
     "8085e0b37fa303cae9d6d8d2e9c4744345877f125cfa0cb5f27ebb2b82a92221"),
    (("verify-deg4", "--samples", "3", "--seed", "1"),
     "3a8165d479a9b44071646901081de11669d0a33405962e053b265b9730590fbe"),
], ids=["json-seed7", "text-seed1"])
def test_verify_deg4_stdout_pinned(capsys, argv, sha256):
    # the digests pin every printed point, q1, q2, rho and check verdict
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_verify_deg4_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("GARNIER_SEED", "5")
    _, via_env, _ = run(capsys, "verify-deg4", "--samples", "2")
    monkeypatch.delenv("GARNIER_SEED")
    _, explicit, _ = run(capsys, "verify-deg4", "--samples", "2", "--seed", "5")
    assert via_env == explicit


def test_verify_deg4_bad_seed_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("GARNIER_SEED", "abc")
    code, out, err = run(capsys, "verify-deg4", "--samples", "2")
    assert (code, out) == (2, "")
    assert "GARNIER_SEED" in err
    # an explicit --seed and the other subcommands never read the variable
    code, out, _ = run(capsys, "verify-deg4", "--samples", "2", "--seed", "1")
    assert code == 0 and out.endswith("verify-deg4: PASS\n")
    assert run(capsys, "classify", "--weights", "2,3,5") == (0, "SPHERICAL\n", "")
    # unset, the seed is 1
    monkeypatch.delenv("GARNIER_SEED")
    _, unset, _ = run(capsys, "verify-deg4", "--samples", "2")
    assert unset == out


def _subcommands(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def test_build_parser_builds_the_named_subcommand_only():
    assert _subcommands(build_parser()) == list(COMMANDS)
    assert len(COMMANDS) == 6
    for name in COMMANDS:
        assert _subcommands(build_parser(name)) == [name]


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], [], ["bogus"], ["--version"],
    ["tables", "--help"], ["tables"], ["tables", "--id", "T1"],
    ["tables", "--id", "bad"], ["tables", "--id", "T1", "extra"],
    ["tables", "--id", "T1", "--json", "--golden"],
    ["hurwitz", "--degree", "4"], ["chi", "--weights", "2,3,7"],
    ["classify", "--help"], ["verify-deg4", "--samples", "1"],
    ["enumerate", "--n", "-1"],
])
def test_main_matches_the_full_parser(capsys, monkeypatch, argv):
    got = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build_parser())
    assert got == _outcome(capsys, argv)


def test_commands_match_readme_usage():
    usage = README.read_text("utf-8").split("## Command line", 1)[1].split("\n## ", 1)[0]
    assert set(COMMANDS) == set(re.findall(r"^garnier ([\w-]+)", usage, re.M))


# sha256 of "<exit code>\n<stdout>" for every `garnier ...` line of the
# README's command-line block, keyed by its arguments
_README_SHA256 = {
    "chi --weights 2,3,7":
        "36bee2bcc07d363c960ea3980f4a4aaf5939c15d16df35dae7f7118092d8f86d",
    "classify --weights inf,inf":
        "12bf8e4f04ac075999a729de31df4db3d0b3d363547037930c32a77742ed7b99",
    "enumerate --n 5":
        "5b41459c7b9051ee66ae99467681a11d7abb5db31db8e0c122f262b9abaa015c",
    "enumerate --n 7":
        "5df8e65b3adc2478e46e62361fc57957de0dc86e03dbd09dd5758e0c1f2a34da",
    "tables --id T1":
        "01e17a3a83d387f7ee60db9fd9a090741d1f86ac5a45a90fd7d44e58755ffa62",
    "tables --id T2 --golden":
        "5d88f9aac817baad2dcc430dff6f514bd17083dd1dfa8c9b929c8a561ee1beac",
    "tables --id N2b --json":
        "1f47224569a33019f81230524d4b6c390f8528a84664aaf75085a02f7dea7efe",
    "tables --id T1 --dmax 12":
        "01e17a3a83d387f7ee60db9fd9a090741d1f86ac5a45a90fd7d44e58755ffa62",
    "hurwitz --degree 4 --types 2,2;3,1;1,1,1,1;2,1,1;2,1,1":
        "aa3f249d5c9cbc41551b4f79628988f61db94ff908cdf80d2eddda50fedea69f",
    "hurwitz --degree 4 --types 2,2;2,2;3,1":
        "494bcf9b6ed1c6a61309b11d7356576932a18c1b7eb2ffc9acb37ce98de42c90",
    "verify-deg4 --samples 30 --seed 1":
        "91cfe827000313fbdf689b3bfe5cac35f689a34c59f8c0843cbd695452b86cc4",
    "verify-deg4 --samples 5 --json":
        "957b13ee2e21ce3067ea9aecfea275103a687ad233e2ba2d369c9aa22ce9a432",
}


def _readme_commands():
    usage = README.read_text("utf-8").split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = usage.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = (shlex.split(line, comments=True) for line in block.splitlines())
    return [argv[1:] for argv in lines if argv and argv[0] == "garnier"]


def test_readme_commands_stdout_pinned(capsys, monkeypatch):
    # every README command runs as printed, with GARNIER_SEED unset
    monkeypatch.delenv("GARNIER_SEED", raising=False)
    got = {}
    for argv in _readme_commands():
        code, out, _ = run(capsys, *argv)
        got[" ".join(argv)] = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert got == _README_SHA256
