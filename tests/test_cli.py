from __future__ import annotations

import json

import pytest

from garnier.cli import main


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


def test_hurwitz_bad_input(capsys):
    code, _, err = run(capsys, "hurwitz", "--degree", "4", "--types", "2,2;5")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "hurwitz", "--degree", "99", "--types", "99")
    assert code == 2


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


def test_verify_deg4_json(capsys):
    code, out, _ = run(capsys, "verify-deg4", "--samples", "2", "--seed", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["kappa"] == "1"
    assert len(payload["records"]) == 2
    assert payload["records"][0]["checks"]["branching_balance_2d-2"] is True


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
