"""Command line interface.

`main` parses a named command's arguments with that command's parser alone;
help, an unknown name, an empty command line and leftover arguments get the
full parser, whose messages list every command.

Exit codes: 0 on success, 1 when a verification fails (golden mismatch,
failed family checks, too many rejected draws), 2 on usage errors.

Each garnier call is a fresh process, and most commands spend more time
importing than working, so the stdlib modules that only one branch uses are
imported inside that branch: json for the two --json payloads, difflib and
importlib.resources for the --golden check.
"""
from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Optional

from .covers import RejectedDraws, verify_family
from .enumeration import (DEFAULT_DMAX, TABLE_IDS, VerdictKind,
                          enumerate_candidates, enumerate_profiles,
                          lookup_table_id, render_table, reproduce_table,
                          verdict)
from .hurwitz import MAX_DEGREE, find_tuple, format_perm
from .orbifold import INF, OrbifoldStructure, classify, euler_char, underlying


def _parse_weight(tok: str):
    tok = tok.strip()
    if tok.lower() == "inf":
        return INF
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad weight {tok!r}")


def _parse_weights(text: str):
    toks = [t for t in text.split(",") if t.strip()]
    if not toks:
        raise argparse.ArgumentTypeError("empty weight list")
    return [_parse_weight(t) for t in toks]


def _table_id(text: str) -> str:
    # any case maps to the printed id; an unknown id is left for argparse's
    # choices check, which names the valid ones
    return lookup_table_id(text) or text


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    return parse


def _cmd_chi(args) -> int:
    o = OrbifoldStructure(args.genus, args.weights)
    print(f"{euler_char(o)}, {classify(underlying(o)).value}")
    return 0


def _cmd_classify(args) -> int:
    o = OrbifoldStructure(args.genus, args.weights)
    if not o.is_integral():
        print("classification needs integral weights; "
              "use chi for the underlying class", file=sys.stderr)
        return 2
    print(classify(o).value)
    return 0


def _cmd_enumerate(args) -> int:
    n = args.n
    complete = 0
    for t, d in enumerate_candidates(n, args.dmax):
        for profile, n_total in enumerate_profiles(t.entries, d, n):
            v = verdict(profile, n_total)
            if v.kind is VerdictKind.COMPLETE:
                complete += 1
            print(f"{t} | d={d} | {profile} | n={n_total} "
                  f"| N={profile.free_points} | {v}")
    if complete == 0:
        print(f"no complete solutions for n={n}")
    else:
        print(f"complete profiles for n={n}: {complete}")
    return 0


def _cmd_tables(args) -> int:
    if args.golden and args.dmax != DEFAULT_DMAX:
        raise ValueError(f"the goldens are the --dmax {DEFAULT_DMAX} tables; "
                         f"--golden cannot check --dmax {args.dmax}")
    table = reproduce_table(args.id, args.dmax)
    if args.json:
        import json
        payload = {"id": table.table_id, "title": table.title,
                   "header": list(table.header),
                   "rows": [list(r) for r in table.rows]}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = render_table(table)
    if args.golden:
        import difflib
        from importlib import resources
        name = f"{table.table_id.lower()}.txt"
        want = resources.files("garnier").joinpath("goldens", name).read_text("utf-8")
        if text == want:
            print(f"OK: {args.id} matches golden {name}")
            return 0
        sys.stdout.writelines(difflib.unified_diff(
            want.splitlines(keepends=True), text.splitlines(keepends=True),
            fromfile=f"goldens/{name}", tofile="computed"))
        return 1
    sys.stdout.write(text)
    return 0


def _parse_types(text: str):
    types = []
    for block in text.split(";"):
        block = block.strip()
        if not block:
            continue
        try:
            parts = tuple(int(x) for x in block.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad partition {block!r}")
        types.append(parts)
    if not types:
        raise argparse.ArgumentTypeError("empty type list")
    return types


def _cmd_hurwitz(args) -> int:
    cert = find_tuple(args.types, args.degree)
    if cert.exists:
        print("EXISTS")
        for t, p in zip(args.types, cert.tuple_.perms):
            print(f"[{','.join(str(k) for k in t)}] {format_perm(p)}")
    else:
        print(f"NOT_EXISTS ({cert.reason})")
    return 0


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    try:
        report = verify_family(args.samples, seed)
    except RejectedDraws as e:
        print(f"verify-deg4: FAIL ({e})", file=sys.stderr)
        return 1
    if args.json:
        import json
        print(json.dumps(report.to_dict(), indent=2))
        return 0 if report.ok else 1
    for i, r in enumerate(report.records):
        status = "ok" if r.ok else "FAIL"
        print(f"sample {i + 1}: u={r.uv.u} v={r.uv.v} -> {status}")
        if not r.ok:
            for name, good in r.checks:
                if not good:
                    print(f"  failed: {name}")
    kap = "ok" if report.kappa_ok else "FAIL"
    print(f"factorization F = kappa*F1*F2 with kappa = {report.kappa}: {kap}")
    print("deformation nontrivial (cross-ratio varies): "
          + ("ok" if report.deformation_nontrivial else "FAIL"))
    print("verify-deg4: " + ("PASS" if report.ok else "FAIL"))
    return 0 if report.ok else 1


def _env_seed() -> int:
    text = os.environ.get("GARNIER_SEED", "1")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"GARNIER_SEED must be an integer, got {text!r}") from None


def _add_chi(p: argparse.ArgumentParser) -> None:
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--weights", type=_parse_weights, required=True,
                   metavar="W1,W2,...", help="positive rationals or inf")
    p.set_defaults(func=_cmd_chi)


def _add_classify(p: argparse.ArgumentParser) -> None:
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--weights", type=_parse_weights, required=True,
                   metavar="W1,W2,...")
    p.set_defaults(func=_cmd_classify)


def _add_enumerate(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--dmax", type=_int_at_least(2), default=DEFAULT_DMAX)
    p.set_defaults(func=_cmd_enumerate)


def _add_tables(p: argparse.ArgumentParser) -> None:
    p.add_argument("--id", required=True, type=_table_id, choices=TABLE_IDS)
    p.add_argument("--dmax", type=_int_at_least(2), default=DEFAULT_DMAX)
    output = p.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true")
    output.add_argument("--golden", action="store_true",
                        help="diff the text table against the packaged golden copy")
    p.set_defaults(func=_cmd_tables)


def _add_hurwitz(p: argparse.ArgumentParser) -> None:
    p.add_argument("--degree", type=int, required=True,
                   help=f"covering degree (<= {MAX_DEGREE})")
    p.add_argument("--types", type=_parse_types, required=True,
                   metavar="'2,2;3,1;...'",
                   help="semicolon-separated partitions of the degree")
    p.set_defaults(func=_cmd_hurwitz)


def _add_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=_int_at_least(2), default=10)
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)


# subcommand name -> (help text, function adding its arguments), in the
# order the help lists them
COMMANDS = {
    "chi": ("Euler characteristic and curvature class", _add_chi),
    "classify": ("curvature class of integral weights", _add_classify),
    "enumerate": ("candidate triples and branch data for n points", _add_enumerate),
    "tables": ("reproduce a classification table", _add_tables),
    "hurwitz": ("realize branch data by a permutation tuple", _add_hurwitz),
    "verify-deg4": ("verify the explicit degree-4 family exactly", _add_verify),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The full parser, with every command as a subparser, or `command`'s
    parser alone, built as its subparser is and with the same prog, so it
    parses, helps and fails as that subparser does."""
    if command is not None:
        p = argparse.ArgumentParser(prog=f"garnier {command}")
        COMMANDS[command][1](p)
        return p
    ap = argparse.ArgumentParser(
        prog="garnier",
        description="Exact classification of complete algebraic Garnier "
                    "solutions obtained by pulling back hypergeometric "
                    "equations, with a verified degree-4 family.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in COMMANDS:
        args, rest = build_parser(argv[0]).parse_known_args(argv[1:])
        if rest:  # reported by the full parser, as unrecognized arguments
            args = build_parser().parse_args(argv)
    else:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
