"""Command line interface.

Each command's options are data in COMMANDS, read by two parsers. `main`
first parses a well-formed command line from the table alone
(`parse_from_table`), so a valid call builds no argparse parser. Any other
command line goes to the full argparse parser, built from the same table:
help, abbreviated and `--opt=value` flags, `--`, values starting with "-",
repeated options, leftover arguments and every usage error get its
messages, from the subparser named `garnier <command>` or, for an unknown
name or an empty command line, from the parser that lists every command.

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


# command name -> (help text, command function, options, exclusive flags),
# in the order the help lists them. An option is a long flag with the
# keyword arguments of its argparse add_argument call; at most one of a
# command's exclusive flags may be given.
COMMANDS = {
    "chi": ("Euler characteristic and curvature class", _cmd_chi, (
        ("--genus", dict(type=int, default=0)),
        ("--weights", dict(type=_parse_weights, required=True, metavar="W1,W2,...",
                           help="positive rationals or inf"))), ()),
    "classify": ("curvature class of integral weights", _cmd_classify, (
        ("--genus", dict(type=int, default=0)),
        ("--weights", dict(type=_parse_weights, required=True, metavar="W1,W2,..."))), ()),
    "enumerate": ("candidate triples and branch data for n points", _cmd_enumerate, (
        ("--n", dict(type=_int_at_least(0), required=True)),
        ("--dmax", dict(type=_int_at_least(2), default=DEFAULT_DMAX))), ()),
    "tables": ("reproduce a classification table", _cmd_tables, (
        ("--id", dict(type=_table_id, required=True, choices=TABLE_IDS)),
        ("--dmax", dict(type=_int_at_least(2), default=DEFAULT_DMAX)),
        ("--json", dict(action="store_true")),
        ("--golden", dict(action="store_true",
                          help="diff the text table against the packaged golden copy"))),
        ("--json", "--golden")),
    "hurwitz": ("realize branch data by a permutation tuple", _cmd_hurwitz, (
        ("--degree", dict(type=int, required=True, help=f"covering degree (<= {MAX_DEGREE})")),
        ("--types", dict(type=_parse_types, required=True, metavar="'2,2;3,1;...'",
                         help="semicolon-separated partitions of the degree"))), ()),
    "verify-deg4": ("verify the explicit degree-4 family exactly", _cmd_verify, (
        ("--samples", dict(type=_int_at_least(2), default=10)),
        ("--seed", dict(type=int)),
        ("--json", dict(action="store_true"))), ()),
}


def _add_options(p: argparse.ArgumentParser, command: str) -> None:
    _, func, options, exclusive = COMMANDS[command]
    group = p.add_mutually_exclusive_group() if exclusive else p
    for flag, kwargs in options:
        (group if flag in exclusive else p).add_argument(flag, **kwargs)
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    """The full parser, with every command as a subparser."""
    ap = argparse.ArgumentParser(
        prog="garnier",
        description="Exact classification of complete algebraic Garnier "
                    "solutions obtained by pulling back hypergeometric "
                    "equations, with a verified degree-4 family.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in COMMANDS.items():
        _add_options(sub.add_parser(name, help=help_text), name)
    return ap


def parse_from_table(argv) -> Optional[argparse.Namespace]:
    """The Namespace that `argv[0]`'s subparser gives for `argv[1:]`,
    read from COMMANDS; None unless argv is well formed: exact long flags of
    the command, none twice, each but a store-true flag followed by a value
    not starting with "-" that passes its type and choices, every required
    option given and at most one exclusive flag."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, options, exclusive = COMMANDS[argv[0]]
    spec = dict(options)
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        kwargs = spec.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(tokens, "-")  # a flag without its value defers too
        if text.startswith("-"):
            return None
        try:
            given[flag] = kwargs.get("type", str)(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in kwargs and given[flag] not in kwargs["choices"]:
            return None
    if exclusive and all(flag in given for flag in exclusive):
        return None
    args = argparse.Namespace(func=func)
    for flag, kwargs in options:
        if flag not in given and kwargs.get("required"):
            return None
        default = kwargs.get("default", False if kwargs.get("action") else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parse_from_table(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
