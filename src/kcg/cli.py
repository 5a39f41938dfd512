"""Command-line front end.

Subcommands: factor, invariants, bound, census, match.  Output is plain
TSV/inline text and is byte-identical across runs on the same input.
Exit codes: 0 success, 1 domain error (bad polynomial, inconsistent
record, unknown knot) or stdout closed early, 2 usage error.  Each
command imports the layers it runs, so ``kcg factor`` loads no table or
Seifert code.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import KcgError
from .laurent import factor, poly_from_text

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .tabledata import KnotTable


def _read_table(path: str) -> KnotTable:
    from .tabledata import read_table

    table = read_table(path)
    for bad in table.rejected:
        print(f"kcg: {path}:{bad.line}: {bad.reason}", file=sys.stderr)
    if not table.records:
        print(f"kcg: {path}: no records", file=sys.stderr)
    return table


def _find_record(table: KnotTable, name: str):
    rec = table.find(name)
    if rec is None:
        raise KcgError(f"unknown knot: {name}")
    return rec


def _cmd_factor(args) -> int:
    fac = factor(poly_from_text(args.poly))
    if not fac.factors:
        print("1")
    else:
        print(" * ".join(f"({q.to_text()})^{m}" for q, m in fac.factors))
    return 0


def _cmd_invariants(args) -> int:
    from .seifert import SeifertMatrix, alexander, signature_profile

    matrix = SeifertMatrix.from_text(args.seifert)
    profile = signature_profile(matrix)
    print(f"alexander\t{alexander(matrix).to_text()}")
    print(f"signature\t{profile.endpoint_value_at_pi}")
    for angle, jump, averaged in profile.jump_points:
        print(f"jump\t{angle:.9f}\t{jump}\t{averaged}")
    return 0


def _cmd_bound(args) -> int:
    from .bounds import gc_bounds

    rec = _find_record(_read_table(args.table), args.name)
    bound = gc_bounds(rec)
    print(f"{rec.name}\t{bound.lower}\t{bound.upper}\t{bound.status}"
          f"\t{bound.contributors_text()}")
    return 0


def _cmd_census(args) -> int:
    from .bounds import CATEGORIES
    from .tabledata import census, report_tsv

    table = _read_table(args.table)
    candidates = _read_table(args.candidates) if args.candidates else None
    report = census(table, candidates, max_summands=args.max_summands)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report_tsv(report))
        except OSError as exc:
            raise KcgError(f"cannot write report {args.report}: {exc.strerror}") from exc
    for category in CATEGORIES:
        print(f"{category}\t{report.counts[category]}")
    print(f"total\t{report.total}")
    return 0


def _cmd_match(args) -> int:
    from .tabledata import match_candidates

    table = _read_table(args.table)
    candidates = _read_table(args.candidates)
    rec = _find_record(table, args.name)
    # every line is formatted before any is printed, so a refusal prints none
    lines = [f"{m.expression}\t{m.combined_genus3}\t{m.combined_crossings}"
             f"\t{m.combined_alexander.to_text()}"
             for m in match_candidates(rec, candidates, args.max_summands)]
    for line in lines:
        print(line)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcg",
        description="Concordance-genus bounds and census tools for knot tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor a polynomial over the integers")
    p.add_argument("--poly", required=True,
                   help="semicolon coefficient encoding, e.g. 1;-1;1")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("invariants",
                       help="polynomial, signature and jumps of a Seifert matrix")
    p.add_argument("--seifert", required=True,
                   help="row encoding, e.g. -1,1;0,-1")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("bound", help="concordance-genus interval for one knot")
    p.add_argument("--name", required=True)
    p.add_argument("--table", required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("census", help="classify every knot in a table")
    p.add_argument("--table", required=True)
    p.add_argument("--report", help="write the per-knot TSV report here")
    p.add_argument("--candidates", help="candidate table for unknown rows")
    p.add_argument("--max-summands", type=int, default=2)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("match", help="candidate concordances for one knot")
    p.add_argument("--name", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--max-summands", type=int, default=2)
    p.set_defaults(func=_cmd_match)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # argparse drops an option value that is exactly "--" (``--poly=--``)
    # and stores an empty list instead
    if [] in vars(args).values():
        parser.error("an option expected one argument")
    if getattr(args, "max_summands", 1) < 1:
        parser.error(f"--max-summands must be at least 1: {args.max_summands}")
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except KcgError as exc:
        print(f"kcg: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone; keep the interpreter's last flush of stdout silent
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print("kcg: cannot write output: stdout is closed", file=sys.stderr)
        return 1
