"""Command-line front end.

Subcommands: factor, invariants, bound, census, match.  Output is plain
TSV/inline text and is byte-identical across runs on the same input.
Exit codes: 0 success, 1 domain error (bad polynomial, inconsistent
record, unknown knot), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bounds import CATEGORIES, gc_bounds
from .errors import KcgError
from .laurent import factor, poly_from_text
from .seifert import SeifertMatrix, alexander, signature_profile
from .tabledata import KnotTable, census, match_candidates, parse_table, report_tsv


def _read_table(path: str) -> KnotTable:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise KcgError(f"cannot read table {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise KcgError(f"cannot read table {path}: not UTF-8") from exc
    table = parse_table(text, source_path=path)
    for bad in table.rejected:
        print(f"kcg: {path}:{bad.line}: {bad.reason}", file=sys.stderr)
    return table


def _find_record(table: KnotTable, name: str):
    rec = table.find(name)
    if rec is None:
        raise KcgError(f"unknown knot: {name}")
    return rec


def _contributors(bound) -> str:
    return ",".join(f"{src}={val}" for src, val in bound.contributors)


def _cmd_factor(args) -> int:
    fac = factor(poly_from_text(args.poly))
    if not fac.factors:
        print("1")
    else:
        print(" * ".join(f"({q.to_text()})^{m}" for q, m in fac.factors))
    return 0


def _cmd_invariants(args) -> int:
    matrix = SeifertMatrix.from_text(args.seifert)
    profile = signature_profile(matrix)
    print(f"alexander\t{alexander(matrix).to_text()}")
    print(f"signature\t{profile.endpoint_value_at_pi}")
    for angle, jump, averaged in profile.jump_points:
        print(f"jump\t{angle:.9f}\t{jump}\t{averaged}")
    return 0


def _cmd_bound(args) -> int:
    rec = _find_record(_read_table(args.table), args.name)
    bound = gc_bounds(rec)
    print(f"{rec.name}\t{bound.lower}\t{bound.upper}\t{bound.status}"
          f"\t{_contributors(bound)}")
    return 0


def _cmd_census(args) -> int:
    table = _read_table(args.table)
    candidates = _read_table(args.candidates) if args.candidates else None
    report = census(table, candidates, max_summands=args.max_summands)
    if args.report:
        Path(args.report).write_text(report_tsv(report), encoding="utf-8")
    for category in CATEGORIES:
        print(f"{category}\t{report.counts[category]}")
    print(f"total\t{report.total}")
    return 0


def _cmd_match(args) -> int:
    table = _read_table(args.table)
    candidates = _read_table(args.candidates)
    rec = _find_record(table, args.name)
    for m in match_candidates(rec, candidates, args.max_summands):
        print(f"{m.expression}\t{m.combined_genus3}\t{m.combined_crossings}"
              f"\t{m.combined_alexander.to_text()}")
    return 0


class _AtLeastOne(argparse.Action):
    """Stores an int option; a value below 1 is a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 1:
            raise argparse.ArgumentError(self, f"must be at least 1: {value}")
        setattr(namespace, self.dest, value)


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
    p.add_argument("--max-summands", type=int, default=2, action=_AtLeastOne)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("match", help="candidate concordances for one knot")
    p.add_argument("--name", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--max-summands", type=int, default=2, action=_AtLeastOne)
    p.set_defaults(func=_cmd_match)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KcgError as exc:
        print(f"kcg: {exc}", file=sys.stderr)
        return 1
