"""Command-line front end.

Subcommands: factor, invariants, bound, census, match.  Output is plain
TSV/inline text and is byte-identical across runs on the same input.
Exit codes: 0 success, 1 domain error (bad polynomial, inconsistent
record, unknown knot) or stdout closed early, 2 usage error.  Each
command imports the layers it runs, so ``kcg factor`` loads no table or
Seifert code.  A well-formed command line is parsed from ``_COMMANDS``
without argparse; argparse, built from the same table, parses any other
and prints help and usage errors.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .errors import KcgError
from .laurent import factor, poly_from_text

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse

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
    for category, count in report.counts.items():
        print(f"{category}\t{count}")
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


# each subcommand: its handler, its help, and its options as (flag, type,
# required, default, help); the argparse parser and the direct parser both
# read this table, and each option's dest is its flag as argparse derives it
_COMMANDS = {
    "factor": (_cmd_factor, "factor a polynomial over the integers", (
        ("--poly", str, True, None, "semicolon coefficient encoding, e.g. 1;-1;1"),
    )),
    "invariants": (_cmd_invariants, "polynomial, signature and jumps of a Seifert matrix", (
        ("--seifert", str, True, None, "row encoding, e.g. -1,1;0,-1"),
    )),
    "bound": (_cmd_bound, "concordance-genus interval for one knot", (
        ("--name", str, True, None, None),
        ("--table", str, True, None, None),
    )),
    "census": (_cmd_census, "classify every knot in a table", (
        ("--table", str, True, None, None),
        ("--report", str, False, None, "write the per-knot TSV report here"),
        ("--candidates", str, False, None, "candidate table for unknown rows"),
        ("--max-summands", int, False, 2, None),
    )),
    "match": (_cmd_match, "candidate concordances for one knot", (
        ("--name", str, True, None, None),
        ("--table", str, True, None, None),
        ("--candidates", str, True, None, None),
        ("--max-summands", int, False, 2, None),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="kcg",
        description="Concordance-genus bounds and census tools for knot tables.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, kind, required, default, option_help in options:
            p.add_argument(flag, type=kind, required=required, default=default,
                           help=option_help)
        p.set_defaults(func=func)
    return parser


def _parse_direct(argv):
    """The namespace argparse gives a well-formed ``argv``, or None.

    Well-formed is an exact subcommand, then each of its options at most
    once, exactly spelled, as ``--opt=value`` (any value but ``--``, which
    argparse releases read differently) or ``--opt value`` (a value not
    starting with ``-``), with every required option present and every
    int value taken by ``int``.  Whatever else argparse accepts, refuses
    or explains is left to it.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, options = _COMMANDS[argv[0]]
    kinds = {flag: kind for flag, kind, *_ in options}
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if eq:
            if value == "--":
                return None
        else:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
        if flag not in kinds or flag in given:
            return None
        try:
            given[flag] = kinds[flag](value)
        except ValueError:
            return None
    values = {}
    for flag, _, required, default, _ in options:
        if required and flag not in given:
            return None
        values[flag[2:].replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(command=argv[0], func=func, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_direct(argv) or _build_parser().parse_args(argv)
    # argparse drops an option value that is exactly "--" (``--poly=--``)
    # and stores an empty list instead
    if [] in vars(args).values():
        _build_parser().error("an option expected one argument")
    if getattr(args, "max_summands", 1) < 1:
        _build_parser().error(f"--max-summands must be at least 1: {args.max_summands}")
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
