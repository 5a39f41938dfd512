"""Knot-table ingestion, the census report, and the candidate-concordance
matcher.

Table files are CSV with the fixed header::

    name,crossings,alexander,signature,genus3,genus4_min,genus4_max,slice,seifert,concordant_to

``alexander`` uses the semicolon coefficient encoding, ``seifert`` the
quoted row encoding (or empty), ``slice`` is one of slice / not_slice /
unknown, and ``concordant_to`` is a ``+``-joined list of knot names or
empty.  Lines starting with ``#`` are comments (the bundled fixtures use
them to tag the provenance of every value); blank lines are skipped.
Rows that fail validation are collected with their line number and
reason rather than aborting the parse.
"""

from __future__ import annotations

import csv
import functools
import io
import operator
import os
from itertools import combinations_with_replacement

from . import laurent
from ._record import Record
from .bounds import (CATEGORY_UNKNOWN, CATEGORIES, DETERMINED, SLICE,
                     SLICE_STATUSES, Analysis, GcBounds, KnotRecord, analyze)
from .errors import KcgError, RecordError, TableError
from .laurent import LaurentPoly, poly_from_text
from .seifert import SeifertMatrix

SCHEMA = ("name", "crossings", "alexander", "signature", "genus3",
          "genus4_min", "genus4_max", "slice", "seifert", "concordant_to")


class RejectedRow(Record):
    line: int
    reason: str


class KnotTable(Record):
    """Validated, immutable table of knot records with unique names."""

    records: tuple[KnotRecord, ...]
    source_path: str = "<stream>"
    rejected: tuple[RejectedRow, ...] = ()

    def find(self, name: str) -> KnotRecord | None:
        for rec in self.records:
            if rec.name == name:
                return rec
        return None


def _parse_int(text: str, field: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise TableError(f"bad {field}: {text!r}") from exc


def _parse_row(fields) -> KnotRecord:
    if len(fields) != len(SCHEMA):
        raise TableError(f"expected {len(SCHEMA)} fields, got {len(fields)}")
    (name, crossings, alex, sig, g3, g4min, g4max,
     slice_status, seifert_text, concordant) = (f.strip() for f in fields)
    if not name:
        raise TableError("empty name")
    delta = poly_from_text(alex)
    if abs(laurent.eval_int(delta, 1)) != 1:
        raise TableError("not a knot polynomial")
    signature = _parse_int(sig, "signature")
    genus3 = _parse_int(g3, "genus3")
    if g4min == "" and g4max == "":
        genus4 = ((abs(signature) + 1) // 2, genus3)
    elif g4min == "" or g4max == "":
        raise TableError("four-genus interval must give both ends or neither")
    else:
        genus4 = (_parse_int(g4min, "genus4_min"), _parse_int(g4max, "genus4_max"))
    if slice_status not in SLICE_STATUSES:
        raise TableError(f"bad slice status: {slice_status!r}")
    matrix = SeifertMatrix.from_text(seifert_text) if seifert_text else None
    summands = tuple(part.strip() for part in concordant.split("+")
                     if part.strip()) if concordant else ()
    return KnotRecord(name=name, crossings=_parse_int(crossings, "crossings"),
                      alexander=delta, signature=signature, genus3=genus3,
                      genus4=genus4, slice_status=slice_status,
                      seifert=matrix, concordant_to=summands)


def parse_table(text, source_path: str = "<stream>") -> KnotTable:
    """Parse and validate a knot table.

    Accepts a string or a readable stream.  A malformed header is fatal
    ("bad schema"); bad rows are collected on ``KnotTable.rejected`` with
    line numbers, and the parse only fails when every row is bad.  A
    table without rows parses to no records and no rejected rows.
    """
    if hasattr(text, "read"):
        text = text.read()
    header_seen = False
    body: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = next(csv.reader([line]))
        if not header_seen:
            if tuple(f.strip() for f in fields) != SCHEMA:
                raise TableError("bad schema")
            header_seen = True
            continue
        body.append((lineno, fields))
    if not header_seen:
        raise TableError("bad schema")
    records: list[KnotRecord] = []
    rejected: list[RejectedRow] = []
    names: set[str] = set()
    for lineno, fields in body:
        try:
            rec = _parse_row(fields)
        except KcgError as exc:
            rejected.append(RejectedRow(lineno, str(exc)))
            continue
        if rec.name in names:
            rejected.append(RejectedRow(lineno, f"duplicate name {rec.name}"))
            continue
        names.add(rec.name)
        records.append(rec)
    if body and not records:
        raise TableError("all rows rejected")
    return KnotTable(tuple(records), source_path, tuple(rejected))


def serialize(table: KnotTable) -> str:
    """CSV text for a table; parse_table(serialize(t)) recovers t.records."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCHEMA)
    for r in table.records:
        writer.writerow([
            r.name, r.crossings, r.alexander.to_text(), r.signature,
            r.genus3, r.genus4[0], r.genus4[1], r.slice_status,
            r.seifert.to_text() if r.seifert is not None else "",
            "+".join(r.concordant_to),
        ])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# bundled reference data


def _load_bundled(filename: str) -> KnotTable:
    path = os.path.join(os.path.dirname(__file__), "data", filename)
    with open(path, encoding="utf-8") as fh:
        return parse_table(fh.read(), source_path=f"bundled:{filename}")


@functools.lru_cache(maxsize=None)
def reference_table() -> KnotTable:
    """Hand-checked low-crossing prime knots (through 7 crossings, plus
    8_6): the candidate pool and genus reference for concordance targets."""
    return _load_bundled("knots_small.csv")


@functools.lru_cache(maxsize=None)
def slice_fixture() -> KnotTable:
    return _load_bundled("slice_11.csv")


@functools.lru_cache(maxsize=None)
def concordant_fixture() -> KnotTable:
    return _load_bundled("concordant_11.csv")


@functools.lru_cache(maxsize=None)
def unknown_fixture() -> KnotTable:
    return _load_bundled("unknown_11.csv")


# ---------------------------------------------------------------------------
# candidate matching


class CandidateMatch(Record):
    """A knot sum that could be concordant to the query knot.

    Kept only when the query's required factor divides the combined
    polynomial, the combined signature can reach the query's under some
    mirror assignment, and the combined genus is strictly smaller.
    """

    expression: str
    combined_alexander: LaurentPoly
    combined_genus3: int
    combined_crossings: int


def _achievable_signatures(sigmas) -> set[int]:
    """Signature sums over all mirror assignments of the summands.

    Mirroring negates a summand's signature and fixes its polynomial, so
    the achievable set is symmetric about zero.
    """
    sums = {0}
    for s in sigmas:
        sums = {x + e * s for x in sums for e in (1, -1)}
    return sums


def match_candidates(k: KnotRecord, candidates: KnotTable,
                     max_summands: int = 2) -> tuple[CandidateMatch, ...]:
    """Candidate concordances for a knot whose interval is undetermined.

    Enumerates sums of 1..max_summands candidate knots (with repetition;
    mirrors are free).  Sorted by combined genus, then total crossings,
    then expression, so the most economical explanation comes first.
    """
    return _match(k, candidates, max_summands, functools.cache(laurent.factor))


def _match(k: KnotRecord, candidates: KnotTable, max_summands: int,
           factored, analysis: Analysis | None = None):
    """match_candidates; a census shares ``factored`` across its rows."""
    if not candidates.records:
        raise TableError("empty candidate table")
    analysis = analysis or analyze(k, factored(k.alexander))
    if analysis.bounds.status == DETERMINED:
        raise RecordError(f"bounds for {k.name} are already determined")
    required = analysis.required.enhanced
    pool = sorted(candidates.records, key=lambda r: (r.crossings, r.name))
    fac_of = {r.name: factored(r.alexander) for r in pool}
    out = []
    for size in range(1, max_summands + 1):
        for combo in combinations_with_replacement(pool, size):
            total = functools.reduce(operator.mul,
                                     (fac_of[r.name] for r in combo))
            if not required.divides(total):
                continue
            if k.signature not in _achievable_signatures(
                    [r.signature for r in combo]):
                continue
            genus = sum(r.genus3 for r in combo)
            if genus >= k.genus3:
                continue
            out.append(CandidateMatch(
                expression="+".join(r.name for r in combo),
                combined_alexander=total.expand(), combined_genus3=genus,
                combined_crossings=sum(r.crossings for r in combo)))
    out.sort(key=lambda m: (m.combined_genus3, m.combined_crossings,
                            m.expression))
    return tuple(out)


# ---------------------------------------------------------------------------
# census


class CensusRow(Record):
    name: str
    bounds: GcBounds
    category: str
    candidates: tuple[str, ...]


class CensusReport(Record):
    counts: dict
    total: int
    rows: tuple[CensusRow, ...]


def census(table: KnotTable, candidates: KnotTable | None = None,
           max_summands: int = 2) -> CensusReport:
    """Classify every record and aggregate category counts.

    Rows keep the input order.  The genus lookup for tabulated
    concordances is assembled from the bundled reference table, the
    candidate table (if any), and the input table itself.  When a
    candidate table is supplied, rows that end up unclassified also get
    their matcher output.  Each record is analyzed once, and no
    polynomial is factored twice.
    """
    genus_of = {rec.name: rec.genus3
                for source in (reference_table(), candidates, table)
                if source is not None for rec in source.records}
    factored = functools.cache(laurent.factor)  # for this call only
    counts = {category: 0 for category in CATEGORIES}
    rows = []
    for rec in table.records:
        fac = None if rec.slice_status == SLICE else factored(rec.alexander)
        analysis = analyze(rec, fac, genus_of)
        counts[analysis.category] += 1
        names = ()
        if candidates is not None and analysis.category == CATEGORY_UNKNOWN:
            names = tuple(m.expression for m in _match(
                rec, candidates, max_summands, factored, analysis))
        rows.append(CensusRow(rec.name, analysis.bounds, analysis.category, names))
    return CensusReport(counts=counts, total=len(rows), rows=tuple(rows))


def report_tsv(report: CensusReport) -> str:
    """Deterministic TSV rendering of a census report."""
    lines = ["\t".join(("name", "gc_lower", "gc_upper", "category",
                        "contributors", "candidates"))]
    for row in report.rows:
        contribs = ",".join(f"{src}={val}" for src, val in row.bounds.contributors)
        lines.append("\t".join((row.name, str(row.bounds.lower),
                                str(row.bounds.upper), row.category,
                                contribs, ",".join(row.candidates))))
    return "\n".join(lines) + "\n"
