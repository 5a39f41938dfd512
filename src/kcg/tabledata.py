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
from .bounds import (CATEGORY_UNKNOWN, CATEGORIES, DETERMINED, GcBounds,
                     KnotRecord, analyze, signature_bound)
from .errors import KcgError, RecordError, TableError
from .laurent import LaurentPoly, poly_from_text

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

    def __post_init__(self):
        names = set()
        for rec in self.records:
            if rec.name in names:
                raise TableError(f"duplicate name {rec.name}")
            names.add(rec.name)

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


def _split(line: str) -> list[str]:
    """The CSV fields of one line, as one row is one line: a NUL, a CR or an
    odd number of quotes rejects it, with a reason the same on every Python."""
    if "\0" in line:
        raise TableError("line contains NUL")
    if "\r" in line:
        raise TableError("line contains CR")
    if line.count('"') % 2:
        raise TableError("unbalanced quotes")
    try:
        return next(csv.reader([line]))
    except csv.Error as exc:
        raise TableError(str(exc)) from exc


def _parse_row(fields, tails: dict) -> KnotRecord:
    """The record of one row; ``tails`` maps each row tail (every field but
    the name) parsed so far to the record fields it gives."""
    if len(fields) != len(SCHEMA):
        raise TableError(f"expected {len(SCHEMA)} fields, got {len(fields)}")
    tail = tuple(fields[1:])
    rest = tails.get(tail)
    if rest is None:
        (crossings, alex, sig, g3, g4min, g4max,
         slice_status, seifert_text, concordant) = (f.strip() for f in tail)
        delta = poly_from_text(alex)
        signature = _parse_int(sig, "signature")
        genus3 = _parse_int(g3, "genus3")
        if g4min == "" and g4max == "":
            genus4 = (signature_bound(signature), genus3)
        elif g4min == "" or g4max == "":
            raise TableError("four-genus interval must give both ends or neither")
        else:
            genus4 = (_parse_int(g4min, "genus4_min"), _parse_int(g4max, "genus4_max"))
        matrix = None
        if seifert_text:
            from ._matrix import SeifertMatrix

            matrix = SeifertMatrix.from_text(seifert_text)
        summands = tuple(part.strip() for part in concordant.split("+") if part.strip())
        rest = tails[tail] = (_parse_int(crossings, "crossings"), delta, signature,
                              genus3, genus4, slice_status, matrix, summands)
    return KnotRecord(fields[0].strip(), *rest)


def parse_table(text, source_path: str = "<stream>") -> KnotTable:
    """Parse a knot table; :class:`KnotRecord` validates each row.

    Accepts a string or a readable stream; one leading byte-order mark
    (U+FEFF) is skipped.  Each row is one line: lines end
    at LF, CRs just before it are dropped, and :func:`_split` rejects any
    other CR.  A malformed header is fatal ("bad schema"); bad rows are
    collected on ``KnotTable.rejected`` with line numbers, and the parse
    only fails, naming the first of them, when every row is bad.  A table
    without rows parses to no records and no rejected rows.  Each distinct
    row tail (every field but the name) is parsed once per call; each row
    builds and validates its own record, for the reason it alone gives.
    """
    if hasattr(text, "read"):
        text = text.read()
    text = text.removeprefix("\ufeff")
    lines = [(lineno, line) for lineno, raw in enumerate(text.split("\n"), 1)
             if (line := raw.rstrip("\r")).strip() and not line.lstrip().startswith("#")]
    try:
        header = tuple(f.strip() for f in _split(lines[0][1]))
    except (IndexError, TableError):
        header = None
    if header != SCHEMA:
        raise TableError("bad schema")
    records: list[KnotRecord] = []
    rejected: list[RejectedRow] = []
    names: set[str] = set()
    tails: dict[tuple[str, ...], tuple] = {}
    for lineno, line in lines[1:]:
        try:
            rec = _parse_row(_split(line), tails)
        except KcgError as exc:
            rejected.append(RejectedRow(lineno, str(exc)))
            continue
        if rec.name in names:
            rejected.append(RejectedRow(lineno, f"duplicate name {rec.name}"))
            continue
        names.add(rec.name)
        records.append(rec)
    if rejected and not records:
        first = rejected[0]
        raise TableError(f"all rows rejected; line {first.line}: {first.reason}")
    return KnotTable(tuple(records), source_path, tuple(rejected))


def read_table(path: str) -> KnotTable:
    """:func:`parse_table` of the UTF-8 file at ``path`` (line endings
    untouched); an unreadable file is a TableError."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return parse_table(fh.read(), source_path=path)
    except OSError as exc:
        raise TableError(f"cannot read table {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise TableError(f"cannot read table {path}: not UTF-8") from exc


def serialize(table: KnotTable) -> str:
    """CSV text, one line per record: parse_table(serialize(t)) recovers
    t.records.  A coefficient too long to write as text is refused with
    :class:`PolynomialError` (see :meth:`LaurentPoly.to_text`)."""
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
    return read_table(os.path.join(os.path.dirname(__file__), "data", filename))


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
    The query and the pool share one :func:`laurent.factorer`, so each
    irreducible is found by Zassenhaus at most once per call.
    """
    factored = laurent.factorer()
    pool = _pool(candidates, factored)
    analysis = analyze(k, factored)
    if analysis.bounds.status == DETERMINED:
        raise RecordError(f"bounds for {k.name} are already determined")
    (found,) = _sweep([(k, analysis.required.enhanced)], pool, max_summands)
    return tuple(CandidateMatch(expression, total.expand(), genus, crossings)
                 for genus, crossings, expression, total in found)


def _pool(candidates: KnotTable, factored):
    """The candidate records in sum order, each with its factorization."""
    if not candidates.records:
        raise TableError("empty candidate table")
    pool = sorted(candidates.records, key=lambda r: (r.crossings, r.name))
    return [(r, factored(r.alexander)) for r in pool]


def _sweep(queries, pool, max_summands: int):
    """Every sum of 1..max_summands pool members, formed once and tested
    against each (record, required factors) query: genus first, then
    divisibility, then the signature.  Per query, the sorted
    (genus, crossings, expression, product) of its matches."""
    found = [[] for _ in queries]
    for size in range(1, max_summands + 1):
        for combo in combinations_with_replacement(pool, size):
            total = functools.reduce(operator.mul, (fac for _, fac in combo))
            genus = sum(r.genus3 for r, _ in combo)
            signatures = None
            for (k, required), out in zip(queries, found):
                if genus >= k.genus3 or not required.divides(total):
                    continue
                if signatures is None:
                    signatures = _achievable_signatures([r.signature for r, _ in combo])
                if k.signature in signatures:
                    out.append((genus, sum(r.crossings for r, _ in combo),
                                "+".join(r.name for r, _ in combo), total))
    for out in found:
        out.sort()
    return found


# ---------------------------------------------------------------------------
# census


class CensusRow(Record):
    name: str
    bounds: GcBounds
    category: str
    candidates: tuple[str, ...]


class CensusReport(Record):
    rows: tuple[CensusRow, ...]

    @property
    def counts(self) -> dict[str, int]:
        """Rows per category, in ``CATEGORIES`` order; a new dict each call."""
        counts = dict.fromkeys(CATEGORIES, 0)
        for row in self.rows:
            counts[row.category] += 1
        return counts

    @property
    def total(self) -> int:
        return len(self.rows)


def census(table: KnotTable, candidates: KnotTable | None = None,
           max_summands: int = 2) -> CensusReport:
    """Classify every record.

    Rows keep the input order.  The genus lookup for tabulated
    concordances is assembled from the candidate table (if any) and the
    input table itself, which takes precedence; the bundled reference
    table is read underneath only when a ``concordant_to`` name is in
    neither.  When a candidate table is supplied, rows that end up
    unclassified also get their matcher output, from one sweep that forms
    each pool sum once and tests it against all of them.  Rows that agree
    on every value the analysis reads (all but the name and the crossing
    number) are analyzed, and matched, once; no polynomial is factored
    twice, and each irreducible is found by Zassenhaus at most once per
    call (the table and the pool share one :func:`laurent.factorer`,
    which divides out the irreducibles it has found before factoring what
    is left).
    """
    genus_of = {rec.name: rec.genus3 for source in (candidates, table)
                if source is not None for rec in source.records}
    if any(n not in genus_of for rec in table.records for n in rec.concordant_to):
        genus_of = {rec.name: rec.genus3 for rec in reference_table().records} | genus_of
    # for this call only
    factored = laurent.factorer()
    analyses, queries, keyed, pool = {}, {}, [], None
    for rec in table.records:
        key = (rec.alexander, rec.signature, rec.genus3, rec.genus4,
               rec.slice_status, rec.seifert, rec.concordant_to)
        analysis = analyses.get(key)
        if analysis is None:
            analysis = analyses[key] = analyze(rec, factored, genus_of)
            if candidates is not None and analysis.category == CATEGORY_UNKNOWN:
                pool = pool or _pool(candidates, factored)
                queries[key] = (rec, analysis.required.enhanced)
        keyed.append((key, analysis))
    found = {}
    if queries:
        found = {key: tuple(expression for _, _, expression, _ in out) for key, out
                 in zip(queries, _sweep(list(queries.values()), pool, max_summands))}
    rows = tuple(CensusRow(rec.name, analysis.bounds, analysis.category, found.get(key, ()))
                 for rec, (key, analysis) in zip(table.records, keyed))
    return CensusReport(rows)


def report_tsv(report: CensusReport) -> str:
    """Deterministic TSV rendering of a census report."""
    lines = ["\t".join(("name", "gc_lower", "gc_upper", "category",
                        "contributors", "candidates"))]
    for row in report.rows:
        lines.append("\t".join((row.name, str(row.bounds.lower), str(row.bounds.upper),
                                row.category, row.bounds.contributors_text(),
                                ",".join(row.candidates))))
    return "\n".join(lines) + "\n"
