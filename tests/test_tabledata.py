"""Table parsing, the census, and the candidate matcher."""

import csv
import hashlib
import io
import itertools
import os
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kcg
from bench import gen
from kcg import laurent, tabledata
from kcg.bounds import (CATEGORIES, CATEGORY_UNKNOWN, FIELD_LIMIT, SLICE_STATUSES,
                        KnotRecord)
from kcg.errors import KcgError, PolynomialError, RecordError, TableError
from kcg.laurent import factor, mul, poly_from_text
from kcg.tabledata import (CensusReport, KnotTable, RejectedRow, census,
                           concordant_fixture, match_candidates, parse_table,
                           read_table, reference_table, report_tsv, serialize,
                           slice_fixture, unknown_fixture,
                           _achievable_signatures)
from oracles import divides_exactly

HEADER = ("name,crossings,alexander,signature,genus3,genus4_min,genus4_max,"
          "slice,seifert,concordant_to")
DATA = os.path.join(os.path.dirname(kcg.__file__), "data")
BUNDLED = ("knots_small.csv", "slice_11.csv", "concordant_11.csv", "unknown_11.csv")
TREFOIL_FIELDS = dict(crossings=3, alexander=poly_from_text("1;-1;1"), signature=-2,
                      genus3=1, genus4=(1, 1), slice_status="not_slice")


def table_of(*rows):
    return parse_table("\n".join((HEADER,) + rows))


class TestParse:
    def test_single_row_with_matrix(self):
        t = table_of('3_1,3,1;-1;1,-2,1,1,1,not_slice,"-1,1;0,-1",')
        assert len(t.records) == 1
        rec = t.records[0]
        assert rec.name == "3_1"
        assert rec.alexander == poly_from_text("1;-1;1")
        assert rec.seifert is not None
        assert rec.concordant_to == ()

    def test_empty_body_has_no_records(self, recwarn):
        t = parse_table(HEADER + "\n")
        assert t.records == () and t.rejected == ()
        assert len(recwarn) == 0

    def test_bad_schema(self):
        with pytest.raises(TableError, match="bad schema"):
            parse_table("name,crossings\n3_1,3\n")

    def test_zero_determinant_polynomial_rejected(self):
        t = table_of("bad,3,1;-2;1,0,1,1,1,not_slice,,",
                     "3_1,3,1;-1;1,-2,1,1,1,not_slice,,")
        assert [r.name for r in t.records] == ["3_1"]
        assert len(t.rejected) == 1
        assert t.rejected[0].reason == "not a knot polynomial"
        assert t.rejected[0].line == 2

    def test_duplicate_name_rejected(self):
        t = table_of("3_1,3,1;-1;1,-2,1,1,1,not_slice,,",
                     "3_1,3,1;-1;1,-2,1,1,1,not_slice,,")
        assert len(t.records) == 1
        assert "duplicate name" in t.rejected[0].reason

    def test_table_built_with_a_repeated_name_is_refused(self):
        # the parser's reason, for a table built without the parser, so
        # ``find`` and the census's genus lookup never see two records
        # under one name
        trefoil = KnotRecord(name="3_1", **TREFOIL_FIELDS)
        other = KnotRecord(name="3_1", **dict(TREFOIL_FIELDS, crossings=11))
        with pytest.raises(TableError, match="^duplicate name 3_1$"):
            KnotTable((trefoil, other))
        with pytest.raises(TableError, match="^duplicate name 3_1$"):
            KnotTable(records=(trefoil, KnotRecord(name="x", **TREFOIL_FIELDS), trefoil),
                      source_path="t.csv")
        assert len(KnotTable((trefoil, KnotRecord(name="3_1a", **TREFOIL_FIELDS))).records) == 2

    def test_all_rows_bad_is_fatal(self):
        with pytest.raises(TableError, match="all rows rejected"):
            table_of("bad,3,0;0,0,1,1,1,not_slice,,")

    def test_all_rows_rejected_names_the_first(self):
        with pytest.raises(TableError) as info:
            table_of("bad,3,1;-2;1,0,1,1,1,not_slice,,",
                     "worse,3,1;-1;1,-2,1,1,1,maybe,,")
        assert str(info.value) == "all rows rejected; line 2: not a knot polynomial"

    @pytest.mark.parametrize("line, reason", [
        ("x" * 131073 + ",3,1;-1;1,-2,1,1,1,not_slice,,",
         "field larger than field limit (131072)"),
        ("3_1,3,1;-1;1,-2,1,1,1,not_slice,,\0", "line contains NUL"),
        ("\0", "line contains NUL"),
        ("4_1,4,1;-3;1,0,1,1,1,\rslice,,", "line contains CR"),
        ("4_1,4,\r1;-3;1,0,1,1,1,slice,,", "line contains CR"),
    ], ids=["long-field", "nul", "only-nul", "carriage-return", "carriage-return-first"])
    def test_line_the_csv_reader_refuses_is_rejected(self, line, reason):
        # Python 3.10's reader refuses a NUL itself, later ones keep it;
        # for a CR the reader's advice differs between Python releases
        t = table_of(line, "3_1,3,1;-1;1,-2,1,1,1,not_slice,,")
        assert [r.name for r in t.records] == ["3_1"]
        assert t.rejected == (RejectedRow(2, reason),)

    def test_carriage_return_inside_quotes_is_rejected(self):
        # one row is one line, so no field holds a CR
        t = table_of('"4\r1",4,1;-3;1,0,1,1,1,slice,,', "3_1,3,1;-1;1,-2,1,1,1,not_slice,,")
        assert [r.name for r in t.records] == ["3_1"]
        assert t.rejected == (RejectedRow(2, "line contains CR"),)

    @pytest.mark.parametrize("row, reason", [
        ('"4\t1",4,1;-3;1,0,1,1,1,slice,,', "bad name: '4\\t1'"),
        ('"#x",4,1;-3;1,0,1,1,1,slice,,', "bad name: '#x'"),
        ('"",4,1;-3;1,0,1,1,1,slice,,', "bad name: ''"),
        ('4_1,4,1;-3;1,0,1,1,1,slice,,"3_1+a\tb"', "bad name: 'a\\tb'"),
    ], ids=["tab", "comment-mark", "empty", "tab-in-concordant-to"])
    def test_bad_name_is_rejected(self, row, reason):
        t = table_of(row, "3_1,3,1;-1;1,-2,1,1,1,not_slice,,")
        assert [r.name for r in t.records] == ["3_1"]
        assert t.rejected == (RejectedRow(2, reason),)

    def test_quoted_line_feed_rejects_both_halves(self):
        t = table_of('"a\nb",4,1;-3;1,0,1,1,1,slice,,', "3_1,3,1;-1;1,-2,1,1,1,not_slice,,")
        assert [r.name for r in t.records] == ["3_1"]
        assert t.rejected == (RejectedRow(2, "unbalanced quotes"),
                              RejectedRow(3, "unbalanced quotes"))

    def test_stray_quote_is_unbalanced(self):
        t = table_of('a"b,3,1;-1;1,-2,1,1,1,not_slice,,', '"a""b",3,1;-1;1,-2,1,1,1,not_slice,,')
        assert [r.name for r in t.records] == ['a"b']
        assert t.rejected == (RejectedRow(2, "unbalanced quotes"),)

    @pytest.mark.parametrize("genus4", ["0,1", ","], ids=["explicit", "default"])
    def test_huge_signature_is_a_rejected_row(self, genus4):
        t = table_of(f"big,3,1;-1;1,{10**400},1,{genus4},not_slice,,",
                     "3_1,3,1;-1;1,-2,1,1,1,not_slice,,")
        assert [r.name for r in t.records] == ["3_1"]
        assert [bad.line for bad in t.rejected] == [2]
        assert t.rejected[0].reason.startswith("inconsistent knot record: ")

    def test_signature_past_float_precision_is_refused(self):
        big = 2**53
        t = table_of(f"big,3,1;-1;1,{2 * big + 2},{big},0,{big},not_slice,,",
                     f"ok,3,1;-1;1,{2 * big},{big},0,{big},not_slice,,")
        assert [r.name for r in t.records] == ["ok"]
        assert t.rejected == (RejectedRow(
            2, "inconsistent knot record: |signature|/2 exceeds the four-genus"),)

    @pytest.mark.parametrize("header", [HEADER + "," + "x" * 131073,
                                        HEADER + "\0", HEADER + "\rx"],
                             ids=["long-field", "nul", "carriage-return"])
    def test_header_the_csv_reader_refuses_is_bad_schema(self, header):
        with pytest.raises(TableError, match="^bad schema$"):
            parse_table(header + "\n3_1,3,1;-1;1,-2,1,1,1,not_slice,,\n")

    def test_odd_signature_is_rejected(self):
        # V + V^T has even size and odd determinant +-Delta(-1), so a knot's
        # signature is even; 11a_6 with signature 3 would be credited
        # signature=2 from ceil(3/2)
        row = "11a_6,11,2;-13;32;-41;32;-13;2,{},3,1,2,not_slice,,"
        t = table_of(row.format(3), row.format(2).replace("11a_6", "even"))
        assert [r.name for r in t.records] == ["even"]
        assert t.rejected == (RejectedRow(2, "inconsistent knot record: odd signature"),)

    @pytest.mark.parametrize("row, reason", [
        ("k,3,1;-1;1,-3,1,1,1,not_slice,,",
         "inconsistent knot record: |signature|/2 exceeds the four-genus"),
        ('"#k",3,1;-1;1,1,1,1,1,not_slice,,', "bad name: '#k'"),
        ("k,3,1;-1;1,1,1,1,1,maybe,,", "bad slice status: 'maybe'"),
        ('k,4,1;-3;1,1,1,1,1,not_slice,"-1,1;0,-1",',
         "inconsistent knot record: Seifert matrix does not match the polynomial"),
    ], ids=["signature-bound", "name", "slice-status", "matrix"])
    def test_odd_signature_keeps_an_earlier_reason(self, row, reason):
        t = table_of(row, "3_1,3,1;-1;1,-2,1,1,1,not_slice,,")
        assert t.rejected == (RejectedRow(2, reason),)

    def test_mismatched_matrix_rejected(self):
        t = table_of('bad,4,1;-3;1,0,1,1,1,not_slice,"-1,1;0,-1",',
                     "3_1,3,1;-1;1,-2,1,1,1,not_slice,,")
        assert [r.name for r in t.records] == ["3_1"]
        assert "Seifert matrix" in t.rejected[0].reason

    def test_default_genus4_interval(self):
        t = table_of("3_1,3,1;-1;1,-2,1,,,not_slice,,")
        assert t.records[0].genus4 == (1, 1)

    def test_bad_slice_status(self):
        t = table_of("bad,3,1;-1;1,-2,1,1,1,maybe,,",
                     "3_1,3,1;-1;1,-2,1,1,1,not_slice,,")
        assert "slice status" in t.rejected[0].reason

    def test_comments_and_blanks_skipped(self):
        t = parse_table("# comment\n\n" + HEADER +
                        "\n# another\n3_1,3,1;-1;1,-2,1,1,1,not_slice,,\n")
        assert len(t.records) == 1

    def test_accepts_readable_stream(self):
        import io
        stream = io.StringIO(HEADER + "\n3_1,3,1;-1;1,-2,1,1,1,not_slice,,\n")
        t = parse_table(stream, source_path="mem")
        assert len(t.records) == 1
        assert t.source_path == "mem"


class TestReadTable:
    @pytest.mark.parametrize("filename", BUNDLED)
    def test_crlf_copy_of_a_bundled_table_parses_the_same(self, filename, tmp_path):
        lf = read_table(os.path.join(DATA, filename))
        with open(os.path.join(DATA, filename), "rb") as fh:
            data = fh.read()
        assert b"\r" not in data
        path = tmp_path / filename
        path.write_bytes(data.replace(b"\n", b"\r\n"))
        crlf = read_table(str(path))
        assert crlf.records == lf.records and crlf.rejected == lf.rejected == ()
        assert crlf.source_path == str(path)

    def test_bundled_tables_are_read_from_their_files(self):
        assert reference_table().source_path == os.path.join(DATA, "knots_small.csv")

    def test_unreadable_file_is_a_table_error(self, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfen\x00a\x00m\x00e\x00")
        with pytest.raises(TableError, match=f"^cannot read table {path}: not UTF-8$"):
            read_table(str(path))
        with pytest.raises(TableError, match="^cannot read table .*: No such file or directory$"):
            read_table(str(tmp_path / "missing.csv"))


# characters a mutation inserts or writes over, and the slice words
MUTATION_TOKENS = tuple(',;-0123456789"\r\n\t#\0') + SLICE_STATUSES
SERIALIZED = tuple(serialize(read_table(os.path.join(DATA, f))) for f in BUNDLED)


@st.composite
def mutated_tables(draw):
    """A bundled table with a few of its rows mutated: a token inserted,
    a character deleted, or characters written over by a token."""
    header, *rows = draw(st.sampled_from(SERIALIZED)).split("\n")[:-1]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(rows) - 1))
        row, at = rows[i], draw(st.integers(0, len(rows[i])))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        token = draw(st.sampled_from(MUTATION_TOKENS))
        if op == "insert":
            rows[i] = row[:at] + token + row[at:]
        elif op == "delete":
            rows[i] = row[:at] + row[at + 1:]
        else:
            rows[i] = row[:at] + token + row[at + len(token):]
    return "\n".join((header, *rows)) + "\n"


class TestParseFuzz:
    @settings(derandomize=True, max_examples=300, deadline=2000, database=None)
    @given(mutated_tables())
    @example(HEADER + "\nbad,3,2;-1,0,1,,,unknown,,\n3_1,3,1;-1;1,-2,1,1,1,not_slice,,\n")
    def test_mutated_rows(self, text):
        try:
            table = parse_table(text)
        except TableError:
            return
        for rec in table.records:
            coeffs = rec.alexander.coeffs
            assert coeffs == coeffs[::-1] and abs(sum(coeffs)) == 1
        assert parse_table(serialize(table)).records == table.records
        try:
            report = census(table)
        except KcgError as exc:
            assert "palindromic" not in str(exc)
            return
        assert all(line.count("\t") == 5 for line in report_tsv(report).splitlines())

    @settings(derandomize=True, max_examples=300, deadline=2000, database=None)
    @given(st.text())
    @example("4\t1")
    @example("a\nb")
    @example("4\r1")
    @example("#x")
    @example('a"b')
    @example("x" * 131072)
    @example("x" * 131073)
    def test_name_is_refused_or_round_trips(self, name):
        """As a name and as a concordant_to entry, a text is either refused
        by KnotRecord or read back unchanged from the serialized table."""
        for fields in ({"name": name}, {"name": "k", "concordant_to": (name,)}):
            try:
                rec = KnotRecord(**TREFOIL_FIELDS, **fields)
            except RecordError as exc:
                assert str(exc) == f"bad name: {name!r}"
                continue
            assert parse_table(serialize(KnotTable((rec,)))).records == (rec,)

    def test_concordant_to_past_the_field_limit_is_refused(self):
        """Entries that each fit are refused once their ``+``-joined field
        would not: the CSV reader refuses fields past its size limit."""
        assert FIELD_LIMIT == csv.field_size_limit()
        parts = ("a" * (FIELD_LIMIT // 2), "b" * (FIELD_LIMIT // 2))
        with pytest.raises(RecordError, match="^bad name: 'a"):
            KnotRecord(**TREFOIL_FIELDS, name="k", concordant_to=parts)
        rec = KnotRecord(**TREFOIL_FIELDS, name="k", concordant_to=(parts[0], parts[1][1:]))
        assert parse_table(serialize(KnotTable((rec,)))).records == (rec,)


# table rows, as field lists, from the bundled tables and two census552 tables
ROW_POOL = tuple(fields for text in (*SERIALIZED, *(serialize(gen.census_input(seed).table)
                                                   for seed in (0, 1)))
                 for fields in csv.reader(text.splitlines()[1:]))
SENTINEL = "sentinel,3,1;-1;1,-2,1,1,1,not_slice,,"


def _mutated(fields, rng):
    """``fields`` with one field changed: to a value some check refuses, to
    another row's value, or padded with spaces, which the parser drops."""
    fields = list(fields)
    i = rng.choice((rng.randrange(len(fields)), 3))  # the signature, often
    fields[i] = rng.choice((rng.choice(ROW_POOL)[i], f" {fields[i]} ", "x", "#x", "",
                            "-1", "3", "1;2", "-1,1;0,-1", "maybe"))
    return fields if rng.random() < 0.9 else fields[:-1]


def _line(fields):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


class TestRowTails:
    """``parse_table`` parses each distinct row tail (every field but the
    name) once per call; each row still gets the record, or the reason,
    that it gets in a table of its own."""

    @pytest.mark.parametrize("seed", range(8))
    def test_rows_parse_as_they_do_alone(self, seed):
        rng = random.Random(f"row-tails-{seed}")
        rows = []
        for _ in range(80):
            fields = list(rng.choice(rows or ROW_POOL) if rng.random() < 0.4
                          else rng.choice(ROW_POOL))
            if rng.random() < 0.3:  # the same tail under another name
                fields[0] = f"{fields[0]}_{rng.randrange(3)}"
            rows.append(_mutated(fields, rng) if rng.random() < 0.4 else fields)
        lines = [_line(fields) for fields in rows]
        want_records, want_rejected, names = [], [], set()
        for lineno, line in enumerate(lines, 2):
            # the row on its own, on the same line number, before a good row
            alone = parse_table(HEADER + "\n" * (lineno - 1) + line + "\n" + SENTINEL)
            if len(alone.records) + len(alone.rejected) == 1:  # a comment line
                continue
            if alone.rejected:
                want_rejected.append((lineno, alone.rejected[0].reason))
            elif alone.records[0].name in names:
                want_rejected.append((lineno, f"duplicate name {alone.records[0].name}"))
            else:
                names.add(alone.records[0].name)
                want_records.append(alone.records[0])
        table = parse_table("\n".join((HEADER, *lines)) + "\n")
        assert table.records == tuple(want_records)
        assert [(bad.line, bad.reason) for bad in table.rejected] == want_rejected
        assert len(want_records) > 20 and len(want_rejected) > 5

    def test_each_distinct_tail_is_parsed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tabledata, "poly_from_text",
                            lambda text: calls.append(text) or poly_from_text(text))
        text = serialize(gen.census_input(0).table)
        rows = list(csv.reader(text.splitlines()[1:]))
        table = parse_table(text)
        assert len(table.records) == len(rows) == 552
        assert len(calls) == len({tuple(fields[1:]) for fields in rows}) < 200


class TestSerialize:
    def test_round_trip_bundled_tables(self):
        for table in (reference_table(), slice_fixture(),
                      concordant_fixture(), unknown_fixture()):
            again = parse_table(serialize(table))
            assert again.records == table.records
            assert again.rejected == ()

    def test_round_trip_twice_is_stable(self):
        text = serialize(reference_table())
        assert serialize(parse_table(text)) == text

    def test_coefficient_past_the_string_limit_is_refused(self):
        # (a, 1 - 2a, a) is a knot polynomial, so the record is valid, but
        # its coefficients have more digits than int -> str converts
        a = 10 ** 5000
        rec = KnotRecord(name="big", **dict(TREFOIL_FIELDS, signature=0, genus4=(0, 1),
                                            alexander=laurent.LaurentPoly((a, 1 - 2 * a, a))))
        with pytest.raises(PolynomialError, match="^coefficient too long to write as text$"):
            serialize(KnotTable((rec,)))


class TestCensus:
    def test_counts_sum_to_total(self):
        rep = census(reference_table())
        assert sum(rep.counts.values()) == rep.total == len(reference_table().records)

    def test_counts_and_total_are_derived_from_the_rows(self):
        # rows are the report's only field, so no report can be built whose
        # counts contradict them; counts come in CATEGORIES order, with
        # zeros, as a new dict each time
        rep = census(unknown_fixture(), reference_table())
        assert list(rep.counts) == list(CATEGORIES)
        assert rep.counts == {**dict.fromkeys(CATEGORIES, 0), "unknown": 19}
        assert rep.total == 19
        rep.counts["unknown"] = 0
        assert rep.counts["unknown"] == 19
        empty = CensusReport(())
        assert (empty.counts, empty.total) == (dict.fromkeys(CATEGORIES, 0), 0)
        with pytest.raises(TypeError):
            CensusReport(rep.rows, counts=rep.counts)

    def test_row_order_matches_input(self):
        rep = census(unknown_fixture())
        assert [r.name for r in rep.rows] == [r.name for r in unknown_fixture().records]

    def test_counts_are_permutation_invariant(self):
        base = unknown_fixture()
        rng = random.Random(3)
        shuffled = list(base.records)
        rng.shuffle(shuffled)
        rep1 = census(base)
        rep2 = census(KnotTable(tuple(shuffled)))
        assert rep1.counts == rep2.counts

    def test_candidate_column_only_on_unknown_rows(self):
        rep = census(unknown_fixture(), candidates=reference_table())
        for row in rep.rows:
            if row.category != CATEGORY_UNKNOWN:
                assert row.candidates == ()
        assert any(row.candidates for row in rep.rows)

    def test_report_tsv_shape(self):
        rep = census(slice_fixture())
        text = report_tsv(rep)
        lines = text.strip().split("\n")
        assert lines[0].split("\t") == ["name", "gc_lower", "gc_upper",
                                        "category", "contributors", "candidates"]
        assert len(lines) == 31
        assert lines[1].split("\t")[:4] == ["11a_28", "0", "0", "slice"]


class TestMatcher:
    def test_single_candidate(self):
        rec = concordant_fixture().find("11a_196")
        only_trefoil = KnotTable(tuple(r for r in reference_table().records
                                       if r.name == "3_1"))
        matches = match_candidates(rec, only_trefoil)
        assert [m.expression for m in matches] == ["3_1"]
        assert matches[0].combined_genus3 == 1
        # the kept summand, or its mirror, reaches the query's signature
        summand = reference_table().find(matches[0].expression)
        assert abs(summand.signature) == abs(rec.signature)

    def test_empty_result_when_degree_blocks(self):
        # required factor of degree 4 cannot divide a degree-2 polynomial
        rec = unknown_fixture().find("11a_8")
        only_trefoil = KnotTable(tuple(r for r in reference_table().records
                                       if r.name == "3_1"))
        assert match_candidates(rec, only_trefoil) == ()

    def test_empty_candidates_rejected(self):
        rec = concordant_fixture().find("11a_196")
        with pytest.raises(TableError, match="empty candidate table"):
            match_candidates(rec, KnotTable(()))

    def test_determined_knot_rejected(self):
        rec = reference_table().find("3_1")
        with pytest.raises(RecordError, match="already determined"):
            match_candidates(rec, reference_table())

    def test_divisibility_is_sound(self):
        small = reference_table()
        for name in ("11a_6", "11a_297", "11n_66"):
            rec = unknown_fixture().find(name)
            req = _required_poly(rec)
            for m in match_candidates(rec, small):
                assert divides_exactly(list(req.coeffs),
                                       list(m.combined_alexander.coeffs))

    def test_required_factors_are_not_factored_again(self, monkeypatch):
        # the matcher reads the required multiset off the analysis: what it
        # factors divides the query's or a pool record's polynomial, nothing
        # is factored twice, and no product of pool members is factored
        rec = unknown_fixture().find("11a_6")
        pool = [r.alexander for r in reference_table().records]
        seen = []

        def factored(p):
            seen.append(p)
            return factor(p)

        monkeypatch.setattr(laurent, "factor", factored)
        assert match_candidates(rec, reference_table(), 2)
        assert seen and len(seen) == len(set(seen))
        assert all(any(divides_exactly(list(p.coeffs), list(d.coeffs))
                       for d in [rec.alexander, *pool]) for p in seen)
        assert not set(seen) & {mul(a, b) for a, b in
                                itertools.combinations_with_replacement(pool, 2)}

    def test_mirror_closure(self):
        # mirroring every summand negates the combined signature, so the
        # achievable set is symmetric about zero
        rng = random.Random(5)
        for _ in range(50):
            sigmas = [rng.randint(-3, 3) * 2 for _ in range(rng.randint(1, 3))]
            sums = _achievable_signatures(sigmas)
            assert sums == {-s for s in sums}

    def test_max_summands_limits_size(self):
        rec = unknown_fixture().find("11a_6")
        singles = match_candidates(rec, reference_table(), max_summands=1)
        assert all("+" not in m.expression for m in singles)


class TestMatcherPins:
    """The matcher's output on the bundled fixtures, pinned before any
    change to how it searches."""

    # matches of the 19 unknown rows against knots_small, and a sha256 of
    # their "query, expression, genus, crossings, polynomial" lines
    UNKNOWN_11 = {
        1: (21, "9fc74d70528f7974cb1c82c1017e0fe05faceb5169deb9c3731ec76ea3a1db40"),
        2: (78, "c5f46a5fcee0dfbe6c47817e836507df75bab094ce09743e80ac668a8d9c9baf"),
        3: (82, "a6cc30dce5d069cd93c3508bec0ecc9d502e8a529ba3dc36d34c27066b385116"),
    }

    @pytest.mark.parametrize("max_summands", [1, 2, 3])
    def test_unknown_11_matches(self, max_summands):
        lines = [f"{rec.name}\t{m.expression}\t{m.combined_genus3}\t"
                 f"{m.combined_crossings}\t{m.combined_alexander.to_text()}"
                 for rec in unknown_fixture().records
                 for m in match_candidates(rec, reference_table(), max_summands)]
        text = "\n".join(lines) + "\n"
        assert (len(lines), hashlib.sha256(text.encode()).hexdigest()) \
            == self.UNKNOWN_11[max_summands]

    def test_every_tabulated_concordance_is_found(self):
        # each concordant_11 row's concordant_to, written in pool order,
        # is among its matches at 3 summands
        pool = reference_table()
        order = {r.name: (r.crossings, r.name) for r in pool.records}
        rows = concordant_fixture().records
        assert len(rows) == 29
        for rec in rows:
            listed = "+".join(sorted(rec.concordant_to, key=order.__getitem__))
            found = {m.expression for m in match_candidates(rec, pool, 3)}
            assert listed in found, (rec.name, listed)


def _required_poly(rec):
    from kcg.foxmilnor import enhanced_required_factors
    return enhanced_required_factors(factor(rec.alexander), None).enhanced.expand()


class TestCensusCandidateColumn:
    """The tabulated 'possible concordance' entries, replayed against the
    bundled low-crossing pool: the listed entry must come first among the
    candidates of its genus."""

    LISTED = {
        "11a_6": "3_1+4_1",
        "11a_8": "6_3",
        "11a_67": "4_1",
        "11a_108": "6_2",
        "11a_181": "6_2",
        "11a_249": "6_3",
        "11a_264": "3_1+4_1",
        "11a_297": "5_2",
        "11a_305": "3_1+4_1",
        "11a_332": "7_7",
        "11a_352": "3_1+4_1",
        "11n_66": "3_1",
        "11n_152": "8_6",
    }

    def test_listed_candidate_first_of_its_genus(self):
        pool = reference_table()
        for name, listed in self.LISTED.items():
            rec = unknown_fixture().find(name)
            matches = match_candidates(rec, pool)
            by_genus = {}
            for m in matches:
                by_genus.setdefault(m.combined_genus3, []).append(m.expression)
            hits = [g for g, exprs in by_genus.items() if listed in exprs]
            assert hits, f"{name}: {listed} not produced at all"
            genus = hits[0]
            assert by_genus[genus][0] == listed, (name, by_genus)

    def test_signature_filter_vetoes_11a109_single(self):
        # 11a_109 carries signature 0; a single summand with signature
        # +-2 can never match, so the matcher must not offer bare 6_2
        rec = unknown_fixture().find("11a_109")
        matches = match_candidates(rec, reference_table())
        assert all(m.expression != "6_2" for m in matches)
