"""Full-scale census integration: a synthetic 552-row table with the
same category profile as a complete eleven-crossing export
(384 / 84 / 6 / 30 / 29 / 19) must classify exactly and fast."""

import collections
import hashlib
import sys
import time

import pytest

from bench import gen
from kcg import _intpoly, bounds, foxmilnor, laurent, tabledata
from kcg.bounds import KnotRecord
from kcg.laurent import Factorization, factor, poly_from_text
from kcg.tabledata import (KnotTable, _load_bundled, census, concordant_fixture,
                           match_candidates, parse_table, reference_table,
                           report_tsv, serialize, unknown_fixture)


def _full_table():
    """The seed-0 census552 table of the benchmark generator: the
    repository's synthetic table, row for row."""
    return gen.census_input(0).table


def test_synthetic_552_census_counts_and_runtime():
    table = _full_table()
    start = time.perf_counter()
    report = census(table)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert report.total == 552
    assert report.counts == {
        "determined_irreducible_poly": 384,
        "determined_poly_no_symmetric_pair": 84,
        "determined_signature_or_g4": 6,
        "slice": 30,
        "concordant_lower_genus": 29,
        "unknown": 19,
    }


def test_synthetic_552_survives_serialization():
    table = _full_table()
    again = parse_table(serialize(table), source_path="<round-trip>")
    assert again.records == table.records
    assert again.rejected == ()


def test_pair_rows_really_have_no_norm_factor():
    # spot-check the generator assumption: every synthesized product has
    # two distinct symmetric factors, each once
    inp = gen.census_input(0)
    pairs = [rec for rec in inp.table.records
             if inp.category_of[rec.name] == "determined_poly_no_symmetric_pair"]
    assert len(pairs) == 84
    for rec in pairs:
        fac = factor(rec.alexander)
        assert sum(m for _, m in fac.factors) == 2
        assert all(m == 1 for _, m in fac.factors)


def test_synthetic_552_report_is_pinned():
    # byte-for-byte: a change to any row's bound, category or contributors
    # moves the hash
    text = report_tsv(census(_full_table()))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "606f0fffbe2b8862"


@pytest.mark.parametrize("candidates", [None, reference_table()],
                         ids=["alone", "with-candidates"])
def test_census_factors_no_polynomial_twice(candidates):
    table = _full_table()
    code = laurent.factor.__code__
    inputs = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            inputs[frame.f_locals["p"]] += 1

    sys.setprofile(profile)
    try:
        census(table, candidates)
    finally:
        sys.setprofile(None)
    assert inputs, "the census factored nothing"
    assert [p for p, n in inputs.items() if n > 1] == []


@pytest.mark.parametrize("max_summands", [1, 2, 3])
@pytest.mark.parametrize("make_table", [unknown_fixture, _full_table],
                         ids=["unknown_11", "synthetic-552"])
def test_census_candidates_are_the_matchers(make_table, max_summands):
    # the census's one sweep over the pool gives every unknown row exactly
    # the expressions the single-query matcher gives it
    table, pool = make_table(), reference_table()
    report = census(table, pool, max_summands)
    unknown = [(rec, row) for rec, row in zip(table.records, report.rows)
               if row.category == "unknown"]
    assert len(unknown) == 19
    for rec, row in unknown:
        assert row.candidates == tuple(
            m.expression for m in match_candidates(rec, pool, max_summands))


def test_synthetic_552_report_with_candidates_is_pinned():
    text = report_tsv(census(_full_table(), reference_table(), 2))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "caf54d4c64a5c77bd0ea1121da8e28ea38d0d18452a8788425c9d81f4cc847d6")


def _calls(code, run) -> int:
    """How many times ``run()`` enters the function whose code is ``code``."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("make_table, max_summands, products", [
    (_full_table, 2, 120),     # 15 + 120 sums, one product per pair
    (unknown_fixture, 3, 1480),  # 120 pairs plus two products per triple
], ids=["synthetic-552", "unknown_11"])
def test_census_forms_each_pool_sum_once(make_table, max_summands, products):
    # one sweep for all unknown rows, not one per row (19 times as many)
    table = make_table()
    assert _calls(Factorization.__mul__.__code__,
                  lambda: census(table, reference_table(), max_summands)) == products


def _analysis_key(rec):
    """Every record value the analysis reads: all but name and crossings."""
    return (rec.alexander, rec.signature, rec.genus3, rec.genus4,
            rec.slice_status, rec.seifert, rec.concordant_to)


@pytest.mark.parametrize("candidates, digest", [
    (None, "606f0fffbe2b8862"), (reference_table(), "caf54d4c64a5c77b")],
    ids=["alone", "with-candidates"])
def test_census_analyzes_each_distinct_row_once(candidates, digest, monkeypatch):
    # the 552 rows hold 126 distinct analysis inputs, one of them slice;
    # the 125 others share 121 distinct polynomials, none with a Seifert
    # matrix, and each is split into its Fox-Milnor factors once
    table = _full_table()
    analyzed = collections.Counter()

    def analyze(rec, *args):
        analyzed[_analysis_key(rec)] += 1
        return bounds.analyze(rec, *args)

    monkeypatch.setattr(tabledata, "analyze", analyze)
    reports = []
    splits = _calls(foxmilnor.enhanced_required_factors.__code__,
                    lambda: reports.append(census(table, candidates)))
    assert set(analyzed) == {_analysis_key(rec) for rec in table.records}
    assert len(analyzed) == 126 and set(analyzed.values()) == {1}
    assert splits == 125
    text = report_tsv(reports[0])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    # each row gets the bounds and category of its own analysis
    genus_of = {rec.name: rec.genus3 for rec in reference_table().records}
    genus_of |= {rec.name: rec.genus3 for rec in table.records}
    for rec, row in zip(table.records, reports[0].rows):
        alone = bounds.analyze(rec, factor, genus_of)
        assert (row.name, row.bounds, row.category) == (rec.name, alone.bounds, alone.category)


@pytest.mark.parametrize("candidates, divisions", [
    (None, (248, 191)), (reference_table(), (248, 193))],
    ids=["alone", "with-candidates"])
def test_census_trial_divisions_are_sieved(candidates, divisions):
    # (successful, failed) trial divisions of known irreducibles in the
    # census's factorer: a divisor's values at 2 and 3 must divide the
    # dividend's, which skips all but about a third of the failures that
    # the value at 2 alone lets through (639 and 644)
    code = _intpoly.try_div.__code__
    done = collections.Counter()

    def profile(frame, event, arg):
        if (event == "return" and frame.f_code is code
                and frame.f_back.f_code.co_name == "factored"):
            done[arg is None] += 1

    table = _full_table()
    sys.setprofile(profile)
    try:
        census(table, candidates)
    finally:
        sys.setprofile(None)
    assert (done[False], done[True]) == divisions


class TestGenusLookup:
    def test_reference_unread_when_candidates_cover_every_target(self, monkeypatch):
        def unread():
            raise AssertionError("reference_table read")

        monkeypatch.setattr(tabledata, "reference_table", unread)
        report = census(concordant_fixture(), _load_bundled("knots_small.csv"))
        assert report.counts["concordant_lower_genus"] == 29

    def test_reference_fills_in_without_candidates(self):
        assert census(concordant_fixture()).counts["concordant_lower_genus"] == 29

    def test_candidate_genus_wins_over_the_reference(self):
        # a trefoil polynomial tabulated with genus 5 is no concordance
        # target of lower genus for the 11a_196 row that names 3_1
        rec = concordant_fixture().find("11a_196")
        assert rec.concordant_to == ("3_1",)
        big = KnotTable((KnotRecord(
            name="3_1", crossings=3, alexander=poly_from_text("1;-1;1"),
            signature=-2, genus3=5, genus4=(1, 5), slice_status="not_slice"),))
        assert census(KnotTable((rec,))).rows[0].category == "concordant_lower_genus"
        assert census(KnotTable((rec,)), big).rows[0].category == "unknown"
        # also when other rows' targets have the reference read underneath
        rows = census(concordant_fixture(), big).rows
        assert {r.name: r.category for r in rows}["11a_196"] == "unknown"
        # and the input table's own row wins over the candidate
        trefoil = reference_table().find("3_1")
        report = census(KnotTable((rec, trefoil)), big)
        assert report.rows[0].category == "concordant_lower_genus"
