"""Bound combination and census classification."""

import math
from importlib import resources

import pytest

from kcg.bounds import (CATEGORY_CONCORDANT, CATEGORY_IRREDUCIBLE_POLY,
                        CATEGORY_NO_SYMMETRIC_PAIR, CATEGORY_SIGNATURE_OR_G4,
                        CATEGORY_SLICE, CATEGORY_UNKNOWN, DETERMINED,
                        UNDETERMINED, GcBounds, KnotRecord, classify, combine,
                        gc_bounds)
from kcg import seifert
from kcg.errors import RecordError
from kcg.laurent import mul, poly_from_text
from kcg.seifert import SeifertMatrix
from kcg.tabledata import parse_table, reference_table


def P(text):
    return poly_from_text(text)


def record(**kw):
    base = dict(name="k", crossings=11, alexander=P("1;-1;1"), signature=-2,
                genus3=1, genus4=(1, 1), slice_status="not_slice")
    base.update(kw)
    return KnotRecord(**base)


# expand((1-t+t^2)^2 (4-7t+4t^2)): degree six, signature-determined example
DELTA_SIX = mul(mul(P("1;-1;1"), P("1;-1;1")), P("4;-7;4"))


class TestKnotRecordValidation:
    def test_valid(self):
        record()

    def test_genus4_interval(self):
        with pytest.raises(RecordError, match="inconsistent knot record"):
            record(genus4=(2, 1), genus3=3)
        with pytest.raises(RecordError, match="inconsistent knot record"):
            record(genus4=(0, 4), genus3=3)

    def test_signature_vs_genus4(self):
        with pytest.raises(RecordError, match="inconsistent knot record"):
            record(signature=-4, genus4=(1, 1))

    def test_degree_vs_genus(self):
        with pytest.raises(RecordError, match="inconsistent knot record"):
            record(alexander=DELTA_SIX, genus3=2, genus4=(1, 2), signature=0)

    def test_not_a_knot_polynomial(self):
        with pytest.raises(RecordError, match="not a knot polynomial"):
            record(alexander=P("1;-2;1"))  # vanishes at t = 1

    def test_seifert_must_match(self):
        trefoil = SeifertMatrix(((-1, 1), (0, -1)))
        record(seifert=trefoil)  # matches 1-t+t^2
        with pytest.raises(RecordError, match="inconsistent knot record"):
            record(alexander=P("1;-3;1"), signature=0, seifert=trefoil)


class TestCombine:
    def test_partial_interval(self):
        b = combine(genus4_lo=1, signature=2, poly_bound=2, genus3=3)
        assert (b.lower, b.upper, b.status) == (2, 3, UNDETERMINED)
        assert b.contributors == (("polynomial", 2),)

    def test_trivial_lower(self):
        b = combine(genus4_lo=0, signature=0, poly_bound=0, genus3=3)
        assert (b.lower, b.upper, b.status) == (0, 3, UNDETERMINED)

    def test_determined(self):
        b = combine(genus4_lo=1, signature=0, poly_bound=3, genus3=3)
        assert (b.lower, b.upper, b.status) == (3, 3, DETERMINED)

    def test_slice(self):
        b = combine(0, 0, 0, 3, slice_status="slice")
        assert (b.lower, b.upper, b.status) == (0, 0, DETERMINED)
        assert b.contributors == (("slice", 0),)

    def test_tie_lists_every_source(self):
        b = combine(genus4_lo=2, signature=-4, poly_bound=2, genus3=3)
        assert b.contributors == (("genus4", 2), ("signature", 2),
                                  ("polynomial", 2))

    def test_jump_label(self):
        b = combine(1, 0, 2, 3, jump_enhanced=True)
        assert b.contributors == (("polynomial+jump", 2),)

    def test_signature_rounds_up(self):
        b = combine(0, -3, 0, 2)
        assert b.lower == 2 and b.contributors == (("signature", 2),)

    def test_overconstrained_rejected(self):
        with pytest.raises(RecordError):
            combine(genus4_lo=4, signature=0, poly_bound=0, genus3=3)


class TestGcBounds:
    def test_irreducible_degree_six(self):
        rec = record(name="deg6", alexander=P("2;-12;30;-39;30;-12;2"),
                     signature=0, genus3=3, genus4=(1, 3))
        b = gc_bounds(rec)
        assert (b.lower, b.upper, b.status) == (3, 3, DETERMINED)

    def test_slice_record(self):
        rec = record(slice_status="slice", signature=0, genus4=(0, 0),
                     alexander=P("2;-5;2"))
        assert gc_bounds(rec) == GcBounds(0, 0, (("slice", 0),), DETERMINED)

    def test_seifert_jump_feeds_the_bound(self):
        # two trefoil blocks: polynomial (1-t+t^2)^2 whose residual is
        # trivial, but the signature function jumps by 4 at pi/3, forcing
        # the square back in and giving the polynomial bound 2
        v = SeifertMatrix(((-1, 1, 0, 0), (0, -1, 0, 0),
                           (0, 0, -1, 1), (0, 0, 0, -1)))
        rec = record(name="granny", alexander=P("1;-2;3;-2;1"), signature=-4,
                     genus3=2, genus4=(2, 2), seifert=v)
        b = gc_bounds(rec)
        assert (b.lower, b.upper, b.status) == (2, 2, DETERMINED)
        assert ("polynomial+jump", 2) in b.contributors

    def test_without_matrix_no_jump_enhancement(self):
        rec = record(name="granny-flat", alexander=P("1;-2;3;-2;1"),
                     signature=-4, genus3=2, genus4=(2, 2))
        b = gc_bounds(rec)
        assert b.lower == 2
        assert all(src != "polynomial+jump" for src, _ in b.contributors)

    def test_deterministic(self):
        rec = record(name="rep", alexander=DELTA_SIX, signature=-6,
                     genus3=3, genus4=(3, 3))
        assert gc_bounds(rec) == gc_bounds(rec)

    def test_knot_polynomial_interpolated_once_per_matrix(self, monkeypatch):
        # validating the record and building its signature profile share
        # one det(V - t V^T)
        calls = []
        interpolate = seifert._interpolate_int
        monkeypatch.setattr(seifert, "_interpolate_int",
                            lambda points: calls.append(1) or interpolate(points))
        text = resources.files("kcg").joinpath("data", "knots_small.csv").read_text("utf-8")
        records = [r for r in parse_table(text).records if r.seifert is not None]
        for rec in records:
            gc_bounds(rec)
        assert len(records) == 8
        assert len(calls) == len(records)


class TestClassify:
    def test_irreducible_poly(self):
        rec = record(name="a1", alexander=P("2;-12;30;-39;30;-12;2"),
                     signature=0, genus3=3, genus4=(1, 3))
        assert classify(rec) == CATEGORY_IRREDUCIBLE_POLY

    def test_no_symmetric_pair(self):
        # (1-3t+t^2)(1-6t+9t^2-6t^3+t^4): reducible, every factor symmetric
        rec = record(name="a51", alexander=P("1;-9;28;-39;28;-9;1"),
                     signature=0, genus3=3, genus4=(1, 3))
        assert classify(rec) == CATEGORY_NO_SYMMETRIC_PAIR

    def test_signature_determined(self):
        rec = record(name="a43", alexander=DELTA_SIX, signature=-6,
                     genus3=3, genus4=(3, 3))
        assert classify(rec) == CATEGORY_SIGNATURE_OR_G4

    def test_slice(self):
        rec = record(slice_status="slice", signature=0, genus4=(0, 0),
                     alexander=P("2;-5;2"))
        assert classify(rec) == CATEGORY_SLICE

    def test_concordant_needs_lookup(self):
        rec = record(name="c", alexander=P("2;-7;9;-7;2"), signature=-2,
                     genus3=2, genus4=(1, 1), concordant_to=("3_1",))
        assert classify(rec) == CATEGORY_UNKNOWN
        assert classify(rec, {"3_1": 1}) == CATEGORY_CONCORDANT
        assert classify(rec, {"3_1": 2}) == CATEGORY_UNKNOWN  # not lower genus

    def test_unknown(self):
        rec = record(name="u", alexander=P("2;-7;9;-7;2"), signature=-2,
                     genus3=2, genus4=(1, 1))
        assert classify(rec) == CATEGORY_UNKNOWN

    def test_trivial_polynomial_is_not_irreducible(self):
        rec = record(name="n34", alexander=P("1"), signature=0,
                     genus3=3, genus4=(0, 1))
        assert classify(rec) == CATEGORY_UNKNOWN

    def test_polynomial_rules_need_no_profile(self):
        # the trefoil has a Seifert matrix and an irreducible polynomial of
        # full degree; the polynomial rule fires before the interval rule,
        # which its signature would satisfy too
        trefoil = reference_table().find("3_1")
        assert trefoil.seifert is not None
        assert gc_bounds(trefoil).status == DETERMINED
        assert classify(trefoil) == CATEGORY_IRREDUCIBLE_POLY


class TestInvariantsOverFixtures:
    def test_lower_bounds_and_upper(self):
        from kcg.tabledata import concordant_fixture, unknown_fixture
        for table in (concordant_fixture(), unknown_fixture()):
            for rec in table.records:
                b = gc_bounds(rec)
                assert b.lower >= math.ceil(abs(rec.signature) / 2)
                assert b.upper == rec.genus3
                assert (b.status == DETERMINED) == (b.lower == b.upper)
