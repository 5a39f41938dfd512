"""Bound combination and census classification."""

import math
import re
from importlib import resources

import pytest

from kcg.bounds import (CATEGORY_CONCORDANT, CATEGORY_IRREDUCIBLE_POLY,
                        CATEGORY_NO_SYMMETRIC_PAIR, CATEGORY_SIGNATURE_OR_G4,
                        CATEGORY_SLICE, CATEGORY_UNKNOWN, DETERMINED,
                        UNDETERMINED, GcBounds, KnotRecord, classify, combine,
                        gc_bounds, signature_bound)
from kcg import _matrix, seifert
from kcg.errors import RecordError
from kcg.laurent import mul, poly_from_text
from kcg.seifert import SeifertMatrix
from kcg.tabledata import parse_table, reference_table
from oracles import block_sum, mirror, torus_seifert


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

    @pytest.mark.parametrize("text", ["2;-1", "1;-1;0;1"])
    def test_polynomial_must_be_palindromic(self, text):
        # both are 1 at t = 1
        with pytest.raises(RecordError, match="^not a knot polynomial$"):
            record(alexander=P(text))

    @pytest.mark.parametrize("signature", [3, -1, 2 * 10**400 + 1], ids=["3", "-1", "huge"])
    def test_odd_signature(self, signature):
        # V + V^T has even size and odd determinant +-Delta(-1)
        genus = max(3, abs(signature))
        with pytest.raises(RecordError, match="^inconsistent knot record: odd signature$"):
            record(alexander=P("2;-13;32;-41;32;-13;2"), signature=signature,
                   genus3=genus, genus4=(0, genus))
        record(alexander=P("2;-13;32;-41;32;-13;2"), signature=signature + 1,
               genus3=genus, genus4=(0, genus))

    def test_signature_bound_is_exact_past_float_precision(self):
        # ceil((2**54 + 2) / 2) in floats is 2**53: the record would pass
        big = 2**53
        assert signature_bound(2 * big + 2) == big + 1
        assert signature_bound(-(10**400) - 1) == 10**400 // 2 + 1
        with pytest.raises(RecordError, match="exceeds the four-genus"):
            record(signature=2 * big + 2, genus3=big, genus4=(0, big))
        record(signature=2 * big, genus3=big, genus4=(0, big))

    @pytest.mark.parametrize("name", ["", " k", "k ", "#k", "k\tl", "k\nl",
                                      "k\rl", "k\0", "k\u00a0"])
    def test_bad_name(self, name):
        with pytest.raises(RecordError, match=f"^bad name: {re.escape(repr(name))}$"):
            record(name=name)
        with pytest.raises(RecordError, match=f"^bad name: {re.escape(repr(name))}$"):
            record(concordant_to=("3_1", name))

    def test_plus_is_refused_in_concordant_to_only(self):
        record(name="k+l", concordant_to=("T(2,3)#T(2,3)#-T(2,5)", "k #1"))
        with pytest.raises(RecordError, match=r"^bad name: '3_1\+4_1'$"):
            record(name="3_1+4_1", concordant_to=("3_1+4_1",))

    # a slice knot has signature 0 and four-genus 0; a four-genus of 0 is slice
    @pytest.mark.parametrize("fields, reason", [
        (dict(slice_status="slice", signature=-2, genus4=(0, 1)),
         "slice with nonzero signature or four-genus"),
        (dict(slice_status="slice", signature=0, genus4=(1, 1)),
         "slice with nonzero signature or four-genus"),
        (dict(slice_status="not_slice", signature=0, genus4=(0, 0)),
         "not slice with four-genus 0"),
    ], ids=["slice-signature", "slice-genus4", "not-slice-genus4-zero"])
    def test_contradictory_slice_status(self, fields, reason):
        with pytest.raises(RecordError, match=f"^inconsistent knot record: {reason}$"):
            record(**fields)
        record(**{**fields, "slice_status": "unknown"})

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
        # a slice record of genus 3 never reaches the combiner: [0, 0]
        rec = record(slice_status="slice", signature=0, genus4=(0, 0),
                     alexander=P("2;-5;2"), genus3=3)
        b = gc_bounds(rec)
        assert (b.lower, b.upper, b.status) == (0, 0, DETERMINED)
        assert b.contributors == (("slice", 0),)

    def test_tie_lists_every_source(self):
        b = combine(genus4_lo=2, signature=-4, poly_bound=2, genus3=3)
        assert b.contributors == (("genus4", 2), ("signature", 2),
                                  ("polynomial", 2))

    def test_jump_label(self):
        # T(2,3) # T(2,3) # -T(2,5): the residual Phi_10 gives 2, and the
        # signature function (0, -2, 2, 0) jumps by 4 at pi/3, a root of the
        # discarded (1-t+t^2)^2, which comes back in: the jump alone decides
        v = block_sum(torus_seifert(2, 3), torus_seifert(2, 3), mirror(torus_seifert(2, 5)))
        assert seifert.signature_profile(v).values == (0, -2, 2, 0)
        fields = dict(alexander=P("1;-3;6;-8;9;-8;6;-3;1"), signature=0, genus3=4,
                      genus4=(1, 4), slice_status="unknown")
        assert gc_bounds(record(**fields, seifert=v)) == GcBounds(
            4, 4, (("polynomial+jump", 4),))
        # without the matrix the residual's bound stands
        assert gc_bounds(record(**fields)) == GcBounds(2, 4, (("polynomial", 2),))

    def test_signature_rounds_up(self):
        b = combine(0, -3, 0, 2)
        assert b.lower == 2 and b.contributors == (("signature", 2),)

    def test_signature_bound_is_exact_past_float_precision(self):
        b = combine(0, 2**54 + 2, 0, 2**53 + 1)
        assert b.lower == 2**53 + 1 and b.contributors == (("signature", 2**53 + 1),)

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
        assert gc_bounds(rec) == GcBounds(0, 0, (("slice", 0),))
        assert gc_bounds(rec).status == DETERMINED

    def test_status_is_derived_from_the_interval(self):
        # no field can restate the interval: status is determined exactly
        # when lower equals upper, for any bounds that can be built
        assert GcBounds(2, 2, ()).status == DETERMINED
        assert GcBounds(1, 2, (("genus4", 1),)).status == UNDETERMINED
        with pytest.raises(TypeError):
            GcBounds(1, 2, (("genus4", 1),), status=DETERMINED)

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

    @pytest.mark.parametrize("signature", [0, 2])
    def test_matrix_signature_must_match(self, signature):
        # the trefoil matrix has Murasugi signature -2, which its profile ends on
        trefoil = SeifertMatrix(((-1, 1), (0, -1)))
        assert gc_bounds(record(seifert=trefoil)) == GcBounds(1, 1, (
            ("genus4", 1), ("signature", 1), ("polynomial", 1)))
        rec = record(signature=signature, seifert=trefoil)
        with pytest.raises(RecordError, match="^inconsistent knot record: "
                                              "matrix does not match the signature$"):
            gc_bounds(rec)

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
        # one set of determinants det(V - x V^T); validation interpolates
        # nothing and keeps the record's polynomial on its matrix, so no
        # record's matrix is interpolated; a bare matrix is, once.  The
        # kernels are patched in ``_matrix``, where the matrix record calls them
        dets, interpolations = [], []
        det, interpolate = _matrix._det_int, _matrix._interpolate_int
        monkeypatch.setattr(_matrix, "_det_int",
                            lambda rows: dets.append(1) or det(rows))
        monkeypatch.setattr(_matrix, "_interpolate_int",
                            lambda points: interpolations.append(1) or interpolate(points))
        text = resources.files("kcg").joinpath("data", "knots_small.csv").read_text("utf-8")
        records = [r for r in parse_table(text).records if r.seifert is not None]
        assert len(records) == 8
        # per matrix, det(V - V^T) in the constructor and size + 1 nodes
        determinants = sum(r.seifert.size + 2 for r in records)
        assert len(dets) == determinants
        assert interpolations == []
        for rec in records:
            gc_bounds(rec)
        assert len(dets) == determinants
        # the slice row is [0, 0] without a profile; the 7 others build one
        assert sum(r.slice_status != "slice" for r in records) == 7
        assert interpolations == []
        assert all(seifert.alexander(r.seifert) is r.alexander for r in records)
        bare = SeifertMatrix(records[-1].seifert.entries)
        assert seifert.alexander(bare) == seifert.alexander(bare) == records[-1].alexander
        assert len(interpolations) == 1


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
