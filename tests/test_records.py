"""Value semantics of every record type: equality and hash by class and
fields, refused assignment, positional and keyword construction with
defaults, validation on every construction path, and copy and pickle
round trips."""

import copy
import pickle
from fractions import Fraction

import pytest

from kcg import (CandidateMatch, CensusReport, Factorization, GcBounds,
                 KnotRecord, KnotTable, LaurentPoly, RequiredFactors,
                 SeifertMatrix, SignatureProfile, alexander, poly_from_text)
from kcg.bounds import Analysis
from kcg.errors import PolynomialError, ProfileError, RecordError, SeifertError
from kcg.tabledata import CensusRow, RejectedRow

TREFOIL = poly_from_text("1;-1;1")
FIG8 = poly_from_text("1;-3;1")
V_TREFOIL = SeifertMatrix(((-1, 1), (0, -1)))
F_TREFOIL = Factorization(((TREFOIL, 1),))
F_FIG8 = Factorization(((FIG8, 1),))
BOUNDS = GcBounds(1, 1, (("signature", 1),))
TREFOIL_RECORD = ("3_1", 3, TREFOIL, -2, 1, (1, 1), "not_slice", V_TREFOIL, ())
FIG8_RECORD = ("4_1", 4, FIG8, 0, 1, (1, 1), "not_slice", None, ("4_1",))

# per type: field names in order, then the field values of two unequal
# instances
RECORDS = {
    LaurentPoly: (("coeffs",), ((1, -1, 1),), ((1, -3, 1),)),
    Factorization: (("factors",), (((TREFOIL, 1),),), (((TREFOIL, 2),),)),
    SeifertMatrix: (("entries",), (((-1, 1), (0, -1)),), (((1, 1), (0, 1)),)),
    SignatureProfile: (("values", "jump_brackets"), ((0,), ()),
                       ((0, -2), ((Fraction(0), Fraction(1, 2)),))),
    RequiredFactors: (("residual", "enhanced"), (F_TREFOIL, F_TREFOIL),
                      (F_FIG8, F_FIG8)),
    KnotRecord: (("name", "crossings", "alexander", "signature", "genus3",
                  "genus4", "slice_status", "seifert", "concordant_to"),
                 TREFOIL_RECORD, FIG8_RECORD),
    GcBounds: (("lower", "upper", "contributors"),
               (1, 1, (("signature", 1),)),
               (0, 1, (("genus4", 0),))),
    KnotTable: (("records", "source_path", "rejected"),
                ((KnotRecord(*TREFOIL_RECORD),), "<stream>", ()),
                ((), "t.csv", (RejectedRow(2, "empty name"),))),
    CandidateMatch: (("expression", "combined_alexander", "combined_genus3",
                      "combined_crossings"),
                     ("3_1", TREFOIL, 1, 3), ("4_1", FIG8, 1, 4)),
    CensusReport: (("rows",), ((),),
                   ((CensusRow("3_1", BOUNDS, "determined_irreducible_poly", ()),),)),
    CensusRow: (("name", "bounds", "category", "candidates"),
                ("3_1", BOUNDS, "determined_irreducible_poly", ()),
                ("3_1", BOUNDS, "unknown", ("4_1",))),
    RejectedRow: (("line", "reason"), (2, "empty name"), (3, "empty name")),
    Analysis: (("required", "bounds", "category"),
               (None, BOUNDS, "slice"),
               (RequiredFactors(F_TREFOIL, F_TREFOIL), BOUNDS,
                "determined_irreducible_poly")),
}

TYPES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@TYPES
def test_equality_by_class_and_fields(cls):
    _, a, b = RECORDS[cls]
    assert cls(*a) == cls(*a)
    assert not cls(*a) != cls(*a)
    assert cls(*a) != cls(*b)
    assert cls(*a) != a
    assert cls(*a) != object()


def test_records_of_different_classes_never_compare_equal():
    assert RejectedRow(F_TREFOIL, F_TREFOIL) != RequiredFactors(F_TREFOIL, F_TREFOIL)
    assert RequiredFactors(F_TREFOIL, F_TREFOIL) != RejectedRow(F_TREFOIL, F_TREFOIL)


@TYPES
def test_hash_is_the_hash_of_the_field_tuple(cls):
    _, a, b = RECORDS[cls]
    assert _hash_or_error(cls(*a)) == _hash_or_error(a)
    assert _hash_or_error(cls(*b)) == _hash_or_error(b)


@TYPES
def test_assignment_and_deletion_raise(cls):
    names, a, b = RECORDS[cls]
    rec = cls(*a)
    with pytest.raises(AttributeError):
        setattr(rec, names[0], b[0])
    with pytest.raises(AttributeError):
        rec.extra = 1
    with pytest.raises(AttributeError):
        delattr(rec, names[0])
    assert getattr(rec, names[0]) == a[0]


@TYPES
def test_positional_and_keyword_construction(cls):
    names, a, _ = RECORDS[cls]
    rec = cls(**dict(zip(names, a)))
    assert rec == cls(*a)
    assert tuple(getattr(rec, name) for name in names) == a
    with pytest.raises(TypeError):
        cls(*a, a[-1])
    with pytest.raises(TypeError):
        cls(*a, no_such_field=1)
    with pytest.raises(TypeError):
        cls()


@TYPES
def test_deepcopy_and_pickle_round_trip(cls):
    _, a, b = RECORDS[cls]
    for rec in (cls(*a), cls(*b)):
        for twin in (copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(twin) is cls
            assert twin == rec
            assert _hash_or_error(twin) == _hash_or_error(rec)


def test_defaults_fill_trailing_fields():
    assert KnotRecord(*TREFOIL_RECORD[:7]) == KnotRecord(*TREFOIL_RECORD[:7], None, ())
    assert KnotTable(()) == KnotTable((), "<stream>", ())
    assert KnotTable((), rejected=()).source_path == "<stream>"


def test_cached_polynomial_survives_a_round_trip():
    matrix = SeifertMatrix(((-1, 1), (0, -1)))
    assert alexander(matrix) == TREFOIL
    assert pickle.loads(pickle.dumps(matrix)) == matrix
    assert alexander(copy.deepcopy(matrix)) == TREFOIL
    # a polynomial that has_alexander confirmed is kept the same way
    kept = SeifertMatrix(((-1, 1), (0, -1)))
    assert kept.has_alexander(TREFOIL) and vars(kept)["_alexander"] is TREFOIL
    assert kept == V_TREFOIL and hash(kept) == hash(V_TREFOIL)
    assert pickle.loads(pickle.dumps(kept)) == kept


@pytest.mark.parametrize("build, error, message", [
    (lambda: LaurentPoly(()), PolynomialError, "zero polynomial has no canonical form"),
    (lambda: LaurentPoly(coeffs=(0, 1)), PolynomialError, r"not in canonical form: \(0, 1\)"),
    (lambda: LaurentPoly((1, 0)), PolynomialError, "not in canonical form"),
    (lambda: SeifertMatrix(((1,),)), SeifertError, "not a knot Seifert matrix"),
    (lambda: SeifertMatrix(entries=((1, 2),)), SeifertError, "not a knot Seifert matrix"),
    (lambda: SignatureProfile((0, 2), ()), ProfileError,
     "one more value than jump brackets expected"),
    (lambda: KnotRecord(*TREFOIL_RECORD[:6], "maybe"), RecordError,
     "bad slice status: 'maybe'"),
    (lambda: KnotRecord(*TREFOIL_RECORD[:5], genus4=(1, 2),
                        slice_status="not_slice"),
     RecordError, r"four-genus interval \[1,2\] vs genus 1"),
    (lambda: KnotRecord(*TREFOIL_RECORD[:3], 4, 1, (1, 1), "not_slice"),
     RecordError, "signature"),
    (lambda: KnotRecord(*FIG8_RECORD[:7], seifert=V_TREFOIL), RecordError,
     "Seifert matrix does not match the polynomial"),
])
def test_validation_messages(build, error, message):
    with pytest.raises(error, match=message):
        build()
