"""Concordance-genus intervals from the classical lower bounds, plus the
census classification of how an interval was pinned down.

The signature enters through its absolute value throughout: genus bounds
cannot tell a knot from its mirror, so the sign convention of the input
tables never matters here.
"""

from __future__ import annotations

from . import foxmilnor, laurent
from ._record import Record
from .errors import RecordError
from .laurent import LaurentPoly

# ``seifert`` is imported only where a record's matrix is profiled, so a
# table whose matrices are only checked never loads it
TYPE_CHECKING = False
if TYPE_CHECKING:
    from ._matrix import SeifertMatrix

SLICE = "slice"
NOT_SLICE = "not_slice"
SLICE_UNKNOWN = "unknown"
SLICE_STATUSES = (SLICE, NOT_SLICE, SLICE_UNKNOWN)

DETERMINED = "determined"
UNDETERMINED = "undetermined"

CATEGORY_SLICE = "slice"
CATEGORY_IRREDUCIBLE_POLY = "determined_irreducible_poly"
CATEGORY_NO_SYMMETRIC_PAIR = "determined_poly_no_symmetric_pair"
CATEGORY_SIGNATURE_OR_G4 = "determined_signature_or_g4"
CATEGORY_CONCORDANT = "concordant_lower_genus"
CATEGORY_UNKNOWN = "unknown"
CATEGORIES = (CATEGORY_SLICE, CATEGORY_IRREDUCIBLE_POLY,
              CATEGORY_NO_SYMMETRIC_PAIR, CATEGORY_SIGNATURE_OR_G4,
              CATEGORY_CONCORDANT, CATEGORY_UNKNOWN)


# the CSV reader's default field size limit, which the table parser keeps
FIELD_LIMIT = 131072


def signature_bound(sigma: int) -> int:
    """The signature's four-genus lower bound ceil(|sigma|/2), exactly."""
    return (abs(sigma) + 1) // 2


class KnotRecord(Record):
    """One knot's tabulated invariants, checked here for every table row.

    ``name`` and each ``concordant_to`` entry (a summand of a knot the
    table asserts this one is concordant to) must be non-empty, printable
    (no TAB, CR or LF), without surrounding whitespace or a leading ``#``;
    an entry also holds no ``+``.  The name, and the entries joined with
    ``+``, are at most ``FIELD_LIMIT`` characters long.  So a name fits one
    CSV line, a field the CSV reader accepts, and a TSV cell.
    ``alexander`` must be a knot polynomial (palindromic, |Delta(1)| = 1),
    and the one of ``seifert`` when a matrix is given: checked by
    :meth:`SeifertMatrix.has_alexander`, which keeps it on the matrix.
    ``signature`` is even: V + V^T has even size and odd determinant +-Delta(-1).
    ``genus4`` is an interval [lo, hi]; when the table leaves it blank the
    parser fills in the always-valid default [signature_bound, genus3].
    """

    name: str
    crossings: int
    alexander: LaurentPoly
    signature: int
    genus3: int
    genus4: tuple[int, int]
    slice_status: str
    seifert: SeifertMatrix | None = None
    concordant_to: tuple[str, ...] = ()

    def __post_init__(self):
        for name in (self.name, *self.concordant_to):
            if (not name.isprintable() or name != name.strip() or name[:1] in ("", "#")
                    or ("+" in name and name in self.concordant_to)):
                raise RecordError(f"bad name: {name!r}")
        for field in (self.name, "+".join(self.concordant_to)):
            if len(field) > FIELD_LIMIT:
                raise RecordError(f"bad name: {field!r}")
        coeffs = self.alexander.coeffs
        if coeffs != coeffs[::-1] or abs(sum(coeffs)) != 1:
            raise RecordError("not a knot polynomial")
        if self.slice_status not in SLICE_STATUSES:
            raise RecordError(f"bad slice status: {self.slice_status!r}")
        lo, hi = self.genus4
        if not (0 <= lo <= hi <= self.genus3):
            raise RecordError(
                f"inconsistent knot record: four-genus interval [{lo},{hi}] "
                f"vs genus {self.genus3}")
        if signature_bound(self.signature) > hi:
            raise RecordError(
                "inconsistent knot record: |signature|/2 exceeds the four-genus")
        if self.alexander.degree > 2 * self.genus3:
            raise RecordError(
                "inconsistent knot record: polynomial degree exceeds twice the genus")
        if self.seifert is not None and not self.seifert.has_alexander(self.alexander):
            raise RecordError(
                "inconsistent knot record: Seifert matrix does not match the polynomial")
        if self.signature % 2:
            raise RecordError("inconsistent knot record: odd signature")
        if self.slice_status == SLICE and (self.signature or lo):
            raise RecordError(
                "inconsistent knot record: slice with nonzero signature or four-genus")
        if self.slice_status == NOT_SLICE and hi == 0:
            raise RecordError("inconsistent knot record: not slice with four-genus 0")


class GcBounds(Record):
    """Concordance-genus interval with contributor provenance.

    ``contributors`` lists the lower-bound rows (source, value) that reach
    the lower bound, in row order: genus4, signature, polynomial or
    polynomial+jump; or slice alone.  ``status`` is derived: determined
    exactly when lower equals upper.
    """

    lower: int
    upper: int
    contributors: tuple[tuple[str, int], ...]

    @property
    def status(self) -> str:
        return DETERMINED if self.lower == self.upper else UNDETERMINED

    def contributors_text(self) -> str:
        """The contributors as ``source=value``, comma-joined."""
        return ",".join(f"{src}={val}" for src, val in self.contributors)


def _reduce(rows: tuple[tuple[str, int], ...], upper: int) -> GcBounds:
    """The interval of the (source, value) lower-bound rows under ``upper``:
    the largest value, with the rows that reach it as contributors."""
    lower = max(value for _, value in rows)
    if lower > upper:
        raise RecordError("inconsistent knot record: lower bound exceeds the genus")
    return GcBounds(lower, upper, tuple(row for row in rows if row[1] == lower))


def combine(genus4_lo: int, signature: int, poly_bound: int, genus3: int) -> GcBounds:
    """The interval of the rows genus4_lo, signature_bound(signature) and
    poly_bound (as polynomial) under genus3, reduced as :func:`analyze` does:
    this pure combiner trusts its numbers, so it replays tabulated columns."""
    return _reduce((("genus4", genus4_lo), ("signature", signature_bound(signature)),
                    ("polynomial", poly_bound)), genus3)


class Analysis(Record):
    required: foxmilnor.RequiredFactors | None  # None for slice records
    bounds: GcBounds
    category: str


def analyze(k: KnotRecord, factor, genus_of=None) -> Analysis:
    """Interval and category of ``k``, both read from one tuple of the
    lower-bound rows :class:`GcBounds` names, computing the profile and
    residual once.  A slice record is (slice, 0) under 0 unfactored; any
    other polynomial goes to ``factor``, e.g. ``laurent.factor`` or a shared
    ``laurent.factorer()``, and a matrix must have the record's signature."""
    if k.slice_status == SLICE:
        req, rows, upper = None, ((SLICE, 0),), 0
    else:
        profile = None
        if k.seifert is not None:
            from . import seifert

            profile = seifert.signature_profile(k.seifert)
            if profile.endpoint_value_at_pi != k.signature:
                raise RecordError("inconsistent knot record: matrix does not match the signature")
        req = foxmilnor.enhanced_required_factors(factor(k.alexander), profile)
        source = "polynomial" if req.enhanced == req.residual else "polynomial+jump"
        rows, upper = (("genus4", k.genus4[0]), ("signature", signature_bound(k.signature)),
                       (source, foxmilnor.gc_poly_lower_bound(req))), k.genus3
    bounds = _reduce(rows, upper)
    return Analysis(req, bounds, _category(k, req, rows, bounds, genus_of))


def _category(k: KnotRecord, req, rows, bounds: GcBounds, genus_of) -> str:
    """The first census rule the rows meet.  The residual divides Delta, of
    degree at most 2 genus3, and a jump enhances only even powers, so a plain
    polynomial row reaches a positive genus3 exactly when it is all of Delta."""
    if rows[0][0] == SLICE:
        return CATEGORY_SLICE
    if k.genus3 and ("polynomial", k.genus3) in rows:
        return CATEGORY_IRREDUCIBLE_POLY if req.residual.irreducible else CATEGORY_NO_SYMMETRIC_PAIR
    if bounds.status == DETERMINED:
        return CATEGORY_SIGNATURE_OR_G4
    known = genus_of is not None and all(n in genus_of for n in k.concordant_to)
    if k.concordant_to and known and sum(genus_of[n] for n in k.concordant_to) < k.genus3:
        return CATEGORY_CONCORDANT
    return CATEGORY_UNKNOWN


def gc_bounds(k: KnotRecord) -> GcBounds:
    """Concordance-genus interval for a knot record.

    Slice knots get [0, 0].  Otherwise the lower bound is the best of the
    four-genus, half the signature, and the polynomial bound (enhanced by
    signature jumps when a Seifert matrix is available); the upper bound
    is the genus.
    """
    return analyze(k, laurent.factor).bounds


def classify(k: KnotRecord, genus_of=None) -> str:
    """Census category for a knot record.

    The rules fire in a fixed order, which makes the categories mutually
    exclusive: slice, irreducible polynomial of maximal degree, reducible
    polynomial with no norm factor, interval determined some other way
    (signature or four-genus), tabulated concordance to a knot of lower
    total genus, and finally unknown.  ``genus_of`` maps knot names to
    their genus and is only consulted for the concordance rule.
    """
    return analyze(k, laurent.factor, genus_of).category
