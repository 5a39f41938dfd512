"""Concordance-genus intervals from the classical lower bounds, plus the
census classification of how an interval was pinned down.

The signature enters through its absolute value throughout: genus bounds
cannot tell a knot from its mirror, so the sign convention of the input
tables never matters here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import foxmilnor, laurent, seifert
from .errors import RecordError
from .laurent import LaurentPoly
from .seifert import SeifertMatrix

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


@dataclass(frozen=True)
class KnotRecord:
    """One knot's tabulated invariants.

    ``genus4`` is an interval [lo, hi]; when the table leaves it blank the
    parser fills in the always-valid default [ceil(|sigma|/2), genus3].
    ``concordant_to`` names the summands of a knot the table asserts this
    one is concordant to ("3_1", "4_1") or is empty.
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
        lo, hi = self.genus4
        if self.slice_status not in SLICE_STATUSES:
            raise RecordError(
                f"inconsistent knot record: bad slice status {self.slice_status!r}")
        if not (0 <= lo <= hi <= self.genus3):
            raise RecordError(
                f"inconsistent knot record: four-genus interval [{lo},{hi}] "
                f"vs genus {self.genus3}")
        if math.ceil(abs(self.signature) / 2) > hi:
            raise RecordError(
                "inconsistent knot record: |signature|/2 exceeds the four-genus")
        if self.alexander.degree > 2 * self.genus3:
            raise RecordError(
                "inconsistent knot record: polynomial degree exceeds twice the genus")
        if abs(laurent.eval_int(self.alexander, 1)) != 1:
            raise RecordError("inconsistent knot record: not a knot polynomial")
        if self.seifert is not None and seifert.alexander(self.seifert) != self.alexander:
            raise RecordError(
                "inconsistent knot record: Seifert matrix does not match the polynomial")


@dataclass(frozen=True)
class GcBounds:
    """Concordance-genus interval with contributor provenance.

    ``contributors`` lists every bound source that achieved the lower
    bound, in the fixed order genus4, signature, polynomial; ``status``
    is determined exactly when lower equals upper.
    """

    lower: int
    upper: int
    contributors: tuple[tuple[str, int], ...]
    status: str


def combine(genus4_lo: int, signature: int, poly_bound: int, genus3: int,
            slice_status: str = NOT_SLICE, jump_enhanced: bool = False) -> GcBounds:
    """Merge the individual lower bounds into an interval.

    This is the pure combiner: it trusts the numbers it is handed, so it
    can replay tabulated bound columns as well as freshly computed ones.
    """
    if slice_status == SLICE:
        return GcBounds(0, 0, (("slice", 0),), DETERMINED)
    sig_bound = math.ceil(abs(signature) / 2)
    lower = max(genus4_lo, sig_bound, poly_bound)
    if lower > genus3:
        raise RecordError("inconsistent knot record: lower bound exceeds the genus")
    contributors: list[tuple[str, int]] = []
    if genus4_lo == lower:
        contributors.append(("genus4", genus4_lo))
    if sig_bound == lower:
        contributors.append(("signature", sig_bound))
    if poly_bound == lower:
        source = "polynomial+jump" if jump_enhanced else "polynomial"
        contributors.append((source, poly_bound))
    status = DETERMINED if lower == genus3 else UNDETERMINED
    return GcBounds(lower, genus3, tuple(contributors), status)


@dataclass(frozen=True)
class Analysis:
    required: foxmilnor.RequiredFactors | None  # None for slice records
    bounds: GcBounds
    category: str


def analyze(k: KnotRecord, fac: laurent.Factorization | None,
            genus_of=None) -> Analysis:
    """Interval and category of ``k`` from ``fac``, its factorization (None
    is fine for slice records), computing the profile and residual once."""
    if k.slice_status == SLICE:
        return Analysis(None, combine(0, 0, 0, k.genus3, SLICE), CATEGORY_SLICE)
    profile = seifert.signature_profile(k.seifert) if k.seifert is not None else None
    req = foxmilnor.enhanced_required_factors(fac, profile)
    bounds = combine(k.genus4[0], k.signature, foxmilnor.gc_poly_lower_bound(req),
                     k.genus3, jump_enhanced=req.enhanced != req.residual)
    return Analysis(req, bounds, _polynomial_category(k, fac, req.residual)
                    or _interval_category(k, bounds, genus_of))


def _polynomial_category(k: KnotRecord, fac, residual: LaurentPoly) -> str | None:
    if k.alexander.degree // 2 == k.genus3:
        if fac.irreducible:
            return CATEGORY_IRREDUCIBLE_POLY
        if sum(m for _, m in fac.factors) >= 2 and residual == k.alexander:
            return CATEGORY_NO_SYMMETRIC_PAIR
    return None


def _interval_category(k: KnotRecord, bounds: GcBounds, genus_of) -> str:
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
    fac = None if k.slice_status == SLICE else laurent.factor(k.alexander)
    return analyze(k, fac).bounds


def classify(k: KnotRecord, genus_of=None) -> str:
    """Census category for a knot record.

    The rules fire in a fixed order, which makes the categories mutually
    exclusive: slice, irreducible polynomial of maximal degree, reducible
    polynomial with no norm factor, interval determined some other way
    (signature or four-genus), tabulated concordance to a knot of lower
    total genus, and finally unknown.  ``genus_of`` maps knot names to
    their genus and is only consulted for the concordance rule.
    """
    fac = None if k.slice_status == SLICE else laurent.factor(k.alexander)
    return analyze(k, fac, genus_of).category
