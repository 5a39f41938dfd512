"""Concordance-genus bounds and census tools for knot-invariant tables.

The package computes everything a classical concordance-genus census
needs: exact factorization of integer Laurent polynomials, Seifert-matrix
invariants (knot polynomial, Murasugi and Levine-Tristram signatures with
jump analysis), the slice obstruction and its genus lower bound, a bound
combiner with provenance, and table ingestion with a census report and a
candidate-concordance matcher.
"""

from .bounds import (CATEGORIES, GcBounds, KnotRecord, classify, combine,
                     gc_bounds)
from .errors import KcgError
from .foxmilnor import (RequiredFactors, enhanced_required_factors,
                        gc_poly_lower_bound, residual, slice_obstruction)
from .laurent import (Factorization, LaurentPoly, canonicalize, eval_int,
                      factor, is_symmetric, mul, poly_from_text, reciprocal)
from .seifert import (SeifertMatrix, SignatureProfile, alexander,
                      murasugi_signature, signature_profile,
                      unit_circle_root_angles)
from .tabledata import (CandidateMatch, CensusReport, KnotTable, census,
                        match_candidates, parse_table, reference_table,
                        report_tsv, serialize)

__all__ = [
    "CATEGORIES", "CandidateMatch", "CensusReport", "Factorization",
    "GcBounds", "KcgError", "KnotRecord", "KnotTable", "LaurentPoly",
    "RequiredFactors", "SeifertMatrix", "SignatureProfile", "alexander",
    "canonicalize", "census", "classify", "combine",
    "enhanced_required_factors", "eval_int", "factor", "gc_bounds",
    "gc_poly_lower_bound", "is_symmetric", "match_candidates",
    "mul", "murasugi_signature", "parse_table", "poly_from_text",
    "reciprocal", "reference_table", "report_tsv",
    "residual", "serialize", "signature_profile", "slice_obstruction",
    "unit_circle_root_angles",
]

__version__ = "0.1.0"
