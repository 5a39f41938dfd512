"""Concordance-genus bounds and census tools for knot-invariant tables.

The package computes everything a classical concordance-genus census
needs: exact factorization of integer Laurent polynomials, Seifert-matrix
invariants (knot polynomial, Murasugi and Levine-Tristram signatures with
jump analysis), the slice obstruction and its genus lower bound, a bound
combiner with provenance, and table ingestion with a census report and a
candidate-concordance matcher.

``import kcg`` loads only ``errors`` and ``laurent``, which every ``kcg``
command needs.  Every other public name, and each of the layers
``bounds``, ``foxmilnor``, ``seifert`` and ``tabledata``, is loaded on
first access (PEP 562), so a short process compiles only the layers it
runs (``SeifertMatrix`` from ``_matrix``, without the signature code).
"""

from .errors import KcgError
from .laurent import (Factorization, LaurentPoly, canonicalize, eval_int,
                      factor, is_symmetric, mul, poly_from_text, reciprocal)

# each name loaded on first access -> the layer that defines it
_LAZY = {name: layer for layer, names in (
    ("bounds", ("CATEGORIES", "GcBounds", "KnotRecord", "classify", "combine",
                "gc_bounds")),
    ("foxmilnor", ("RequiredFactors", "enhanced_required_factors",
                   "gc_poly_lower_bound", "residual", "slice_obstruction")),
    ("_matrix", ("SeifertMatrix",)),
    ("seifert", ("SignatureProfile", "alexander", "murasugi_signature",
                 "signature_profile", "unit_circle_root_angles")),
    ("tabledata", ("CandidateMatch", "CensusReport", "KnotTable", "census",
                   "match_candidates", "parse_table", "reference_table",
                   "report_tsv", "serialize")),
) for name in names}
_LAYERS = frozenset(_LAZY.values())

# the eager names are those the imports above bind, less the submodules
# they bind as a side effect
__all__ = sorted([*(name for name, value in globals().items()
                    if not name.startswith("_") and not isinstance(value, type(errors))),
                  *_LAZY])

__version__ = "0.1.0"


def __getattr__(name):
    """Load a layer, or the layer behind a lazy name, on first access; the
    name then stays bound here."""
    layer = name if name in _LAYERS else _LAZY.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # an import statement's import, unlike importlib.import_module, gets its
    # line in ``python -X importtime``; it binds the layer here
    __import__(f"{__name__}.{layer}")
    module = globals()[layer]
    if layer == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value
