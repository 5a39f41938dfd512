"""Slice obstruction and concordance-genus lower bounds from the knot
polynomial.

Writing the polynomial as g(t) f(t) f(1/t) with f of maximal degree, the
leftover g is carried by the polynomial of every concordant knot, so
deg(g)/2 bounds the concordance genus from below.  On the factor multiset
the maximal decomposition is mechanical: asymmetric irreducibles pair off
with their reciprocal partners, symmetric ones survive exactly when their
multiplicity is odd.  A nonzero jump of the signature function at a root
of a discarded even symmetric power forces that factor back in, squared,
which is how the bound sharpens past the plain decomposition.  Both
required factors stay factor multisets and are never multiplied out.
"""

from __future__ import annotations

from ._record import Record
from .errors import PolynomialError, ProfileError
from .laurent import Factorization, LaurentPoly, factor, reciprocal

# ``seifert`` is imported only where a profile is given
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .seifert import SignatureProfile


class RequiredFactors(Record):
    """What must divide the polynomial of every concordant knot, as
    factor multisets.

    ``residual`` holds the odd-multiplicity symmetric irreducibles, each
    once; ``enhanced`` additionally holds q**2 for each even symmetric q
    that a signature jump forces back in, and is ``residual`` itself when
    none is.  Both expand to symmetric polynomials of even degree, and
    residual | enhanced | the input factorization as multisets.
    """

    residual: Factorization
    enhanced: Factorization


def residual(fac: Factorization) -> Factorization:
    """The symmetric irreducible factors of odd multiplicity, each once.

    Reciprocal pairs and even symmetric powers belong to a maximal
    f(t) f(1/t) block and drop out; an asymmetric factor whose partner
    has a different multiplicity means the input was not palindromic.
    """
    mult = dict(fac.factors)
    kept = []
    for q, m in fac.factors:
        partner = reciprocal(q)
        if mult.get(partner) != m:
            raise PolynomialError("polynomial not palindromic")
        if m % 2 and partner == q:
            kept.append((q, 1))
    return Factorization(tuple(kept))


def slice_obstruction(delta: LaurentPoly) -> bool:
    """True when the polynomial passes the norm condition required of a
    slice knot (every symmetric factor of even multiplicity); False means
    the knot is provably not slice."""
    return not residual(factor(delta)).factors


def enhanced_required_factors(fac: Factorization,
                              profile: SignatureProfile | None = None) -> RequiredFactors:
    """Residual plus signature-jump enhancement.

    A symmetric irreducible q discarded with even multiplicity comes back
    as q**2 when the profile carries a jump of magnitude at least 2 at
    one of q's unit-circle roots, which q has exactly when its trace
    polynomial changes sign across the jump's rational bracket.  Every
    nonzero profile jump must sit at a root of some factor; anything else
    is an inconsistency between the profile and the factorization.
    """
    res = residual(fac)
    if profile is None:
        return RequiredFactors(res, res)
    from . import seifert

    owns = {q: seifert.roots_in_brackets(q, profile.jump_brackets) for q, _ in fac.factors}
    jumps = [b - a for a, b in zip(profile.values, profile.values[1:])]
    if any(jump and not any(o[i] for o in owns.values())
           for i, jump in enumerate(jumps)):
        raise ProfileError("inconsistent profile")
    forced = tuple((q, 2) for q, m in fac.factors if m % 2 == 0
                   and any(abs(jump) >= 2 and owns[q][i] for i, jump in enumerate(jumps)))
    return RequiredFactors(res, res * Factorization(forced) if forced else res)


def gc_poly_lower_bound(req: RequiredFactors) -> int:
    """Half the degree of the enhanced required factors (degree is even)."""
    return sum(q.degree * m for q, m in req.enhanced.factors) // 2
