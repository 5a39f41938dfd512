"""Slice obstruction and concordance-genus lower bounds from the knot
polynomial.

Writing the polynomial as g(t) f(t) f(1/t) with f of maximal degree, the
leftover g is carried by the polynomial of every concordant knot, so
deg(g)/2 bounds the concordance genus from below.  On the factor multiset
the maximal decomposition is mechanical: asymmetric irreducibles pair off
with their reciprocal partners, symmetric ones survive exactly when their
multiplicity is odd.  A nonzero jump of the signature function at a root
of a discarded even symmetric power forces that factor back in, squared,
which is how the bound sharpens past the plain decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PolynomialError, ProfileError
from .laurent import ONE, Factorization, LaurentPoly, factor, is_symmetric, mul, reciprocal
from .seifert import SignatureProfile, roots_in_brackets

ODD_SYMMETRIC = "odd-multiplicity-symmetric"
SIGNATURE_JUMP = "signature-jump"


@dataclass(frozen=True)
class RequiredFactors:
    """What must divide the polynomial of every concordant knot.

    ``residual`` is the odd-multiplicity symmetric part; ``enhanced``
    additionally carries squared symmetric factors forced back in by
    signature jumps.  Both are symmetric and of even degree, and
    residual | enhanced | the input polynomial as factor multisets.
    """

    residual: LaurentPoly
    enhanced: LaurentPoly
    contributors: tuple[tuple[LaurentPoly, str], ...]


def residual(fac: Factorization) -> LaurentPoly:
    """Product of the symmetric irreducible factors taken mod-2.

    Reciprocal pairs and even symmetric powers belong to a maximal
    f(t) f(1/t) block and drop out; an asymmetric factor whose partner
    has a different multiplicity means the input was not palindromic.
    """
    mult = {q: m for q, m in fac.factors}
    out = ONE
    done: set[LaurentPoly] = set()
    for q, m in fac.factors:
        if q in done:
            continue
        partner = reciprocal(q)
        if partner == q:
            if m % 2:
                out = mul(out, q)
            done.add(q)
        else:
            if mult.get(partner) != m:
                raise PolynomialError("polynomial not palindromic")
            done.add(q)
            done.add(partner)
    return out


def slice_obstruction(delta: LaurentPoly) -> bool:
    """True when the polynomial passes the norm condition required of a
    slice knot (every symmetric factor of even multiplicity); False means
    the knot is provably not slice."""
    return residual(factor(delta)) == ONE


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
    contributors = [(q, ODD_SYMMETRIC) for q, m in fac.factors
                    if m % 2 and is_symmetric(q)]
    enhanced = res
    if profile is not None:
        owns = {q: roots_in_brackets(q, profile.jump_brackets) for q, _ in fac.factors}
        jumps = [b - a for a, b in zip(profile.values, profile.values[1:])]
        if any(jump and not any(o[i] for o in owns.values())
               for i, jump in enumerate(jumps)):
            raise ProfileError("inconsistent profile")
        for q, m in fac.factors:
            if m and m % 2 == 0 and is_symmetric(q):
                if any(abs(jump) >= 2 and owns[q][i] for i, jump in enumerate(jumps)):
                    enhanced = mul(enhanced, mul(q, q))
                    contributors.append((q, SIGNATURE_JUMP))
    return RequiredFactors(residual=res, enhanced=enhanced,
                           contributors=tuple(contributors))


def gc_poly_lower_bound(req: RequiredFactors) -> int:
    """Half the degree of the enhanced required factor (degree is even)."""
    return req.enhanced.degree // 2
