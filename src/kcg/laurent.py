"""Integer Laurent polynomials in canonical form, with factorization into
irreducibles of positive degree over the integers.

Knot polynomials are only defined up to a unit +-t^k, so equality has to
be read modulo that freedom.  The canonical representative fixes it once
and for all: exponents start at zero, the constant coefficient
is nonzero and strictly positive, and the top coefficient is nonzero.
Unit equivalence then becomes literal equality of values, and the
canonical form is closed under multiplication (the constant term of a
product is the product of the constant terms).
"""

from __future__ import annotations

from . import _intpoly
from ._record import Record
from .errors import PolynomialError


class LaurentPoly(Record):
    """Canonical integer Laurent polynomial.

    ``coeffs`` lists coefficients from exponent 0 up.  Construct via
    :func:`canonicalize` unless the input is already known to be
    canonical.
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: tuple[int, ...]):
        if not coeffs:
            raise PolynomialError("zero polynomial has no canonical form")
        if coeffs[0] <= 0 or coeffs[-1] == 0:
            raise PolynomialError(f"not in canonical form: {coeffs!r}")
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        return self.coeffs == other.coeffs if other.__class__ is LaurentPoly else NotImplemented

    def __hash__(self):
        return hash((self.coeffs,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_text(self) -> str:
        """The semicolon encoding; a coefficient past the interpreter's
        integer string limit (4300 digits by default) is refused."""
        try:
            return ";".join(str(c) for c in self.coeffs)
        except ValueError as exc:
            raise PolynomialError("coefficient too long to write as text") from exc

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()!r})"

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return mul(self, other)


ONE = LaurentPoly((1,))


def canonicalize(raw_coeffs) -> LaurentPoly:
    """Unique representative of a Laurent polynomial modulo units +-t^k.

    Leading and trailing zero coefficients are stripped (absorbing any
    power of t), and the sign is fixed so the constant term is positive.
    Idempotent on canonical input.
    """
    cs = list(raw_coeffs)
    lo = 0
    while lo < len(cs) and cs[lo] == 0:
        lo += 1
    hi = len(cs)
    while hi > lo and cs[hi - 1] == 0:
        hi -= 1
    cs = cs[lo:hi]
    if not cs:
        raise PolynomialError("zero polynomial has no canonical form")
    if cs[0] < 0:
        cs = [-c for c in cs]
    return LaurentPoly(tuple(cs))


def poly_from_text(text: str) -> LaurentPoly:
    """Parse the semicolon encoding, e.g. ``2;-12;30;-39;30;-12;2``."""
    parts = [p.strip() for p in text.split(";")]
    try:
        coeffs = [int(p) for p in parts]
    except ValueError as exc:
        raise PolynomialError(f"bad polynomial encoding: {text!r}") from exc
    return canonicalize(coeffs)


def mul(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Product of canonical polynomials; canonical by construction."""
    return LaurentPoly(tuple(_intpoly.mul(list(p.coeffs), list(q.coeffs))))


def reciprocal(p: LaurentPoly) -> LaurentPoly:
    """Canonical form of p(1/t): reverse the coefficients, fix the sign."""
    return canonicalize(list(reversed(p.coeffs)))


def is_symmetric(p: LaurentPoly) -> bool:
    """Whether p equals p(1/t) up to a unit."""
    return reciprocal(p) == p


def eval_int(p: LaurentPoly, x: int) -> int:
    """Exact value of the polynomial part at an integer point."""
    return _intpoly.eval_at(list(p.coeffs), x)


class Factorization(Record):
    """Irreducible canonical factors of positive degree, times the content
    (one degree-0 factor, absent when 1), with multiplicities.

    ``prod(factor**mult)`` reproduces the factored polynomial exactly:
    with the positive-constant canonical form no unit is left over.
    Factors are sorted by (degree, coefficients).
    """

    __slots__ = ("factors",)
    factors: tuple[tuple[LaurentPoly, int], ...]

    def __init__(self, factors: tuple[tuple[LaurentPoly, int], ...]):
        object.__setattr__(self, "factors", factors)

    def __eq__(self, other):
        return self.factors == other.factors if other.__class__ is Factorization else NotImplemented

    def __hash__(self):
        return hash((self.factors,))

    def expand(self) -> LaurentPoly:
        out = ONE
        for q, m in self.factors:
            for _ in range(m):
                out = mul(out, q)
        return out

    def multiplicity(self, q: LaurentPoly) -> int:
        for fac, m in self.factors:
            if fac == q:
                return m
        return 0

    def divides(self, other: "Factorization") -> bool:
        """Multiset inclusion of this factorization in ``other``."""
        return all(other.multiplicity(q) >= m for q, m in self.factors)

    @property
    def irreducible(self) -> bool:
        return (len(self.factors) == 1 and self.factors[0][1] == 1
                and self.factors[0][0].degree >= 1)

    def __mul__(self, other: "Factorization") -> "Factorization":
        merged: dict[LaurentPoly, int] = {}
        for q, m in self.factors + other.factors:
            merged[q] = merged.get(q, 0) + m
        return Factorization(_sorted_factors(merged))


def _sorted_factors(table: dict[LaurentPoly, int]):
    """By (degree, coefficients): the one order, so every artifact is byte reproducible."""
    return tuple(sorted(table.items(), key=lambda item: (item[0].degree, item[0].coeffs)))


def factor(p: LaurentPoly) -> Factorization:
    """Irreducible factors of positive degree over the integers, and the content.

    The content c is emitted whole, as the factor ``(c)`` when c != 1 (a
    knot polynomial, with |Delta(1)| = 1, has none), so expanding the
    result reproduces the input exactly.  A palindromic primitive part
    that vanishes at neither 1 nor -1, as every knot polynomial's, is
    factored at half its degree through its trace polynomial (see
    :mod:`kcg._intpoly`).  An input whose factored degree passes
    ``_intpoly.FACTOR_DEGREE_CAP`` (the trace polynomial's degree on that
    route), or whose recombination needs too many trials, is refused with
    :class:`PolynomialError`.
    """
    cont, prim = _intpoly.primitive(list(p.coeffs))
    table: dict[LaurentPoly, int] = {LaurentPoly((cont,)): 1} if cont != 1 else {}
    if _intpoly.degree(prim) >= 1:
        if prim[-1] < 0:
            prim = _intpoly.neg(prim)
        for raw, m in _intpoly.factor_primitive(prim):
            fac = canonicalize(raw)
            table[fac] = table.get(fac, 0) + m
    result = Factorization(_sorted_factors(table))
    if result.expand() != p:
        raise AssertionError("factorization failed to reproduce the input")
    return result


def factorer():
    """A memoized :func:`factor` for one batch of related inputs (a census
    table and its candidate pool), meant to be dropped with the batch.

    Each distinct input is factored once.  Before :func:`factor` sees an
    input, every irreducible found so far in the batch, and the reciprocal
    of each, is divided out of it as often as it divides exactly (q | p
    in Z[t] gives q(a) | p(a), so a divisor's values at 2 and 3 must
    divide the input's, which skips most trials, and the quotient's values
    are p(a)/q(a) unless q(a) = 0); only a cofactor other than 1 reaches
    :func:`factor`, so each irreducible is found by Zassenhaus at most
    once per batch.  By Gauss's lemma and unique factorization in Z[t], a
    primitive irreducible that divides the input exactly is one of its
    factors, repeated exact division gives its multiplicity, and the
    quotient stays canonical: the result equals ``factor(p)``.
    ``FACTOR_DEGREE_CAP`` is checked on the whole input, so a refusal for
    degree does not depend on the inputs before it; dividing out
    reciprocals in pairs keeps a palindromic input's cofactor palindromic,
    so the cofactor passes the cap whenever the input does.  The
    recombination budget bounds only the work on the cofactor: an input
    whose cofactor fits within it is factored exactly even where
    ``factor(p)`` alone would refuse.
    """
    known: dict[LaurentPoly, tuple[int, int]] = {}  # irreducible -> its values at 2, 3
    done: dict[LaurentPoly, Factorization] = {}

    def factored(p: LaurentPoly) -> Factorization:
        if p in done:
            return done[p]
        rest = list(p.coeffs)
        half = _intpoly.has_trace(rest)  # then the trace polynomial has half the degree
        if _intpoly.degree(rest) // (2 if half else 1) > _intpoly.FACTOR_DEGREE_CAP:
            raise PolynomialError("degree limit exceeded")
        table: dict[LaurentPoly, int] = {}
        at2, at3 = _intpoly.eval_at(rest, 2), _intpoly.eval_at(rest, 3)
        for q, (q_at2, q_at3) in known.items():
            while (not (q_at2 and at2 % q_at2 or q_at3 and at3 % q_at3)
                   and (quo := _intpoly.try_div(rest, q.coeffs)) is not None):
                rest, at2, at3 = (quo, at2 // q_at2 if q_at2 else _intpoly.eval_at(quo, 2),
                                  at3 // q_at3 if q_at3 else _intpoly.eval_at(quo, 3))
                table[q] = table.get(q, 0) + 1
        cofactor = LaurentPoly(tuple(rest))
        if cofactor != ONE:
            if cofactor not in done:
                done[cofactor] = factor(cofactor)
            for q, m in done[cofactor].factors:
                table[q] = m
                if q.degree >= 1:
                    for r in (q, reciprocal(q)):
                        known.setdefault(r, (eval_int(r, 2), eval_int(r, 3)))
        result = Factorization(_sorted_factors(table))
        if result.expand() != p:
            raise AssertionError("factorization failed to reproduce the input")
        done[p] = result
        return result

    return factored
