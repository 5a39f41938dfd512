"""Seifert-matrix invariants: the knot polynomial det(V - t V^T), the
Murasugi signature, and the Levine-Tristram signature function on the
upper unit semicircle together with its jump structure.

Every decision is exact.  The matrix record and its knot polynomial come
from :mod:`kcg._matrix`, re-exported here.  At u = tan(theta/2) = p/q the
Levine-Tristram form is a positive multiple of the integer Hermitian
p(V+V^T) - iq(V-V^T), whose signature comes from fraction-free elimination
over the Gaussian integers (p/q = 1/0: Murasugi).
Unit-circle roots e^(i theta) are the roots x = 2cos(theta) in (-2, 2) of
the square-free half-degree trace polynomial, isolated by Sturm sequences
and bisected on dyadic rationals held as integer pairs, a numerator over a
power-of-two denominator, with signs from the division-free
``_intpoly.eval_scaled``; ``_intpoly.to_trace`` returns None for a
polynomial without one, which a knot polynomial never is (Delta(1) = 1,
Delta(-1) odd).  The signature profile keeps only the exact results, the
root brackets, which become Fractions there, and the value on each arc;
its angles are read off the brackets.
"""

from __future__ import annotations

import math

from . import _intpoly
from ._matrix import SeifertMatrix, _det_int, _interpolate_int
from ._record import Record
from .errors import PolynomialError, ProfileError
from .laurent import LaurentPoly

# ``fractions`` is imported only where a profile is built
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


class SignatureProfile(Record):
    """Piecewise-constant signature function on (0, pi).

    ``jump_brackets`` holds, per unit-circle root of the knot polynomial
    by increasing angle, a rational interval (lo, hi) of
    x = 2cos(theta) = t + 1/t that contains that root and no other.
    ``values`` holds the even signature on each arc between consecutive
    roots, one more entry than there are roots: the first is 0 and the
    last is the Murasugi signature.
    """

    values: tuple[int, ...]
    jump_brackets: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if len(self.values) != len(self.jump_brackets) + 1:
            raise ProfileError("inconsistent profile: one more value than "
                               "jump brackets expected")

    @property
    def endpoint_value_at_pi(self) -> int:
        return self.values[-1]

    @property
    def jump_points(self) -> tuple[tuple[float, int, int], ...]:
        """(angle, jump, averaged value) per root, where the averaged
        value is the mean of the two adjacent arc values."""
        return tuple((_angle(*lo.as_integer_ratio()), b - a, (a + b) // 2)
                     for (lo, _), a, b in zip(self.jump_brackets, self.values, self.values[1:]))

    @property
    def arcs(self) -> tuple[tuple[tuple[float, float], int], ...]:
        """(open interval, value) pairs covering (0, pi)."""
        ends = (0.0, *(_angle(*lo.as_integer_ratio()) for lo, _ in self.jump_brackets),
                math.pi)
        return tuple(((lo, hi), v) for lo, hi, v in zip(ends, ends[1:], self.values))


# ---------------------------------------------------------------------------
# exact kernels


def _hermitian_signature(re, im) -> int:
    """Signature of the integer Hermitian matrix re + i im (re symmetric,
    im skew); zero eigenvalues count nothing.

    Bareiss elimination over the Gaussian integers with symmetric
    pivoting: each pivot is a real leading principal minor d_k of a
    congruent matrix, and the k-th eigenvalue has the sign of d_k d_(k-1)
    (Jacobi).  A block of zeros that remains adds nothing.
    """
    re = [list(r) for r in re]
    im = [list(r) for r in im]
    active = list(range(len(re)))
    sig, prev = 0, 1
    while active:
        k = next((i for i in active if re[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in active for j in active
                         if re[i][j] or im[i][j]), None)
            if pair is None:
                break
            # add c row j to row k and conj(c) column j to column k, with
            # c = 1 or i such that the new entry 2 Re(c a_jk) is nonzero
            k, j = pair
            cr, ci = (1, 0) if re[j][k] else (0, 1)
            for a in active:
                if a != k:
                    re[k][a] += cr * re[j][a] - ci * im[j][a]
                    im[k][a] += cr * im[j][a] + ci * re[j][a]
                    re[a][k], im[a][k] = re[k][a], -im[k][a]
            re[k][k] = 2 * (cr * re[j][k] - ci * im[j][k])
        d = re[k][k]
        sig += 1 if (d > 0) == (prev > 0) else -1
        active.remove(k)
        rk, ik = re[k], im[k]
        for x, a in enumerate(active):
            ra, ia = re[a], im[a]
            pa, qa = ra[k], ia[k]
            for b in active[x:]:
                pb, qb = rk[b], ik[b]
                r = (d * ra[b] - pa * pb + qa * qb) // prev
                s = (d * ia[b] - pa * qb - qa * pb) // prev
                ra[b], ia[b] = r, s
                re[b][a], im[b][a] = r, -s
        prev = d
    return sig


def _lt_at(V: SeifertMatrix, p: int, q: int) -> int:
    """Signature of p(V+V^T) - iq(V-V^T): the Levine-Tristram signature
    at u = tan(theta/2) = p/q, or at theta = pi when q = 0."""
    e, n = V.entries, V.size
    re = [[p * (e[i][j] + e[j][i]) for j in range(n)] for i in range(n)]
    im = [[q * (e[j][i] - e[i][j]) for j in range(n)] for i in range(n)]
    return _hermitian_signature(re, im)


# ---------------------------------------------------------------------------
# unit-circle roots


def _circle_trace(p: LaurentPoly):
    """Square-free part of the trace polynomial D of p, or None when p
    has none.  The roots x = t + 1/t = 2cos(theta) of D in (-2, 2) are
    those of the unit-circle roots t = e^(i theta), 0 < theta < pi."""
    d = _intpoly.to_trace(list(p.coeffs))
    return None if d is None else _intpoly.try_div(d, _intpoly.gcd(d, _intpoly.derivative(d)))


def _angle(a: int, b: int) -> float:
    """theta in [0, pi] with 2cos(theta) = a/b, b > 0.  Each quotient is
    an int/int division, correctly rounded as float(Fraction) is."""
    return 2 * math.atan2(math.sqrt((2 * b - a) / b), math.sqrt((2 * b + a) / b))


def _root_brackets(p: LaurentPoly) -> list[tuple[Fraction, Fraction]]:
    """One rational bracket of x = 2cos(theta) per unit-circle root of p
    with 0 < theta < pi, by increasing theta (decreasing x).

    Sturm's theorem counts the roots of D in (lo, hi), neither end a
    root, as the drop in sign changes along D, D', -rem, ... from lo to
    hi.  (-2, 2) is halved until each part holds one root, which is then
    bisected until the ends of its bracket give the same double angle.
    Every end is a dyadic rational, held as an integer numerator over a
    power-of-two denominator shared by the ends of a bracket: a midpoint
    doubles both ends and the denominator, and each sign is that of the
    integer ``_intpoly.eval_scaled``, so the loops do no rational
    arithmetic.  The ends become Fractions only in the returned list.
    A p without a trace polynomial is refused.
    """
    from fractions import Fraction

    d = _circle_trace(p)
    if d is None:
        raise PolynomialError(f"no trace polynomial: {p.to_text()} is not "
                              "palindromic and nonzero at 1 and -1")
    seq = [d, _intpoly.derivative(d)]
    while _intpoly.degree(seq[-1]) > 0:
        g = seq[-1]
        r = _intpoly._pseudo_rem(seq[-2], g if g[-1] > 0 else _intpoly.neg(g))
        seq.append(_intpoly.neg(_intpoly.primitive(r)[1]))

    def changes(a, den):
        signs = [v > 0 for v in (_intpoly.eval_scaled(g, a, den) for g in seq) if v]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    # (lo, sign changes at lo, hi, sign changes at hi, denominator)
    todo = [(-2, changes(-2, 1), 2, changes(2, 1), 1)]
    out = []
    while todo:
        lo, vlo, hi, vhi, den = todo.pop()
        if vlo - vhi > 1:
            lo, hi, mid, den = 2 * lo, 2 * hi, lo + hi, 2 * den
            while not _intpoly.eval_scaled(d, mid, den):
                lo, hi, mid, den = 2 * lo, 2 * hi, lo + mid, 2 * den
            vmid = changes(mid, den)
            todo += [(lo, vlo, mid, vmid, den), (mid, vmid, hi, vhi, den)]
        elif vlo - vhi == 1:
            # strictly inside (lo, hi), so that brackets never touch: an
            # end's angle is None until the end has moved
            a, b, n, s = lo, hi, den, _intpoly.eval_scaled(d, lo, den) > 0
            ta = tb = None
            while ta is None or tb is None or ta != tb:
                a, b, mid, n = 2 * a, 2 * b, a + b, 2 * n
                t = _intpoly.eval_scaled(d, mid, n)
                if not t:  # a rational root: keep it in the middle
                    a, b, n = a + mid, mid + b, 2 * n
                    ta, tb = _angle(a, n), _angle(b, n)
                elif (t > 0) == s:
                    a, ta = mid, _angle(mid, n)
                else:
                    b, tb = mid, _angle(mid, n)
            out.append((Fraction(a, n), Fraction(b, n)))
    return sorted(out, reverse=True)


def _u_between(lo: Fraction, hi: Fraction) -> tuple[int, int]:
    """(p, q) with lo < 2cos(theta) < hi at u = tan(theta/2) = p/q, for the
    least power of two q that has one; u^2 = (2 - x)/(2 + x) falls in x."""
    small, big = (2 - hi) / (2 + hi), (2 - lo) / (2 + lo)
    q = 1
    while True:
        p = math.isqrt(q * q * small.numerator // small.denominator) + 1
        if p * p * big.denominator < q * q * big.numerator:
            return p, q
        q *= 2


# ---------------------------------------------------------------------------
# invariants


def alexander(V: SeifertMatrix) -> LaurentPoly:
    """Canonical knot polynomial det(V - t V^T).

    Computed exactly by evaluating the determinant at size+1 integer
    nodes and interpolating; the value at t = 1 is det(V - V^T) = 1, so
    a constructed matrix can never fail the knot-polynomial check.  The
    matrix keeps the node values and the result, so each matrix is
    evaluated once and interpolated at most once: never after
    :meth:`SeifertMatrix.has_alexander` has confirmed a polynomial.
    """
    return V._alexander


def murasugi_signature(V: SeifertMatrix) -> int:
    """Exact signature of V + V^T (the signature function at omega = -1)."""
    return _lt_at(V, 1, 0)


def unit_circle_root_angles(p: LaurentPoly) -> tuple[float, ...]:
    """Angles in (0, pi) of the distinct unit-circle roots of p, increasing;
    both ends of each root's rational bracket give this double.  p must
    be palindromic and nonzero at 1 and -1, as a knot polynomial is;
    any other p is refused with :class:`PolynomialError`."""
    return tuple(_angle(*lo.as_integer_ratio()) for lo, _ in _root_brackets(p))


def roots_in_brackets(p: LaurentPoly, brackets) -> tuple[bool, ...]:
    """Per bracket of ``SignatureProfile.jump_brackets``, whether the
    irreducible p has the unit-circle root it isolates: whether the trace
    polynomial of p changes sign across it.  A p without one has no such
    root: an irreducible polynomial with a root e^(i theta), 0 < theta <
    pi, is palindromic of even degree and nonzero at 1 and -1."""
    d = _circle_trace(p)
    if d is None:
        return (False,) * len(brackets)
    return tuple((_intpoly.eval_scaled(d, *lo.as_integer_ratio()) > 0)
                 != (_intpoly.eval_scaled(d, *hi.as_integer_ratio()) > 0)
                 for lo, hi in brackets)


def signature_profile(V: SeifertMatrix) -> SignatureProfile:
    """Arc decomposition of the signature function over (0, pi).

    Jumps happen only at unit-circle roots of the knot polynomial.  Near
    theta = 0 the form is a multiple of -i(V - V^T), which is unimodular,
    so the first arc has value 0; Delta(-1) is odd, so pi is never a root
    and the last arc has the Murasugi signature.  Each arc in between
    takes one exact evaluation at a rational u = tan(theta/2) inside it.
    """
    brackets = _root_brackets(alexander(V))
    values = [0]
    for (_, hi), (lo, _) in zip(brackets[1:], brackets):
        values.append(_lt_at(V, *_u_between(hi, lo)))
    if brackets:
        values.append(murasugi_signature(V))
    return SignatureProfile(tuple(values), tuple(brackets))
