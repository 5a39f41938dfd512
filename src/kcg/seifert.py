"""Seifert-matrix invariants: the knot polynomial det(V - t V^T), the
Murasugi signature, and the Levine-Tristram signature function on the
upper unit semicircle together with its jump structure.

Every decision is exact.  The knot polynomial comes from integer determinants
at interpolation nodes, once per matrix: the matrix keeps it.  At
u = tan(theta/2) = p/q the Levine-Tristram form is a positive multiple of
the integer Hermitian p(V+V^T) - iq(V-V^T), whose signature comes from
fraction-free elimination over the Gaussian integers (p/q = 1/0: Murasugi).
Unit-circle roots e^(i theta) are the roots x = 2cos(theta) in (-2, 2) of
the half-degree trace polynomial, isolated by Sturm sequences on rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import _intpoly
from .errors import SeifertError
from .laurent import LaurentPoly, canonicalize, eval_int

# lt_signature reads a float angle within this of a root angle as that
# root: math.pi / 3 is one ulp away from the trefoil's root.
ROOT_ANGLE_TOL = 1e-8


@dataclass(frozen=True)
class SeifertMatrix:
    """Square integer matrix V with det(V - V^T) = 1.

    The condition says exactly that V is the linking form of a genus
    n/2 surface with unimodular intersection form; it forces n even and
    equals the value of the knot polynomial at t = 1.  The 0x0 matrix is
    allowed and represents the unknot.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise SeifertError("not a knot Seifert matrix")
        skew = [[self.entries[i][j] - self.entries[j][i] for j in range(n)]
                for i in range(n)]
        if _det_int(skew) != 1:
            raise SeifertError("not a knot Seifert matrix")

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def from_text(cls, text: str) -> "SeifertMatrix":
        """Parse the row encoding ``-1,1;0,-1`` (rows by ';', entries by ',')."""
        rows = []
        for chunk in text.split(";"):
            try:
                rows.append(tuple(int(x) for x in chunk.split(",")))
            except ValueError as exc:
                raise SeifertError(f"bad matrix encoding: {text!r}") from exc
        return cls(tuple(rows))

    def to_text(self) -> str:
        return ";".join(",".join(str(x) for x in row) for row in self.entries)

    @cached_property
    def _alexander(self) -> LaurentPoly:
        """det(V - t V^T) on first use; ``alexander`` is the public name."""
        n = self.size
        points = []
        for x in range(-(n // 2), n // 2 + 1):  # n is even
            m = [[self.entries[i][j] - x * self.entries[j][i] for j in range(n)]
                 for i in range(n)]
            points.append((x, _det_int(m)))
        poly = canonicalize(_interpolate_int(points))
        if abs(eval_int(poly, 1)) != 1:
            raise SeifertError("not a knot Seifert matrix")
        return poly


@dataclass(frozen=True)
class SignatureProfile:
    """Piecewise-constant signature function on (0, pi).

    ``arcs`` holds (open interval, even value) pairs covering (0, pi)
    between consecutive unit-circle roots of the knot polynomial;
    ``jump_points`` holds (angle, jump, averaged value) per root, where
    the averaged value is the mean of the two adjacent arc values.
    ``jump_brackets`` holds, per root, a rational interval (lo, hi) of
    x = 2cos(theta) = t + 1/t that contains that root and no other.
    """

    arcs: tuple[tuple[tuple[float, float], int], ...]
    jump_points: tuple[tuple[float, int, int], ...]
    endpoint_value_at_pi: int
    jump_brackets: tuple[tuple[Fraction, Fraction], ...]


# ---------------------------------------------------------------------------
# exact kernels


def _det_int(rows) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def _interpolate_int(points) -> list[int]:
    """Integer coefficients of the polynomial through (x, y) points."""
    n = len(points)
    acc = [Fraction(0)] * n
    for xi, yi in points:
        basis = [Fraction(1)]
        denom = 1
        for xj, _ in points:
            if xj == xi:
                continue
            basis = _intpoly.mul(basis, [Fraction(-xj), Fraction(1)])
            denom *= xi - xj
        scale = Fraction(yi, denom)
        for k, c in enumerate(basis):
            acc[k] += c * scale
    if any(c.denominator != 1 for c in acc):
        raise AssertionError("interpolation produced non-integer coefficients")
    return [int(c) for c in acc]


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


def _trace_poly(p: LaurentPoly) -> list[int]:
    """Square-free D whose roots in (-2, 2) are the x = t + 1/t = 2cos(theta)
    of the unit-circle roots t = e^(i theta), 0 < theta < pi, of p: those
    lie in h = gcd(w, w reversed), w the square-free part of p, which
    without t - 1 and t + 1 is palindromic of degree 2m; t^-m h(t) is a sum
    of t^k + t^-k = P_k(x), P_0 = 2, P_1 = x, P_(k+1) = x P_k - P_(k-1)."""
    w = _intpoly.squarefree_part(list(p.coeffs))
    h = _intpoly.gcd(w, w[::-1])
    for linear in ([-1, 1], [1, 1]):
        h = _intpoly.try_div(h, linear) or h
    m = len(h) // 2
    out, prev, cur = [h[m]], [2], [0, 1]
    for c in h[m + 1:]:
        out = _intpoly.add(out, _intpoly.mul_ground(cur, c))
        prev, cur = cur, _intpoly.sub([0, *cur], prev)
    return out


def _angle(x: Fraction) -> float:
    """theta in [0, pi] with 2cos(theta) = x."""
    return 2 * math.atan2(math.sqrt(2 - x), math.sqrt(2 + x))


def _root_brackets(p: LaurentPoly) -> list[tuple[Fraction, Fraction]]:
    """One rational bracket of x = 2cos(theta) per unit-circle root of p
    with 0 < theta < pi, by increasing theta (decreasing x).

    Sturm's theorem counts the roots of D in (lo, hi), neither end a
    root, as the drop in sign changes along D, D', -rem, ... from lo to
    hi.  (-2, 2) is halved until each part holds one root, which is then
    bisected until the ends of its bracket give the same double angle.
    """
    d = _trace_poly(p)
    seq = [d, _intpoly.derivative(d)]
    while _intpoly.degree(seq[-1]) > 0:
        g = seq[-1]
        r = _intpoly._pseudo_rem(seq[-2], g if g[-1] > 0 else _intpoly.neg(g))
        seq.append(_intpoly.neg(_intpoly.primitive(r)[1]))

    def changes(x):
        signs = [v > 0 for v in (_intpoly.eval_at(g, x) for g in seq) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    todo = [(Fraction(-2), changes(-2), Fraction(2), changes(2))]
    out = []
    while todo:
        lo, vlo, hi, vhi = todo.pop()
        if vlo - vhi > 1:
            mid = (lo + hi) / 2
            while not _intpoly.eval_at(d, mid):
                mid = (lo + mid) / 2
            vmid = changes(mid)
            todo += [(lo, vlo, mid, vmid), (mid, vmid, hi, vhi)]
        elif vlo - vhi == 1:
            # strictly inside (lo, hi), so that brackets never touch
            a, b, s = lo, hi, _intpoly.eval_at(d, lo) > 0
            while a == lo or b == hi or _angle(a) != _angle(b):
                mid = (a + b) / 2
                t = _intpoly.eval_at(d, mid)
                if not t:  # a rational root: keep it in the middle
                    a, b = (a + mid) / 2, (mid + b) / 2
                elif (t > 0) == s:
                    a = mid
                else:
                    b = mid
            out.append((a, b))
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
    matrix keeps the result, so each matrix is interpolated once.
    """
    return V._alexander


def murasugi_signature(V: SeifertMatrix) -> int:
    """Exact signature of V + V^T (the signature function at omega = -1)."""
    return _lt_at(V, 1, 0)


def unit_circle_root_angles(p: LaurentPoly) -> tuple[float, ...]:
    """Angles in (0, pi) of the distinct unit-circle roots of p, increasing;
    both ends of each root's rational bracket give this double."""
    return tuple(_angle(lo) for lo, _ in _root_brackets(p))


def roots_in_brackets(p: LaurentPoly, brackets) -> tuple[bool, ...]:
    """Per bracket of ``SignatureProfile.jump_brackets``, whether p has
    the unit-circle root it isolates: whether the trace polynomial of p
    changes sign across it."""
    d = _trace_poly(p)
    return tuple((_intpoly.eval_at(d, lo) > 0) != (_intpoly.eval_at(d, hi) > 0)
                 for lo, hi in brackets)


def lt_signature(V: SeifertMatrix, theta: float) -> int:
    """Levine-Tristram signature at omega = e^(i theta), theta in (0, pi].

    At theta = pi this is the Murasugi signature.  At a unit-circle root
    of the knot polynomial (within ROOT_ANGLE_TOL) the value is the
    average of the two one-sided limits (an integer: both are even).
    """
    if not 0.0 < theta <= math.pi:
        raise ValueError("angle must lie in (0, pi]")
    profile = signature_profile(V)
    for angle, _jump, averaged in profile.jump_points:
        if abs(angle - theta) <= ROOT_ANGLE_TOL:
            return averaged
    return next((v for (_, hi), v in profile.arcs if theta < hi),
                profile.endpoint_value_at_pi)


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
    angles = [_angle(lo) for lo, _ in brackets]
    bounds = (0.0, *angles, math.pi)
    jump_points = tuple(
        (angle, values[i + 1] - values[i], (values[i] + values[i + 1]) // 2)
        for i, angle in enumerate(angles))
    arcs = tuple(((lo, hi), v) for lo, hi, v in zip(bounds, bounds[1:], values))
    return SignatureProfile(arcs=arcs, jump_points=jump_points,
                            endpoint_value_at_pi=values[-1],
                            jump_brackets=tuple(brackets))
