"""Seifert-matrix invariants: the knot polynomial det(V - t V^T), the
Murasugi signature, and the Levine-Tristram signature function on the
upper unit semicircle together with its jump structure.

Numeric policy: anything that feeds an exact-equality downstream is
computed exactly.  The knot polynomial comes from integer determinants at
interpolation nodes (fraction-free Bareiss plus Lagrange over rationals),
once per matrix: the matrix keeps it, so validating a record, its
signature profile and its callers share one computation.  The Murasugi
signature comes from congruence diagonalization over the rationals.
Interior signature samples use double-precision Hermitian eigenvalues; a
sample whose smallest eigenvalue sits within tolerance of zero is
rejected and retried at a perturbed angle, which is safe because the
signature function is constant on each arc between roots.  numpy is
imported by the two float kernels on their first call, so code that
never samples the signature function never loads it; an integer too
large for a double is refused there as a ProfileError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import _intpoly
from .errors import IndeterminateSampleError, ProfileError, SeifertError
from .laurent import ONE, LaurentPoly, canonicalize, eval_int

# An eigenvalue is a zero-crossing hazard below this relative tolerance.
EIG_ZERO_TOL = 1e-9
# A polished root counts as on the unit circle when ||z| - 1| is below this.
UNIT_CIRCLE_TOL = 1e-8
# lt_signature treats an angle within this of a root angle as "at the root".
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
        if n == 0:
            return ONE
        nodes = [0]
        k = 1
        while len(nodes) < n + 1:
            nodes.append(k)
            if len(nodes) < n + 1:
                nodes.append(-k)
            k += 1
        points = []
        for x in nodes:
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
    """

    arcs: tuple[tuple[tuple[float, float], int], ...]
    jump_points: tuple[tuple[float, int, int], ...]
    endpoint_value_at_pi: int


# ---------------------------------------------------------------------------
# exact kernels


def _det_int(rows) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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


def _signature_symmetric_exact(mat) -> int:
    """Signature of a symmetric rational matrix by congruence
    diagonalization; zero eigenvalues contribute nothing."""
    n = len(mat)
    m = [[Fraction(x) for x in row] for row in mat]
    pos = neg = 0
    for i in range(n):
        if m[i][i] == 0:
            j = next((j for j in range(i + 1, n) if m[j][j] != 0), None)
            if j is not None:
                m[i], m[j] = m[j], m[i]
                for row in m:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((j for j in range(i + 1, n) if m[i][j] != 0), None)
                if j is None:
                    continue  # zero row in the trailing block
                for k in range(n):
                    m[i][k] += m[j][k]
                for row in m:
                    row[i] += row[j]
        d = m[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            if m[j][i] != 0:
                f = m[j][i] / d
                for k in range(n):
                    m[j][k] -= f * m[i][k]
                for row in m:
                    row[j] -= f * row[i]
    return pos - neg


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
    n = V.size
    if n == 0:
        return 0
    sym = [[V.entries[i][j] + V.entries[j][i] for j in range(n)]
           for i in range(n)]
    return _signature_symmetric_exact(sym)


def _sample_signature(V: SeifertMatrix, theta: float) -> int:
    """Eigenvalue sign count of (1-w)V + (1-conj(w))V^T at w = e^(i theta)."""
    import numpy as np

    w = complex(math.cos(theta), math.sin(theta))
    try:
        a = np.array(V.entries, dtype=float)
    except OverflowError as exc:
        raise ProfileError("matrix entries exceed the float range") from exc
    m = (1 - w) * a + (1 - w.conjugate()) * a.T
    lam = np.linalg.eigvalsh(m)
    scale = EIG_ZERO_TOL * (1.0 + float(np.max(np.sum(np.abs(m), axis=1))))
    if bool(np.any(np.abs(lam) < scale)):
        raise IndeterminateSampleError("indeterminate signature sample")
    return int(np.count_nonzero(lam > 0) - np.count_nonzero(lam < 0))


def _arc_value(V: SeifertMatrix, lo: float, hi: float) -> int:
    """Constant signature value on the open arc (lo, hi).

    Samples the midpoint first; a hazardous sample is retried at the
    midpoint shifted by multiples of 1/16 of the arc, up to 8 retries.
    """
    mid = (lo + hi) / 2.0
    step = (hi - lo) / 16.0
    for k in (0, 1, -1, 2, -2, 3, -3, 4, -4):
        try:
            return _sample_signature(V, mid + k * step)
        except IndeterminateSampleError:
            continue
    raise IndeterminateSampleError("indeterminate signature sample")


def _ceval(f, z: complex) -> complex:
    out = 0j
    for c in reversed(f):
        out = out * z + c
    return out


def _newton_polish(f, fd, z: complex) -> complex:
    for _ in range(64):
        d = _ceval(fd, z)
        if d == 0:
            break
        step = _ceval(f, z) / d
        z -= step
        if abs(step) <= 1e-15 * (1.0 + abs(z)):
            return z
    scale = sum(abs(c) for c in f)
    if abs(_ceval(f, z)) > 1e-8 * scale:
        raise ProfileError("root isolation failed")
    return z


def unit_circle_root_angles(p: LaurentPoly) -> tuple[float, ...]:
    """Angles in (0, pi) of the unit-circle roots of p.

    Roots come from companion-matrix eigenvalues of the square-free part
    polished by Newton iteration; a root is on the circle when its
    modulus is within 1e-8 of 1, and conjugate pairs collapse to the
    angle with positive imaginary part.
    """
    import numpy as np

    w = _intpoly.squarefree_part(list(p.coeffs))
    if _intpoly.degree(w) < 1:
        return ()
    try:
        monic = np.array(list(reversed(w)), dtype=float) / w[-1]
    except OverflowError as exc:
        raise ProfileError("polynomial coefficients exceed the float range") from exc
    wd = _intpoly.derivative(w)
    angles = []
    for z0 in np.roots(monic):
        z = _newton_polish(w, wd, complex(z0))
        if abs(abs(z) - 1.0) < UNIT_CIRCLE_TOL and z.imag > 1e-9:
            angles.append(math.atan2(z.imag, z.real))
    angles.sort()
    merged: list[float] = []
    for a in angles:
        if not merged or a - merged[-1] > 1e-9:
            merged.append(a)
    return tuple(merged)


def lt_signature(V: SeifertMatrix, theta: float) -> int:
    """Levine-Tristram signature at omega = e^(i theta), theta in (0, pi].

    At theta = pi this is the Murasugi signature, computed exactly.  At a
    unit-circle root of the knot polynomial the value is the average of
    the two one-sided limits (an integer: both limits are even).
    """
    if not 0.0 < theta <= math.pi + 1e-12:
        raise ValueError("angle must lie in (0, pi]")
    if V.size == 0:
        return 0
    if abs(theta - math.pi) < 1e-12:
        return murasugi_signature(V)
    angles = unit_circle_root_angles(alexander(V))
    hit = [a for a in angles if abs(a - theta) <= ROOT_ANGLE_TOL]
    if hit:
        bounds = [0.0, *angles, math.pi]
        i = bounds.index(hit[0])
        left = _arc_value(V, bounds[i - 1], bounds[i])
        right = _arc_value(V, bounds[i], bounds[i + 1])
        if (left + right) % 2:
            raise ProfileError("root isolation failed")
        return (left + right) // 2
    return _sample_signature(V, theta)


def signature_profile(V: SeifertMatrix) -> SignatureProfile:
    """Arc decomposition of the signature function over (0, pi).

    Jumps can only happen at unit-circle roots of the knot polynomial,
    so sampling one clean value per arc between consecutive roots pins
    the whole function.  The value on the first arc is 0 and the value on
    the last arc equals the Murasugi signature; both are checked and a
    mismatch is reported as failed root isolation.
    """
    if V.size == 0:
        return SignatureProfile(arcs=(((0.0, math.pi), 0),), jump_points=(),
                                endpoint_value_at_pi=0)
    delta = alexander(V)
    angles = unit_circle_root_angles(delta)
    bounds = (0.0, *angles, math.pi)
    values = [_arc_value(V, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    endpoint = murasugi_signature(V)
    if values[0] != 0 or values[-1] != endpoint or any(v % 2 for v in values):
        raise ProfileError("root isolation failed")
    jump_points = tuple(
        (angle, values[i + 1] - values[i], (values[i] + values[i + 1]) // 2)
        for i, angle in enumerate(angles))
    arcs = tuple(((lo, hi), v)
                 for (lo, hi), v in zip(zip(bounds, bounds[1:]), values))
    return SignatureProfile(arcs=arcs, jump_points=jump_points,
                            endpoint_value_at_pi=endpoint)
