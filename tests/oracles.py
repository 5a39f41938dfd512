"""Independent oracles and generators shared by the test modules.

Everything here deliberately avoids the library code paths it is used to
check: multiplication is a dict-based convolution, division is schoolbook
over the rationals, signatures come straight from numpy eigenvalues or
from a congruence diagonalization over the rationals of a real form, and
the minimal-residual oracle enumerates decompositions instead of using
the multiset rule.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product as iproduct

import numpy as np

from kcg.errors import SeifertError
from kcg.laurent import ONE, LaurentPoly, canonicalize, factor, mul, poly_from_text, reciprocal
from kcg.seifert import SeifertMatrix


def conv_mul(a, b):
    """Schoolbook convolution of coefficient dicts/lists, as plain lists."""
    out = {}
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out.get(i + j, 0) + x * y
    top = max(out) if out else -1
    return [out.get(k, 0) for k in range(top + 1)]


def reverse_and_normalize(cs):
    """Oracle for the reciprocal: reverse, strip, make the constant positive."""
    rev = list(reversed(list(cs)))
    while rev and rev[0] == 0:
        rev.pop(0)
    while rev and rev[-1] == 0:
        rev.pop()
    if rev and rev[0] < 0:
        rev = [-c for c in rev]
    return rev


def divides_exactly(divisor, dividend):
    """Schoolbook long division over Q; True when the remainder vanishes
    and the quotient is a polynomial (no denominator check needed)."""
    r = [Fraction(c) for c in dividend]
    d = [Fraction(c) for c in divisor]
    while len(r) >= len(d) and any(r):
        if not any(r[len(r) - len(d):]) and r[-1] == 0:
            r.pop()
            continue
        t = r[-1] / d[-1]
        off = len(r) - len(d)
        for i, c in enumerate(d):
            r[off + i] -= t * c
        assert r[-1] == 0
        r.pop()
    return not any(r)


def eig_signature(entries, theta):
    """Floating-point signature of (1-w)V + (1-conj(w))V^T at w=e^(i theta)."""
    v = np.array(entries, dtype=float)
    w = complex(math.cos(theta), math.sin(theta))
    m = (1 - w) * v + (1 - w.conjugate()) * v.T
    lam = np.linalg.eigvalsh(m)
    return int(np.count_nonzero(lam > 1e-9) - np.count_nonzero(lam < -1e-9))


def symmetric_signature(rows) -> int:
    """Signature of a symmetric rational matrix by congruence
    diagonalization; a zero diagonal is repaired by adding a row and its
    column to another, and zero eigenvalues count nothing."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    sig = 0
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
                    continue
                for k in range(n):
                    m[i][k] += m[j][k]
                for row in m:
                    row[i] += row[j]
        d = m[i][i]
        sig += 1 if d > 0 else -1
        for j in range(i + 1, n):
            f = m[j][i] / d
            if f:
                for k in range(n):
                    m[j][k] -= f * m[i][k]
                for row in m:
                    row[j] -= f * row[i]
    return sig


def exact_lt_signature(entries, u: Fraction) -> int:
    """Levine-Tristram signature at u = tan(theta/2) = p/q, exactly.

    The form (1-w)V + (1-conj w)V^T is sin(theta)/q times the Hermitian
    pS - iqK (S = V+V^T, K = V-V^T), whose signature is half that of the
    real symmetric [[pS, qK], [-qK, pS]].
    """
    n = len(entries)
    p, q = u.numerator, u.denominator
    s = [[entries[i][j] + entries[j][i] for j in range(n)] for i in range(n)]
    k = [[entries[i][j] - entries[j][i] for j in range(n)] for i in range(n)]
    real = ([[p * s[i][j] for j in range(n)] + [q * k[i][j] for j in range(n)]
             for i in range(n)]
            + [[-q * k[i][j] for j in range(n)] + [p * s[i][j] for j in range(n)]
               for i in range(n)])
    twice = symmetric_signature(real)
    assert twice % 2 == 0
    return twice // 2


def rational_in_arc(lo: float, hi: float, at: float) -> Fraction:
    """A rational u = tan(theta/2) with theta inside (lo, hi), near the
    point ``at`` of the way along it."""
    target = math.tan((lo + at * (hi - lo)) / 2)
    for bound in (10 ** 3, 10 ** 6, 10 ** 12):
        u = Fraction(target).limit_denominator(bound)
        if lo < 2 * math.atan(u) < hi:
            return u
    return Fraction(target)


def family_seifert(rng: random.Random, genus: int, bound: int) -> SeifertMatrix:
    """V = M + U: M symmetric with entries in [-bound, bound], U the block
    sum of [[0, 1], [0, 0]], so V - V^T is unimodular."""
    n = 2 * genus
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-bound, bound)
    for b in range(genus):
        m[2 * b][2 * b + 1] += 1
    return SeifertMatrix(tuple(tuple(r) for r in m))


def random_canonical(rng: random.Random, max_degree: int, coeff_bound: int = 9) -> LaurentPoly:
    while True:
        deg = rng.randint(0, max_degree)
        cs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(deg + 1)]
        if cs[0] != 0 and cs[-1] != 0:
            return canonicalize(cs)


def random_seifert(rng: random.Random, size: int, tries: int = 200000) -> SeifertMatrix:
    """Rejection-sample an integer matrix with det(V - V^T) = 1."""
    for _ in range(tries):
        v = tuple(tuple(rng.randint(-3, 3) for _ in range(size))
                  for _ in range(size))
        try:
            return SeifertMatrix(v)
        except SeifertError:
            continue
    raise RuntimeError(f"no valid {size}x{size} matrix in {tries} tries")


# Pool for random palindromic products: symmetric irreducibles and
# reciprocal pairs (each entry already in canonical form).
SYMMETRIC_POOL = tuple(poly_from_text(t) for t in (
    "1;-1;1", "1;-3;1", "2;-3;2", "4;-7;4",
    "1;-1;1;-1;1", "1;-3;5;-3;1", "2;-6;7;-6;2", "1;-5;7;-5;1",
))
PAIR_POOL = tuple(
    (poly_from_text(a), poly_from_text(b)) for a, b in (
        ("2;-1", "1;-2"), ("3;-2", "2;-3"),
        ("1;-2;3;-1", "1;-3;2;-1"), ("1;1;-1", "1;-1;-1"),
    ))


def random_palindromic(rng: random.Random, max_degree: int) -> LaurentPoly:
    """Random product of symmetric irreducibles and reciprocal pairs."""
    out = ONE
    while True:
        choices = []
        for q in SYMMETRIC_POOL:
            if out.degree + q.degree <= max_degree:
                choices.append((q,))
        for a, b in PAIR_POOL:
            if out.degree + a.degree + b.degree <= max_degree:
                choices.append((a, b))
        if not choices or (out.degree > 0 and rng.random() < 0.25):
            return out
        for q in rng.choice(choices):
            out = mul(out, q)


def bruteforce_min_residual(fac) -> LaurentPoly:
    """Minimal-degree g over all decompositions p = g * f * f(1/t).

    Enumerates every sub-multiset f of the factors, keeps those whose
    norm f * f(1/t) divides p as a factor multiset, and returns the g of
    least degree among the quotients.
    """
    ranges = [range(m + 1) for _, m in fac.factors]
    best = None
    for choice in iproduct(*ranges):
        f = ONE
        for (q, _m), k in zip(fac.factors, choice):
            for _ in range(k):
                f = mul(f, q)
        norm = factor(mul(f, reciprocal(f)))
        if not norm.divides(fac):
            continue
        g = ONE
        for q, m in fac.factors:
            for _ in range(m - norm.multiplicity(q)):
                g = mul(g, q)
        if best is None or g.degree < best.degree:
            best = g
    assert best is not None
    return best
