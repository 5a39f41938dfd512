"""Independent oracles and generators shared by the test modules.

Everything here deliberately avoids the library code paths it is used to
check: multiplication is a dict-based convolution, division is schoolbook
over the rationals, signatures come straight from numpy eigenvalues or
from a congruence diagonalization over the rationals of a real form, and
the minimal-residual oracle enumerates decompositions instead of using
the multiset rule.  numpy loads only in the eigenvalue oracle, so every
other oracle works without it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product as iproduct

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


def exact_quotient(dividend, divisor):
    """Schoolbook quotient of integer coefficient lists by a divisor with
    leading coefficient +-1, asserting that the remainder vanishes."""
    r = list(dividend)
    q = [0] * (len(r) - len(divisor) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + len(divisor) - 1] * divisor[-1]
        q[k] = c
        for i, d in enumerate(divisor):
            r[k + i] -= c * d
    assert not any(r), "inexact division"
    return q


def cyclotomic(n: int) -> list[int]:
    """Phi_n as a coefficient list: t^n - 1 over the Phi_d, d | n, d < n."""
    out = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            out = exact_quotient(out, cyclotomic(d))
    return out


def torus_cyclotomic_indices(p: int, q: int) -> list[int]:
    """The d with Delta(T(p, q)) = prod Phi_d: d | pq, d divides neither."""
    return [d for d in range(1, p * q + 1)
            if p * q % d == 0 and p % d and q % d]


def torus_alexander(p: int, q: int) -> list[int]:
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)) by long division."""
    num = conv_mul([-1] + [0] * (p * q - 1) + [1], [-1, 1])
    den = conv_mul([-1] + [0] * (p - 1) + [1], [-1] + [0] * (q - 1) + [1])
    return exact_quotient(num, den)


def torus_seifert(p: int, q: int) -> SeifertMatrix:
    """Seifert matrix of T(p, q), the Sebastiani-Thom product
    Gamma_(p-1) (x) Gamma_(q-1) of the Brieskorn singularity x^p + y^q,
    with Gamma_n upper-bidiagonal: 1 on the diagonal, -1 above it."""

    def gamma(n):
        return [[1 if j == i else -1 if j == i + 1 else 0 for j in range(n)]
                for i in range(n)]

    a, b = gamma(p - 1), gamma(q - 1)
    return SeifertMatrix(tuple(
        tuple(a[i][j] * b[k][l] for j in range(p - 1) for l in range(q - 1))
        for i in range(p - 1) for k in range(q - 1)))


def block_sum(*matrices: SeifertMatrix) -> SeifertMatrix:
    """The Seifert matrix of a connected sum: the blocks on the diagonal."""
    n = sum(v.size for v in matrices)
    rows, at = [], 0
    for v in matrices:
        rows += [(0,) * at + row + (0,) * (n - at - v.size) for row in v.entries]
        at += v.size
    return SeifertMatrix(tuple(rows))


def mirror(v: SeifertMatrix) -> SeifertMatrix:
    """The Seifert matrix -V^T of the mirror image."""
    return SeifertMatrix(tuple(zip(*((-c for c in row) for row in v.entries))))


def litherland_signature(p: int, q: int, x) -> int:
    """Signature of T(p, q) at theta = 2 pi x, 0 < x <= 1/2, away from the
    jumps (Litherland 1979): #{s in S : x < s < x + 1} minus
    #{s in S : s < x or s > x + 1}, S = {i/p + j/q : 0 < i < p, 0 < j < q}."""
    s = [Fraction(i, p) + Fraction(j, q) for i in range(1, p) for j in range(1, q)]
    return (sum(x < t < x + 1 for t in s)
            - sum(t < x or t > x + 1 for t in s))


def swinnerton_dyer(primes) -> list[int]:
    """prod (x +- sqrt(p_1) +- ... +- sqrt(p_k)), irreducible of degree
    2^k: P(x) -> P(x + sqrt p) P(x - sqrt p) = A^2 - p B^2, where
    P(x + sqrt p) = A + B sqrt p is found by Horner's rule in Z[sqrt p]."""

    def plus(f, g):
        n = max(len(f), len(g))
        return [(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
                for i in range(n)]

    poly = [0, 1]
    for p in primes:
        a, b = [], []
        for c in reversed(poly):
            # (a + b sqrt p)(x + sqrt p) + c
            a, b = plus(plus([0, *a], [p * x for x in b]), [c]), plus(a, [0, *b])
        poly = plus(conv_mul(a, a), [-p * x for x in conv_mul(b, b)])
    return poly


def eig_signature(entries, theta):
    """Floating-point signature of (1-w)V + (1-conj(w))V^T at w=e^(i theta)."""
    import numpy as np

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
