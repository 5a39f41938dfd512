"""Exact dense-polynomial kernel over the integers and over GF(p).

A polynomial is a list of Python ints, constant coefficient first, with no
trailing zeros; ``[]`` is the zero polynomial.  Everything is arbitrary
precision, no floats.

Factorization follows the classical route, cut short where it can be.  A
polynomial square free modulo a small prime is proved square free there,
and only the others run Yun's decomposition.  Modulo the first usable
prime, the roots come first, by evaluation at every residue, and only a
root-free rest of degree 4 or more goes to Berlekamp.  Quadratic Hensel
lifting runs one step at a time and tries each single lifted factor by
exact division after every step, so it stops at the first exact factors;
only the lifts left unmatched at a Mignotte-style bound are recombined in
subsets.  Recombination is exponential in the number of modular factors,
so it counts its subset trials and refuses past ``RECOMBINATION_BUDGET``:
a refusal, never a hang.

Knot polynomials are palindromic, and a palindromic h of degree 2m with
h(1) h(-1) != 0 is factored at half the degree through its trace
polynomial D, t^-m h(t) = D(t + 1/t) (:func:`has_trace` is the one test
for this route, and :func:`to_trace` builds D): D is factored, and each
irreducible d is lifted back to t^deg(d) d(t + 1/t) (:func:`from_trace`).
A lift is irreducible or +-f(t) f*(t) with f* the reciprocal of f; only a
lift that passes the exact test for the latter (:func:`_may_split`) is
recombined again.  Every choice below (prime scan order, factor ordering,
subset order) is deterministic.
"""

from __future__ import annotations

import math
from itertools import combinations

from .errors import PolynomialError

#: Subset trials one recombination may make before it refuses the input.
RECOMBINATION_BUDGET = 2000

#: Largest degree :func:`factor_primitive` factors: that of the trace
#: polynomial on the trace route (whose lifts then have at most twice this
#: degree), of the input otherwise.  Past it the input is refused.
FACTOR_DEGREE_CAP = 64


# ---------------------------------------------------------------------------
# arithmetic over Z


def strip(f):
    """Drop trailing zero coefficients of a list the caller owns, in place,
    and return it."""
    while f and f[-1] == 0:
        f.pop()
    return f


def degree(f):
    return len(f) - 1


def neg(f):
    return [-c for c in f]


def add(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return strip(out)


def sub(f, g):
    out = list(f)
    out += [0] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] -= c
    return strip(out)


def mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def mul_ground(f, c):
    if c == 0:
        return []
    return [a * c for a in f]


def eval_at(f, x):
    out = 0
    for c in reversed(f):
        out = out * x + c
    return out


def eval_scaled(f, a, b):
    """b^deg(f) f(a/b) for integers a and b > 0: an integer with the sign
    of f(a/b), by homogeneous Horner evaluation, with no division."""
    out, scale = 0, 1
    for c in reversed(f):
        out = out * a + c * scale
        scale *= b
    return out


def derivative(f):
    return strip([i * c for i, c in enumerate(f)][1:])


def content(f):
    out = 0
    for c in f:
        out = math.gcd(out, c)
        if out == 1:
            break
    return out


def primitive(f):
    """Split f into (content, primitive part); content is nonnegative."""
    if not f:
        return 0, []
    c = content(f)
    return c, [a // c for a in f]


def try_div(f, g):
    """Exact quotient f/g in Z[x], or None when g does not divide f."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if not f:
        return []
    df, dg = degree(f), degree(g)
    if df < dg:
        return None
    rem = list(f)
    q = [0] * (df - dg + 1)
    b = g[-1]
    for k in range(df - dg, -1, -1):
        c = rem[k + dg]
        if c == 0:
            continue
        if c % b:
            return None
        t = c // b
        q[k] = t
        for i, gc in enumerate(g):
            rem[k + i] -= t * gc
    if any(rem):
        return None
    return strip(q)


def _pseudo_rem(f, g):
    """A scalar multiple of the remainder of f by g (fraction free)."""
    df, dg = degree(f), degree(g)
    r = list(f)
    if df < dg:
        return r
    b = g[-1]
    while r and degree(r) >= dg:
        d = degree(r)
        t = r[-1]
        r = [b * c for c in r]
        for i, gc in enumerate(g):
            r[d - dg + i] -= t * gc
        r = strip(r)
    return r


def gcd(f, g):
    """Greatest common divisor in Z[x], positive leading coefficient."""
    f, g = strip(list(f)), strip(list(g))
    if not f:
        return neg(g) if g and g[-1] < 0 else list(g)
    if not g:
        return neg(f) if f[-1] < 0 else list(f)
    cf, pf = primitive(f)
    cg, pg = primitive(g)
    c = math.gcd(cf, cg)
    while pg:
        r = _pseudo_rem(pf, pg)
        _, r = primitive(strip(r))
        pf, pg = pg, r
    if pf[-1] < 0:
        pf = neg(pf)
    return mul_ground(pf, c)


def squarefree_decomposition(f):
    """[(part, multiplicity)] with pairwise-coprime square-free parts whose
    weighted product is f, which must be primitive with positive leading
    coefficient and degree at least one.  f is returned whole when it is
    square free modulo one of the first five primes (:func:`_squarefree_prime`
    proves it square free); only other inputs run Yun's algorithm, with
    its integer gcds."""
    if _squarefree_prime(f, (2, 3, 5, 7, 11)) is not None:
        return [(f, 1)]
    out = []
    fp = derivative(f)
    a = gcd(f, fp)
    b = try_div(f, a)
    c = try_div(fp, a)
    d = sub(c, derivative(b))
    k = 1
    while degree(b) > 0:
        a_k = gcd(b, d)
        if degree(a_k) > 0:
            out.append((a_k, k))
        b = try_div(b, a_k)
        c = try_div(d, a_k)
        d = sub(c, derivative(b))
        k += 1
    return out


# ---------------------------------------------------------------------------
# the trace transform of palindromic polynomials


def has_trace(h):
    """Whether h is palindromic with h(1) h(-1) != 0 (so of even degree)."""
    return h == h[::-1] and eval_at(h, 1) != 0 and eval_at(h, -1) != 0


def to_trace(h):
    """D with t^-m h(t) = D(t + 1/t) for h of degree 2m, or None unless
    :func:`has_trace`.  t^-m h(t) is a sum of t^k + t^-k = P_k(x), P_0 = 2,
    P_1 = x, P_(k+1) = x P_k - P_(k-1)."""
    if not has_trace(h):
        return None
    m = len(h) // 2
    out, prev, cur = [h[m]], [2], [0, 1]
    for c in h[m + 1:]:
        out = add(out, mul_ground(cur, c))
        prev, cur = cur, sub([0, *cur], prev)
    return out


def from_trace(d):
    """t^deg(d) d(t + 1/t), palindromic of degree 2 deg(d), by Horner's
    rule: t^(j+1) (H x + c) = t^j H (t^2 + 1) + c t^(j+1)."""
    out = [d[-1]]
    for j, c in enumerate(reversed(d[:-1]), 1):
        out = add(mul(out, [1, 0, 1]), [0] * j + [c])
    return out


def _may_split(d):
    """Whether the lift of an irreducible d can be +-f(t) f*(t) with
    f* = t^deg(f) f(1/t).  Then d(2) = +-f(1)^2 and d(-2) = +-f(-1)^2 with
    one sign: both values need that sign and square absolute values."""
    a, b = eval_at(d, 2), eval_at(d, -2)
    return ((a > 0) == (b > 0) and math.isqrt(abs(a)) ** 2 == abs(a)
            and math.isqrt(abs(b)) ** 2 == abs(b))


# ---------------------------------------------------------------------------
# arithmetic over GF(p)


def gf_trunc(f, p):
    return strip([c % p for c in f])


def gf_sub(f, g, p):
    return gf_trunc(sub(f, g), p)


def gf_mul(f, g, p):
    return gf_trunc(mul(f, g), p)


def gf_mul_ground(f, c, p):
    return gf_trunc(mul_ground(f, c), p)


def gf_divmod(f, g, p):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    df, dg = degree(f), degree(g)
    if df < dg:
        return [], list(f)
    inv = pow(g[-1], -1, p)
    rem = [c % p for c in f]
    q = [0] * (df - dg + 1)
    for k in range(df - dg, -1, -1):
        t = (rem[k + dg] * inv) % p
        q[k] = t
        if t:
            for i, gc in enumerate(g):
                rem[k + i] = (rem[k + i] - t * gc) % p
    return strip(q), strip(rem)


def gf_rem(f, g, p):
    return gf_divmod(f, g, p)[1]


def gf_quo(f, g, p):
    return gf_divmod(f, g, p)[0]


def gf_monic(f, p):
    if not f:
        return []
    return gf_mul_ground(f, pow(f[-1], -1, p), p)


def gf_gcd(f, g, p):
    f, g = gf_trunc(f, p), gf_trunc(g, p)
    while g:
        f, g = g, gf_rem(f, g, p)
    return gf_monic(f, p)


def gf_gcdex(f, g, p):
    """Extended Euclid: returns (s, t, h) with s*f + t*g = h, h monic."""
    r0, r1 = gf_trunc(f, p), gf_trunc(g, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, gf_sub(s0, gf_mul(q, s1, p), p)
        t0, t1 = t1, gf_sub(t0, gf_mul(q, t1, p), p)
    if not r0:
        return s0, t0, []
    inv = pow(r0[-1], -1, p)
    return (gf_mul_ground(s0, inv, p), gf_mul_ground(t0, inv, p),
            gf_mul_ground(r0, inv, p))


def gf_pow_mod(f, e, mod, p):
    out = [1]
    base = gf_rem(f, mod, p)
    while e:
        if e & 1:
            out = gf_rem(gf_mul(out, base, p), mod, p)
        base = gf_rem(gf_mul(base, base, p), mod, p)
        e >>= 1
    return out


def _squarefree_prime(f, primes):
    """The first of ``primes`` that does not divide lc(f) and modulo which f
    (of degree >= 1) is square free, or None.  Such a prime proves f square
    free over Z: a square g^2 dividing f would reduce to one of the same
    degree."""
    for q in primes:
        if f[-1] % q and degree(gf_gcd(f, derivative(f), q)) == 0:
            return q
    return None


def _gf_nullspace(m, p):
    """Basis of the right nullspace of the square matrix m over GF(p)."""
    rows = [[c % p for c in row] for row in m]
    n = len(rows)
    pivots = []
    r = 0
    for col in range(n):
        pr = next((i for i in range(r, n) if rows[i][col]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][col]:
                fac = rows[i][col]
                rows[i] = [(a - fac * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == n:
            break
    basis = []
    for free_col in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[free_col] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-rows[i][free_col]) % p
        basis.append(v)
    return basis


def gf_factor(f, p):
    """Monic irreducible factors of a monic square-free f over GF(p),
    sorted by (degree, coefficients).

    Roots first: f is evaluated at every residue, and each root a gives
    the factor x - a.  That costs no more than one pass of Berlekamp's
    splitting loop, which tries every residue too, because the primes
    :func:`zassenhaus` picks are tiny.  The root-free rest is irreducible
    when its degree is 2 or 3, and goes to :func:`berlekamp` when it is 4
    or more.
    """
    out, rest = [], f
    for a in range(p):
        if eval_at(rest, a) % p == 0:
            out.append([-a % p, 1])
            rest = gf_quo(rest, out[-1], p)
    if degree(rest) >= 4:
        out += berlekamp(rest, p)
    elif degree(rest) >= 2:
        out.append(rest)
    return sorted(out, key=lambda g: (degree(g), g))


def berlekamp(f, p):
    """Monic irreducible factors of a monic square-free f over GF(p), which
    :func:`gf_factor` calls only with a root-free f of degree 4 or more.

    Deterministic for any prime, including 2: the splitting loop tries
    every residue s in GF(p).
    """
    n = degree(f)
    xp = gf_pow_mod([0, 1], p, f, p)
    rows = []
    cur = [1]
    for _ in range(n):
        rows.append(cur + [0] * (n - len(cur)))
        cur = gf_rem(gf_mul(cur, xp, p), f, p)
    # Berlekamp subalgebra: v with v(Q - I) = 0, Q[i] = x^(p i) mod f.
    m = [[(rows[i][j] - (1 if i == j else 0)) % p for j in range(n)]
         for i in range(n)]
    mt = [[m[i][j] for i in range(n)] for j in range(n)]
    basis = _gf_nullspace(mt, p)
    r = len(basis)
    factors = [list(f)]
    if r == 1:
        return factors
    for v in basis:
        vp = strip(v)
        if degree(vp) < 1:
            continue
        split = []
        for w in factors:
            rest = w
            for s in range(p):
                if degree(rest) < 1:
                    break
                g = gf_gcd(rest, gf_sub(vp, [s], p), p)
                if 0 < degree(g) < degree(rest):
                    split.append(g)
                    rest = gf_quo(rest, g, p)
                elif degree(g) == degree(rest):
                    break
            if degree(rest) > 0:
                split.append(rest)
        factors = split
        if len(factors) == r:
            break
    return factors


# ---------------------------------------------------------------------------
# Hensel lifting


def trunc_sym(f, m):
    """Reduce coefficients to symmetric representatives in (-m/2, m/2]."""
    half = m // 2
    return strip([c - m if c > half else c for c in (c % m for c in f)])


def hensel_lift(p, f, factors):
    """Lift the monic pairwise-coprime factors of f modulo p, p not
    dividing lc(f), one quadratic step at a time: the k-th value yielded
    is (p^(2^k), the monic lifts of ``factors`` modulo it, in order).

    The factors are the leaves of a balanced binary tree.  A node holds
    g, lc(f) times the product of its left leaves, h, the monic product
    of its right ones, and s, t with s g + t h = 1.  For each value, every
    node lifts g and h under its parent's lifted g or h (multifactor
    Hensel lifting, von zur Gathen and Gerhard, Modern Computer Algebra,
    Algorithm 15.17, one precision level at a time).  s and t are lifted
    only when the caller asks for the next value, so a caller that stops
    at the first exact factors pays for no Bezout step it does not use.
    """

    def build(f, factors):
        if len(factors) == 1:
            return None
        k = len(factors) // 2
        g, h = [f[-1] % p], [1]
        for fi in factors[:k]:
            g = gf_mul(g, fi, p)
        for fi in factors[k:]:
            h = gf_mul(h, fi, p)
        # Euclid's cofactors have deg s < deg h and deg t < deg g, as needed
        s, t, _ = gf_gcdex(g, h, p)
        return [trunc_sym(x, p) for x in (g, h, s, t)] + [
            build(g, factors[:k]), build(h, factors[k:])]

    def lift(node, f, mm, leaves):
        """From f = g h modulo m = sqrt(mm) to f = G H modulo mm, G = g and
        H = h modulo m; a leaf appends f made monic."""
        if node is None:
            leaves.append(f if f[-1] == 1 else trunc_sym(mul_ground(f, pow(f[-1], -1, mm)), mm))
            return
        g, h, s, t = node[:4]
        e = trunc_sym(sub(f, mul(g, h)), mm)
        # gf_divmod only inverts the leading coefficient, 1 modulo any mm
        q, r = gf_divmod(mul(s, e), h, mm)
        node[:2] = trunc_sym(add(g, add(mul(t, e), mul(q, g))), mm), trunc_sym(add(h, r), mm)
        lift(node[4], node[0], mm, leaves)
        lift(node[5], node[1], mm, leaves)

    def lift_bezout(node, mm):
        """From s g + t h = 1 modulo sqrt(mm), g and h lifted, to modulo mm."""
        if node is not None:
            g, h, s, t = node[:4]
            b = trunc_sym(sub(add(mul(s, g), mul(t, h)), [1]), mm)
            c, d = gf_divmod(mul(s, b), h, mm)
            node[2:4] = trunc_sym(sub(s, d), mm), trunc_sym(sub(t, add(mul(t, b), mul(c, g))), mm)
            lift_bezout(node[4], mm)
            lift_bezout(node[5], mm)

    tree, m = build(f, factors), p
    while True:
        m *= m
        leaves = []
        lift(tree, f, m, leaves)
        yield m, leaves
        lift_bezout(tree, m)


# ---------------------------------------------------------------------------
# factorization over Z


def _primes():
    yield 2
    n = 3
    while True:
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            yield n
        n += 2


def _factor_bound(f):
    """Coefficient bound for lc(f) times any monic rational factor of f."""
    n = degree(f)
    a = max(abs(c) for c in f)
    s = math.isqrt(n + 1)
    if s * s < n + 1:
        s += 1
    return s * (1 << n) * a * abs(f[-1])


def zassenhaus(f):
    """Irreducible factors of f: primitive, square free, lc > 0, deg >= 1.

    f is reduced modulo the first prime p that keeps it square free and
    of the same degree, and factored there by :func:`gf_factor`.  The
    modular factors are lifted by :func:`hensel_lift`.  After every
    quadratic step, each single lift is tried as a factor by exact
    division; a true factor with small coefficients is found, and the
    lifting stops, long before the Mignotte-style bound of
    :func:`_factor_bound`.  Only the lifts still unmatched at that bound
    are recombined in subsets of two or more, and those trials count
    against ``RECOMBINATION_BUDGET``.
    """
    n = degree(f)
    if n == 1:
        return [list(f)]
    p = _squarefree_prime(f, _primes())
    modular = gf_factor(gf_monic(gf_trunc(f, p), p), p)
    if len(modular) == 1:
        return [list(f)]
    big_b = _factor_bound(f)
    out, cur = [], list(f)
    remaining = list(range(len(modular)))

    def split_off(subset):  # whether the lifts modulo m in subset give a factor of cur
        nonlocal cur
        cand = [cur[-1]]
        for i in subset:
            cand = mul(cand, lifted[i])
        _, cand = primitive(trunc_sym(cand, m))
        if cand[-1] < 0:
            cand = neg(cand)
        # the constant term must divide, which rules out most candidates
        quo = None if cand[0] and cur[0] % cand[0] else try_div(cur, cand)
        if quo is None:
            return False
        out.append(cand)
        cur = quo
        remaining[:] = [i for i in remaining if i not in subset]
        return True

    for m, lifted in hensel_lift(p, f, modular):
        for i in list(remaining):
            if len(remaining) > 1:
                split_off((i,))
        if len(remaining) == 1 or m > 2 * big_b:
            break
    size = 2
    trials = 0
    while 2 * size <= len(remaining):
        for subset in combinations(remaining, size):
            trials += 1
            if trials > RECOMBINATION_BUDGET:
                raise PolynomialError(
                    f"factoring a degree-{n} part needs more than "
                    f"{RECOMBINATION_BUDGET} recombination trials")
            if split_off(subset):
                break
        else:
            size += 1
    out.append(cur)
    return out


def factor_primitive(f):
    """(irreducible, multiplicity) pairs for primitive f, lc > 0, deg >= 1,
    in no particular order (the caller sorts its canonical factors).

    An f that has a trace polynomial is factored through it, whose
    square-free parts lift to those of f.  ``FACTOR_DEGREE_CAP`` bounds
    the degree of the trace polynomial, or of f when there is none.
    """
    out = []
    trace = to_trace(f)
    if degree(f if trace is None else trace) > FACTOR_DEGREE_CAP:
        raise PolynomialError("degree limit exceeded")
    if trace is not None:
        for part, mult in squarefree_decomposition(trace):
            for d in zassenhaus(part):
                lift = from_trace(d)
                for w in zassenhaus(lift) if _may_split(d) else [lift]:
                    out.append((w, mult))
    else:
        for part, mult in squarefree_decomposition(f):
            for w in zassenhaus(part):
                out.append((w, mult))
    return out
