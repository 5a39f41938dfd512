"""Correctness oracles, run outside the timed phase.

None of them calls the library code it checks.  Signatures come from an
exact symmetric elimination over the rationals, divisibility from long
division over the rationals, and determinants from a fraction-free
elimination written here.  A failed check raises ``OracleError``.
"""

from __future__ import annotations

import hashlib
import math
import re
import shlex
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product

from .gen import CENSUS_PROFILE, conv

# sha256 prefix of the report_tsv text of the seed-0 census552 table
# without candidates, as the seed code writes it.
SEED0_REPORT_SHA256_PREFIX = "606f0fffbe2b8862"

# Angles in (0, pi) of the unit-circle roots of the polynomials of the
# bundled knots with Seifert matrices, in closed form: a - b t + a t^2 has
# them at cos(theta) = b / 2a, 5_1 and 7_1 have the primitive 10th and
# 14th roots of unity, 4_1 and 6_1 have none.
COMPONENT_ROOT_ANGLES = {
    "3_1": (math.acos(1 / 2),),
    "4_1": (),
    "5_1": (math.pi / 5, 3 * math.pi / 5),
    "5_2": (math.acos(3 / 4),),
    "6_1": (),
    "7_1": (math.pi / 7, 3 * math.pi / 7, 5 * math.pi / 7),
    "7_2": (math.acos(5 / 6),),
    "7_4": (math.acos(7 / 8),),
}

# Required factor of 11n_152 in the bundled unknown_11 table, from the
# provenance notes of that file: (2-6t+7t^2-6t^3+2t^4) x P1.
REQUIRED_11N_152 = (2, -6, 7, -6, 2)

ANGLE_TOL = 1e-9


class OracleError(AssertionError):
    """An output of the program disagrees with an oracle."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# exact linear algebra


def det_int(rows) -> int:
    """Fraction-free (Bareiss) determinant with row pivoting."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def sym_signature(rows) -> int:
    """Signature of a symmetric rational matrix by block LDL^T elimination:
    a nonzero diagonal pivot adds its sign, and when every remaining
    diagonal entry is zero a 2x2 pivot [[0, b], [b, 0]] adds nothing."""
    m = [[Fraction(x) for x in r] for r in rows]
    active = list(range(len(m)))
    sig = 0
    while active:
        i = next((i for i in active if m[i][i]), None)
        if i is not None:
            d = m[i][i]
            sig += 1 if d > 0 else -1
            active.remove(i)
            for a in active:
                f = m[a][i] / d
                if f:
                    ra, ri = m[a], m[i]
                    for c in active:
                        ra[c] -= f * ri[c]
            continue
        pair = next(((i, j) for i in active for j in active
                     if i < j and m[i][j]), None)
        if pair is None:
            break
        i, j = pair
        active.remove(i)
        active.remove(j)
        b = m[i][j]
        old = {a: (m[a][i], m[a][j]) for a in active}
        for a in active:
            ai, aj = old[a]
            if ai or aj:
                for c in active:
                    ci, cj = old[c]
                    m[a][c] -= (ai * cj + aj * ci) / b
    return sig


def lt_signature_exact(entries, u: Fraction) -> int:
    """Levine-Tristram signature at omega = e^(i theta), u = tan(theta/2).

    The form (1-w)V + (1-conj w)V^T divided by sin(theta) is
    H = u(V+V^T) - i(V-V^T); with u = p/q, q(V+V^T)u and q(V-V^T) give the
    integer real form [[pS, qK], [-qK, pS]], whose signature is twice
    that of H.
    """
    n = len(entries)
    p, q = u.numerator, u.denominator
    s = [[entries[i][j] + entries[j][i] for j in range(n)] for i in range(n)]
    k = [[entries[i][j] - entries[j][i] for j in range(n)] for i in range(n)]
    real = [[p * s[i][j] for j in range(n)] + [q * k[i][j] for j in range(n)]
            for i in range(n)]
    real += [[-q * k[i][j] for j in range(n)] + [p * s[i][j] for j in range(n)]
             for i in range(n)]
    twice = sym_signature(real)
    check(twice % 2 == 0, "real form of a Hermitian matrix has odd signature")
    return twice // 2


def rational_in_arc(lo: float, hi: float, at: float = 0.5) -> Fraction:
    """A rational u = tan(theta/2) of small height, with theta near
    lo + at * (hi - lo) and well inside the open arc (lo, hi)."""
    a, b = math.tan(lo / 2), math.tan(min(hi, math.pi * (1 - 1e-12)) / 2)
    target = math.tan((lo + at * (hi - lo)) / 2)
    slack = (b - a) / 16
    for bound in (10, 100, 10 ** 4, 10 ** 6, 10 ** 9):
        u = Fraction(target).limit_denominator(bound)
        if a + slack < u < b - slack and abs(u - target) < slack:
            return u
    return Fraction(target)


# ---------------------------------------------------------------------------
# seifert_profiles


def check_alexander(entries, coeffs) -> None:
    """det(V - tV^T) equals the canonical polynomial up to a unit +-t^k:
    compared at t = -1 (up to sign) and at t = 2, 3 (up to +-t^k)."""
    n = len(entries)
    for t in (-1, 2, 3):
        d = det_int([[entries[i][j] - t * entries[j][i] for j in range(n)]
                     for i in range(n)])
        v = sum(c * t ** e for e, c in enumerate(coeffs))
        if t == -1 or v == 0:
            check(abs(d) == abs(v), f"polynomial disagrees at t={t}")
            continue
        check(d % v == 0, f"polynomial disagrees at t={t}")
        ratio = abs(d // v)
        while ratio % t == 0:
            ratio //= t
        check(ratio == 1, f"polynomial disagrees at t={t}")


def check_product(factors, coeffs) -> None:
    """The factors multiply back to the polynomial."""
    out = [1]
    for q, m in factors:
        for _ in range(m):
            out = conv(out, list(q))
    check(out == list(coeffs), "factors do not multiply to the polynomial")


def check_murasugi(entries, signature: int) -> None:
    n = len(entries)
    s = [[entries[i][j] + entries[j][i] for j in range(n)] for i in range(n)]
    check(sym_signature(s) == signature, "Murasugi signature is wrong")


def check_arc(entries, lo: float, hi: float, value: int) -> None:
    """Exact values near both ends of the arc equal the reported one, so a
    missed root between them shows."""
    for at in (1 / 8, 7 / 8):
        exact = lt_signature_exact(entries, rational_in_arc(lo, hi, at))
        check(exact == value, f"arc ({lo:.9f}, {hi:.9f}) has value {value}, "
                              f"exact {exact} at {at:.3f} of it")


@lru_cache(maxsize=None)
def component_jumps(name: str, entries) -> tuple[tuple[float, int], ...]:
    """(angle, jump) of a bundled knot's signature function, from exact
    evaluations between its closed-form root angles."""
    bounds = (0.0, *COMPONENT_ROOT_ANGLES[name], math.pi)
    values = [lt_signature_exact(entries, rational_in_arc(lo, hi))
              for lo, hi in zip(bounds, bounds[1:])]
    return tuple((a, values[i + 1] - values[i])
                 for i, a in enumerate(COMPONENT_ROOT_ANGLES[name]))


def expected_jump_points(components, bundled):
    """(angle, jump, averaged value) of a block sum of bundled knots,
    mirrors negated; the signature function of a block sum is the sum of
    those of its blocks, and a congruence changes nothing."""
    jumps: dict[float, int] = {}
    for name, mirrored in components:
        for angle, jump in component_jumps(name, bundled[name]):
            jumps[angle] = jumps.get(angle, 0) + (-jump if mirrored else jump)
    out, value = [], 0
    for angle in sorted(jumps):
        out.append((angle, jumps[angle], value + jumps[angle] // 2))
        value += jumps[angle]
    return out


def check_jump_points(got, expected) -> None:
    check(len(got) == len(expected), f"jumps {got} expected {expected}")
    for (ga, gj, gv), (ea, ej, ev) in zip(got, expected):
        check(abs(ga - ea) <= ANGLE_TOL and gj == ej and gv == ev,
              f"jump {(ga, gj, gv)} expected {(ea, ej, ev)}")


# ---------------------------------------------------------------------------
# match_pool


def divides_q(divisor, dividend) -> bool:
    """Long division over the rationals; True when the remainder is zero."""
    r = [Fraction(c) for c in dividend]
    d = [Fraction(c) for c in divisor]
    while len(r) >= len(d):
        t = r[-1] / d[-1]
        off = len(r) - len(d)
        for i, c in enumerate(d):
            r[off + i] -= t * c
        r.pop()
    return not any(r)


def brute_force_matches(query, required, pool, max_summands):
    """Every sum of 1..max_summands pool knots (with repetition, mirrors
    free) of smaller total genus whose signature can reach the query's and
    whose polynomial the required factor divides over the rationals.
    Returns (expression, genus, crossings, coefficients), sorted like the
    matcher's output."""
    ordered = sorted(pool, key=lambda r: (r.crossings, r.name))
    out = []
    for size in range(1, max_summands + 1):
        for combo in combinations_with_replacement(ordered, size):
            genus = sum(r.genus3 for r in combo)
            if genus >= query.genus3:
                continue
            if not any(sum(e * r.signature for e, r in zip(signs, combo))
                       == query.signature
                       for signs in product((1, -1), repeat=size)):
                continue
            poly = [1]
            for r in combo:
                poly = conv(poly, list(r.alexander.coeffs))
            if divides_q(required, poly):
                out.append(("+".join(r.name for r in combo), genus,
                            sum(r.crossings for r in combo), tuple(poly)))
    out.sort(key=lambda m: (m[1], m[2], m[0]))
    return out


# ---------------------------------------------------------------------------
# census552


def check_census(stdout: str, report: str, category_of) -> None:
    """Every row has the category its generator gave it, and the counts
    are the census profile, both in the report and on stdout."""
    lines = report.rstrip("\n").split("\n")
    check(lines[0].split("\t")[:4] == ["name", "gc_lower", "gc_upper",
                                       "category"], "bad report header")
    got = {}
    for line in lines[1:]:
        fields = line.split("\t")
        got[fields[0]] = fields[3]
    check(got == category_of, "census categories differ from the generator")
    expected = "".join(f"{c}\t{n}\n" for c, n in CENSUS_PROFILE.items())
    expected += f"total\t{sum(CENSUS_PROFILE.values())}\n"
    check(sorted(stdout.splitlines()) == sorted(expected.splitlines()),
          f"census counts {stdout!r}")


def check_seed0_report(report: str) -> None:
    digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
    check(digest.startswith(SEED0_REPORT_SHA256_PREFIX),
          f"seed-0 report sha256 {digest[:16]}")


# ---------------------------------------------------------------------------
# cli_small


def readme_examples(readme: str, files: dict):
    """(argv after "kcg", expected README lines) for each example in the
    README that shows its output.  ``files`` maps the example file names
    to real paths."""
    out = []
    current = None
    for line in readme.splitlines():
        if line.startswith("kcg "):
            argv = [files.get(a, a) for a in shlex.split(line, comments=True)]
            current = (tuple(argv[1:]), [])
            out.append(current)
        elif line.startswith("# ") and current is not None:
            current[1].append(line)
        else:
            current = None
    return [(argv, lines) for argv, lines in out if lines]


def check_readme_output(stdout: str, readme_lines) -> None:
    """The README shows each stdout line after "# ", drawing each tab as a
    run of two or more aligning spaces; with the runs turned back into
    tabs, the output must equal the README lines byte for byte."""
    want = "".join(re.sub(" {2,}", "\t", line[2:]) + "\n"
                   for line in readme_lines)
    check(stdout == want, f"stdout {stdout!r} differs from the README {want!r}")


def factor_stdout(expect) -> str:
    return " * ".join(f"({';'.join(map(str, q))})^{m}" for q, m in expect) + "\n"


def invariants_stdout(record, bundled) -> str:
    lines = [f"alexander\t{record.alexander.to_text()}",
             f"signature\t{record.signature}"]
    for angle, jump, avg in expected_jump_points(((record.name, False),),
                                                 bundled):
        lines.append(f"jump\t{angle:.9f}\t{jump}\t{avg}")
    return "\n".join(lines) + "\n"


def match_stdout(matches) -> str:
    return "".join(f"{e}\t{g}\t{c}\t{';'.join(map(str, p))}\n"
                   for e, g, c, p in matches)
