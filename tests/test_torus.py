"""Torus knots and their connected sums against closed forms, computed
independently of kcg: the polynomial is a cyclotomic product and the
signature function is Litherland's count."""

import collections
import functools
import math
from fractions import Fraction

import pytest

from kcg.bounds import DETERMINED, SLICE_UNKNOWN, UNDETERMINED, KnotRecord, analyze
from kcg.laurent import ONE, canonicalize, factor, poly_from_text
from kcg.seifert import alexander, signature_profile
from oracles import (block_sum, conv_mul, cyclotomic, litherland_signature, mirror,
                     torus_alexander, torus_cyclotomic_indices, torus_seifert)

TORUS = [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5), (3, 7), (5, 6), (5, 7)]


@pytest.mark.parametrize("p,q", TORUS)
def test_alexander_is_the_cyclotomic_product(p, q):
    assert alexander(torus_seifert(p, q)) == canonicalize(torus_alexander(p, q))


@pytest.mark.parametrize("p,q", TORUS)
def test_profile_arcs_match_litherland(p, q):
    for (lo, hi), value in signature_profile(torus_seifert(p, q)).arcs:
        # theta = 2 pi x at the arc's midpoint
        assert value == litherland_signature(p, q, (lo + hi) / (4 * math.pi))


GRID = [(2, 3), (2, 5), (3, 4), (2, 7), (3, 5)]
# T(p,q) # T(r,s) and T(p,q) # -T(r,s): T(2,3) # T(2,3) has repeated roots,
# a mirror cancels jumps
GRID_SUMS = [(a, b, sign) for i, a in enumerate(GRID) for b in GRID[i:] for sign in (1, -1)]
GRID_IDS = [f"T{a}#{'+' if sign > 0 else '-'}T{b}".replace(" ", "")
            for a, b, sign in GRID_SUMS]


@pytest.mark.parametrize("a,b,sign", GRID_SUMS, ids=GRID_IDS)
def test_sum_profile_arcs_match_litherland(a, b, sign):
    second = torus_seifert(*b) if sign > 0 else mirror(torus_seifert(*b))
    v = block_sum(torus_seifert(*a), second)
    assert v.size <= 16
    for (lo, hi), value in signature_profile(v).arcs:
        x = (lo + hi) / (4 * math.pi)
        assert value == litherland_signature(*a, x) + sign * litherland_signature(*b, x)


def torus_sum_record(name, knots):
    """Record of the connected sum of T(p, q), sign 1, and mirrors of
    T(p, q), sign -1, over (p, q, sign) triples; every invariant comes
    from the oracles."""
    v = block_sum(*(torus_seifert(p, q) if sign > 0 else mirror(torus_seifert(p, q))
                    for p, q, sign in knots))
    delta = functools.reduce(conv_mul, (torus_alexander(p, q) for p, q, _ in knots))
    sig = sum(sign * litherland_signature(p, q, Fraction(1, 2)) for p, q, sign in knots)
    genus = sum((p - 1) * (q - 1) // 2 for p, q, _ in knots)
    return KnotRecord(name=name, crossings=sum(min(p * (q - 1), q * (p - 1))
                                               for p, q, _ in knots),
                      alexander=canonicalize(delta), signature=sig, genus3=genus,
                      genus4=(math.ceil(abs(sig) / 2), genus),
                      slice_status=SLICE_UNKNOWN, seifert=v)


def test_jump_alone_decides_the_genus():
    # Delta = Phi_6^2 Phi_10 and sigma = 0: the jump of 4 at pi/3 forces
    # Phi_6^2 back in and raises the bound from 2 to the genus, 4
    rec = torus_sum_record("T(2,3)#T(2,3)#-T(2,5)", [(2, 3, 1), (2, 3, 1), (2, 5, -1)])
    assert rec.signature == 0
    analysis = analyze(rec, factor)
    assert (analysis.bounds.lower, analysis.bounds.upper) == (4, 4)
    assert analysis.bounds.status == DETERMINED
    assert analysis.bounds.contributors == (("polynomial+jump", 4),)
    # Phi_6 = 1;-1;1 comes back squared, forced by the jump, not by parity
    jump_forced = (poly_from_text("1;-1;1"), 2)
    assert jump_forced in analysis.required.enhanced.factors
    assert poly_from_text("1;-1;1") not in dict(analysis.required.residual.factors)


def test_slice_sum_gets_no_enhancement():
    # T(2,3)#-T(2,3) is slice: the same Phi_6^2, but no jump
    rec = torus_sum_record("T(2,3)#-T(2,3)", [(2, 3, 1), (2, 3, -1)])
    analysis = analyze(rec, factor)
    assert (analysis.bounds.lower, analysis.bounds.upper) == (0, 2)
    assert analysis.bounds.status == UNDETERMINED
    assert analysis.required.residual.expand() == analysis.required.enhanced.expand() == ONE
    assert "polynomial+jump" not in dict(analysis.bounds.contributors)


def grid_oracle(a, b, sign):
    """Residual and enhanced multisets, as {coefficients of Phi_d: its
    multiplicity}, and the lower bound of T(a) # sign T(b), from the
    cyclotomic indices and Litherland's count alone."""
    mult = collections.Counter(torus_cyclotomic_indices(*a) + torus_cyclotomic_indices(*b))

    def sigma(x):
        return litherland_signature(*a, x) + sign * litherland_signature(*b, x)

    def jumps(d):
        # Phi_d's roots in the upper half plane sit at theta = 2 pi j/d
        eps = Fraction(1, 10 ** 4)
        return [sigma(Fraction(j, d) + eps) - sigma(Fraction(j, d) - eps)
                for j in range(1, (d + 1) // 2) if math.gcd(j, d) == 1]

    residual = {d: 1 for d, m in mult.items() if m % 2}
    enhanced = {**residual, **{d: 2 for d, m in mult.items()
                               if m % 2 == 0 and any(abs(j) >= 2 for j in jumps(d))}}
    degree = sum((len(cyclotomic(d)) - 1) * m for d, m in enhanced.items())
    lower = max(math.ceil(abs(sigma(Fraction(1, 2))) / 2), degree // 2)
    as_coeffs = lambda table: {tuple(cyclotomic(d)): m for d, m in table.items()}
    return as_coeffs(residual), as_coeffs(enhanced), lower


@pytest.mark.parametrize("a,b,sign", GRID_SUMS, ids=GRID_IDS)
def test_sum_analysis_matches_the_oracles(a, b, sign):
    rec = torus_sum_record("sum", [(*a, 1), (*b, sign)])
    analysis = analyze(rec, factor)
    residual, enhanced, lower = grid_oracle(a, b, sign)
    assert {q.coeffs: m for q, m in analysis.required.residual.factors} == residual
    assert {q.coeffs: m for q, m in analysis.required.enhanced.factors} == enhanced
    assert analysis.bounds.lower == lower


def test_grid_oracle_on_a_cancelled_jump():
    # T(2,3) # -T(3,4): Delta = Phi_6^2 Phi_12, and the mirror's jump at
    # pi/3 cancels the trefoil's, so Phi_6^2 is not forced back in
    residual, enhanced, lower = grid_oracle((2, 3), (3, 4), -1)
    assert residual == enhanced == {tuple(cyclotomic(12)): 1}
    assert lower == 2
