"""factor against closed forms: cyclotomic products of torus knots,
Swinnerton-Dyer polynomials and random products of known irreducibles.

Expected factor multisets come from the oracles, never from kcg: the
canonical form is reproduced with ``reverse_and_normalize`` and products
with ``conv_mul``.
"""

import functools
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bench import gen
from kcg import _intpoly, laurent
from kcg.errors import PolynomialError
from kcg.laurent import LaurentPoly, factor
from kcg.tabledata import reference_table
from oracles import (conv_mul, cyclotomic, reverse_and_normalize, swinnerton_dyer,
                     torus_alexander, torus_cyclotomic_indices)

TORUS = [(p, q) for p in range(2, 8) for q in range(p + 1, 9) if math.gcd(p, q) == 1]


def canon(cs):
    """Oracle canonical form: no zero ends, positive constant term."""
    return tuple(reverse_and_normalize(list(reversed(cs))))


def product(factors):
    """conv_mul product of coefficient lists, in canonical form."""
    return canon(functools.reduce(conv_mul, factors, [1]))


def assert_factors(coeffs, expected):
    """factor(coeffs) is the multiset ``expected`` (canonical tuple ->
    multiplicity), and its factors multiply back to the input."""
    p = LaurentPoly(canon(coeffs))
    got = factor(p).factors
    assert {q.coeffs: m for q, m in got} == dict(expected)
    assert product([list(q.coeffs) for q, m in got for _ in range(m)]) == p.coeffs


def torus_multiset(knots):
    """Cyclotomic factor multiset of a connected sum of torus knots."""
    return Counter(canon(cyclotomic(d)) for p, q in knots
                   for d in torus_cyclotomic_indices(p, q))


class TestTorusKnots:
    def test_oracle_agrees_with_the_closed_form(self):
        for p, q in TORUS:
            cyclo = [cyclotomic(d) for d in torus_cyclotomic_indices(p, q)]
            assert product(cyclo) == canon(torus_alexander(p, q))

    @pytest.mark.parametrize("p,q", TORUS, ids=[f"T{p}_{q}" for p, q in TORUS])
    def test_factors_are_the_cyclotomic_product(self, p, q):
        assert_factors(torus_alexander(p, q), torus_multiset([(p, q)]))

    @pytest.mark.parametrize("knots", [
        [(2, 3), (2, 3)],
        [(2, 3), (3, 4)],
        [(2, 3), (2, 3), (2, 3), (2, 5), (2, 5)],
        [(3, 4), (3, 5), (2, 5), (4, 5)],
        [(2, 7), (3, 7), (2, 7), (5, 7)],
        [(3, 8), (5, 8), (2, 3), (2, 3)],
    ], ids=["T23^2", "T23+T34", "T23^3+T25^2", "T34+T35+T25+T45",
            "T27^2+T37+T57", "T38+T58+T23^2"])
    def test_connected_sums_and_powers(self, knots):
        delta = functools.reduce(conv_mul, (torus_alexander(p, q) for p, q in knots))
        assert_factors(delta, torus_multiset(knots))

    # the degree cap bounds the trace polynomial, 60 and 42 here, not the input
    @pytest.mark.parametrize("knots", [[(11, 13)], [(3, 8), (5, 8), (7, 8)]],
                             ids=["T11_13", "T38+T58+T78"])
    def test_past_degree_64_through_the_trace(self, knots):
        delta = functools.reduce(conv_mul, (torus_alexander(p, q) for p, q in knots))
        assert len(delta) - 1 in (120, 84)
        start = time.perf_counter()
        assert_factors(delta, torus_multiset(knots))
        assert time.perf_counter() - start < 2

    def test_trace_past_the_cap_is_refused(self):
        p = LaurentPoly(canon(torus_alexander(13, 16)))  # degree 180, trace 90
        with pytest.raises(PolynomialError, match="degree limit exceeded"):
            factor(p)


PAIR = ((2, -1), (1, -2))  # t - 2 and 2t - 1, each the other's reciprocal
PHI6 = canon(cyclotomic(6))
GOLDEN = (1, -3, 1)  # t^2 - 3t + 1, symmetric, real roots


class TestTraceRouteEdges:
    @pytest.mark.parametrize("factors", [
        [PAIR[0], PAIR[1]],
        [PAIR[0], PAIR[1], PAIR[0], PAIR[1], PHI6],
        [PAIR[0], PAIR[1], GOLDEN, (3, -2), (2, -3)],
        [canon(cyclotomic(12))],  # its trace x^2 - 3 has square values at +-2
    ], ids=["pair", "pair^2*phi6", "two-pairs*golden", "phi12"])
    def test_palindromic_inputs(self, factors):
        assert_factors(product(factors), Counter(factors))

    @pytest.mark.parametrize("factors", [
        [(1, -1), (1, -1)],  # the lift of x - 2
        [(1, 1), (1, 1)],  # the lift of x + 2
        [(1, -1), (1, -1), GOLDEN],
        [(1, 1), (1, 1), PHI6, PHI6],
        [(1, -1), (1, -1), (1, 1), (1, 1)],
    ], ids=["(t-1)^2", "(t+1)^2", "(t-1)^2*golden", "(t+1)^2*phi6^2",
            "(t-1)^2(t+1)^2"])
    def test_roots_at_plus_or_minus_one(self, factors):
        assert_factors(product(factors), Counter(factors))

    @pytest.mark.parametrize("factors", [
        [(1, 1), GOLDEN],
        [(1, 1), (1, 1), (1, 1)],
        [(1, 1), PAIR[0], PAIR[1]],
    ], ids=["(t+1)*golden", "(t+1)^3", "(t+1)*pair"])
    def test_palindromic_odd_degree(self, factors):
        assert_factors(product(factors), Counter(factors))

    @pytest.mark.parametrize("factors", [
        [(1, -1), GOLDEN],
        [(1, -1), (1, 1)],
        [(1, -1), PHI6, PAIR[0], PAIR[1]],
    ], ids=["(t-1)*golden", "t^2-1", "(t-1)*phi6*pair"])
    def test_antipalindromic(self, factors):
        coeffs = product(factors)
        assert coeffs == tuple(-c for c in reversed(coeffs))
        assert_factors(coeffs, Counter(factors))

    def test_nonzero_content(self):
        assert_factors([3 * c for c in GOLDEN], {(3,): 1, GOLDEN: 1})
        pair = product(PAIR)
        assert_factors([12 * c for c in pair], {(12,): 1, PAIR[0]: 1, PAIR[1]: 1})

    @pytest.mark.parametrize("factors", [
        [(2, -1), (1, 1, 1)],
        [(2, 1, 3)],
        [(2, 1, 3), (2, 1, 3), (1, -2)],
        [(1, 1, 0, 1), (1, -1)],
    ], ids=["(t-2)*phi3", "3t^2+t+2", "(3t^2+t+2)^2(1-2t)", "(t^3+t+1)(t-1)"])
    def test_non_symmetric(self, factors):
        assert_factors(product(factors), Counter(factors))


class TestRecombinationBudget:
    def test_degree_16_swinnerton_dyer_still_factors(self):
        coeffs = canon(swinnerton_dyer([2, 3, 5, 7]))
        assert len(coeffs) == 17
        assert_factors(coeffs, {coeffs: 1})

    def test_degree_32_swinnerton_dyer_is_refused_in_time(self):
        p = LaurentPoly(canon(swinnerton_dyer([2, 3, 5, 7, 11])))
        assert p.degree == 32
        start = time.perf_counter()
        with pytest.raises(PolynomialError, match="recombination trials"):
            factor(p)
        assert time.perf_counter() - start < 5

    def test_palindromic_lift_of_degree_16_factors(self):
        # t^16 SD(t + 1/t), by the closed form of the trace substitution
        sd = swinnerton_dyer([2, 3, 5, 7])
        lift = [0] * 33
        for k, c in enumerate(sd):
            for j in range(k + 1):
                lift[16 - k + 2 * j] += c * math.comb(k, j)
        p = LaurentPoly(canon(lift))
        got = factor(p).factors
        assert product([list(q.coeffs) for q, m in got for _ in range(m)]) == p.coeffs


# t^4 - 5t^2 + 1 = SD(2t)/16 for SD = swinnerton_dyer([3, 7]), whose roots are
# +-sqrt 3 +- sqrt 7: irreducible, and its trace x^2 - 7 splits modulo 3
SD37_HALVED = canon([c * 2 ** k // 16 for k, c in enumerate(swinnerton_dyer([3, 7]))])
SD235 = canon(swinnerton_dyer([2, 3, 5]))
SD237 = canon(swinnerton_dyer([2, 3, 7]))


@pytest.fixture
def kernel(monkeypatch):
    """Records calls to the modular kernel of ``kcg._intpoly`` as (name,
    arguments, result), so that a test can check that its input takes the
    path it is meant to.  ``gcd`` is called only by Yun's algorithm, and
    ``hensel_lift`` logs (p, f) and the modulus of every quadratic step."""
    log = []
    for name in ("gf_factor", "berlekamp", "gcd"):
        def spy(*args, _name=name, _real=getattr(_intpoly, name)):
            out = _real(*args)
            log.append((_name, args, out))
            return out
        monkeypatch.setattr(_intpoly, name, spy)

    def lift_spy(p, f, factors, _real=_intpoly.hensel_lift):
        for m, lifted in _real(p, f, factors):
            log.append(("hensel_lift", (p, f), m))
            yield m, lifted
    monkeypatch.setattr(_intpoly, "hensel_lift", lift_spy)
    return log


def calls(log, name):
    return [(args, out) for n, args, out in log if n == name]


def last_lift(log):
    """(f, modulus) of the last quadratic step."""
    (_, f), m = calls(log, "hensel_lift")[-1]
    return f, m


class TestModularPaths:
    # each is irreducible with exactly two modular factors at the scan's
    # prime: on the trace (SD37_HALVED), on the lift of an irreducible trace
    # (cyclotomic), or on a non-palindromic input (7 - t^2)
    @pytest.mark.parametrize("coeffs", [
        SD37_HALVED, canon(cyclotomic(12)), canon(cyclotomic(15)),
        canon(cyclotomic(17)), (7, 0, -1),
    ], ids=["SD37_halved", "phi12", "phi15", "phi17", "7-t^2"])
    def test_two_modular_factors_are_lifted_to_the_bound(self, kernel, coeffs):
        assert_factors(coeffs, {coeffs: 1})
        assert 2 in [len(out) for _, out in calls(kernel, "gf_factor")]
        f, m = last_lift(kernel)
        assert m > 2 * _intpoly._factor_bound(f)

    def test_lifting_stops_at_the_first_exact_factor(self, kernel):
        # two modular factors, found exactly only once the modulus passes
        # 2 * 3000007, and still far below the coefficient bound
        a, b = (1000003, 0, 1), (3000007, 0, 1)
        assert_factors(conv_mul(a, b), {a: 1, b: 1})
        assert [len(out) for _, out in calls(kernel, "gf_factor")] == [2]
        f, m = last_lift(kernel)
        assert 2 * 3000007 < m < 2 * _intpoly._factor_bound(f)

    @pytest.mark.parametrize("factors", [
        [SD235, SD237],  # found by recombining four of eight modular factors
        [SD235, PAIR[0], PAIR[1]],  # left over after the two linear factors
    ], ids=["SD8*SD8'", "SD8*pair"])
    def test_factors_of_several_modular_factors(self, kernel, factors):
        assert_factors(product(factors), Counter(factors))
        # more modular factors than true ones: some factor takes several
        assert max(len(out) for _, out in calls(kernel, "gf_factor")) > len(factors)

    @pytest.mark.parametrize("factors", [
        [canon(cyclotomic(11))], [canon(cyclotomic(12))], [SD235],
        [(1000003, 0, 1), (3000007, 0, 1)],
    ], ids=["phi11", "phi12", "SD8", "two-quadratics"])
    def test_root_free_rest_of_degree_4_reaches_berlekamp(self, kernel, factors):
        assert_factors(product(factors), Counter(factors))
        rests = calls(kernel, "berlekamp")
        assert rests
        for (f, p), _ in rests:
            assert len(f) - 1 >= 4
            assert all(sum(c * a ** k for k, c in enumerate(f)) % p for a in range(p))

    @pytest.mark.parametrize("n", [5, 7, 8, 9])
    def test_root_free_rest_below_degree_4_skips_berlekamp(self, kernel, n):
        coeffs = canon(cyclotomic(n))  # its trace has degree 2 or 3
        assert_factors(coeffs, {coeffs: 1})
        assert [len(out) for _, out in calls(kernel, "gf_factor")] == [1]
        assert not calls(kernel, "berlekamp")

    @pytest.mark.parametrize("knots", [[(2, 3), (2, 3)], [(2, 5), (2, 5), (3, 4)]],
                             ids=["T23^2", "T25^2+T34"])
    def test_non_squarefree_trace_runs_yun(self, kernel, knots):
        delta = functools.reduce(conv_mul, (torus_alexander(p, q) for p, q in knots))
        assert_factors(delta, torus_multiset(knots))
        assert calls(kernel, "gcd")

    def test_squarefree_trace_skips_yun(self, kernel):
        assert_factors(torus_alexander(3, 7), torus_multiset([(3, 7)]))
        assert not calls(kernel, "gcd")


# Known irreducibles, drawn in blocks so that palindromic products, which
# take the trace route, come up often: a reciprocal pair is one block.
BLOCKS = (
    # symmetric; SD37_HALVED has two modular factors at the scan's prime
    ((1, -3, 1),), ((2, -3, 2),), ((4, -7, 4),), ((1, -3, 5, -3, 1),),
    ((2, -6, 7, -6, 2),), ((1, -5, 7, -5, 1),), (SD37_HALVED,),
    # reciprocal pairs
    ((2, -1), (1, -2)), ((3, -2), (2, -3)), ((1, -2, 3, -1), (1, -3, 2, -1)),
    ((1, 1, -1), (1, -1, -1)),
    # cyclotomic
    # (the lifts of the traces of 12 and 15 have two modular factors)
    *((canon(cyclotomic(n)),) for n in (1, 2, 3, 4, 5, 6, 8, 10, 12, 15)),
    # neither; 7 - t^2 has two modular factors at the scan's prime
    ((2, 1, 3),), ((1, 1, 0, 1),), ((1, 0, 0, 2),), ((5, -2),), ((2, -1),),
    ((7, 0, -1),),
    # constants
    ((2,),), ((3,),),
)


@settings(derandomize=True, max_examples=150, deadline=2000, database=None)
@given(st.lists(st.sampled_from(BLOCKS), min_size=1, max_size=6), st.integers(1, 2 ** 128))
# 2^89 - 1 is prime; 318665857834031151167461 = 399165290221 * 798330580441
@example([BLOCKS[0], BLOCKS[7]], 2 ** 89 - 1)
@example([BLOCKS[-2], BLOCKS[-1]], 318665857834031151167461)
def test_factor_recovers_any_product_of_known_irreducibles(blocks, content):
    """The known factors of positive degree, and the content, with the
    constant blocks, as one degree-0 factor unless it is 1."""
    factors = [q for block in blocks for q in block if len(q) > 1]
    content *= math.prod(q[0] for block in blocks for q in block if len(q) == 1)
    expected = Counter(factors)
    if content != 1:
        expected[(content,)] = 1
    assert_factors([content * c for c in product(factors)], expected)


# ---------------------------------------------------------------------------
# laurent.factorer: irreducibles found earlier in a batch are divided out
# before factor sees an input; its answer must be factor's, byte for byte

IRREDUCIBLES = [q for block in BLOCKS for q in block if len(q) > 1]


def assert_factorer_agrees(polys):
    """One factorer over ``polys``, in order, gives factor's answer on each."""
    factored = laurent.factorer()
    for p in polys:
        assert factored(p) == factor(p)


def poly(factors, content=1):
    return LaurentPoly(canon([content * c for c in product(factors)]))


@pytest.mark.parametrize("seed", range(20))
def test_factorer_matches_factor_on_seeded_products(seed):
    rng = random.Random(f"factorer-{seed}")
    assert_factorer_agrees([
        poly(rng.choices(IRREDUCIBLES, k=rng.randint(2, 4)), rng.choice((1, 1, 2, 12)))
        for _ in range(12)])


@pytest.mark.parametrize("batch", [
    [[GOLDEN, GOLDEN, PHI6], [GOLDEN] * 3, [PHI6, PHI6, GOLDEN, GOLDEN]],
    [[canon(cyclotomic(12)), PHI6], [canon(cyclotomic(12))] * 2,
     [canon(cyclotomic(n)) for n in (3, 5, 12, 15)]],
    # 2 - t vanishes at 2, and 1 - 2t is its reciprocal
    [[(2, 1, 3), PAIR[1]], [(2, 1, 3), (2, 1, 3), PAIR[0]], [PAIR[0], PAIR[1], GOLDEN]],
    [[(1, 1, 0, 1), (1, -1)], [(1, 1, 0, 1), (1, 1, 0, 1), (7, 0, -1)]],
    # 3 - t and 2 - t vanish at 3 and 2, so a quotient's value there is evaluated
    [[(3, -1), (2, -1)], [(3, -1)] * 3 + [(2, -1)] * 2 + [GOLDEN], [(1, -3), (3, -1), PHI6]],
], ids=["repeated", "cyclotomic", "non-palindromic", "root-at-one", "roots-at-2-and-3"])
@pytest.mark.parametrize("content", [1, 12])
def test_factorer_matches_factor_on_known_shapes(batch, content):
    polys = [poly(factors, content) for factors in batch]
    assert_factorer_agrees(polys)
    assert_factorer_agrees(polys[::-1])


@pytest.mark.parametrize("reverse", [False, True], ids=["table-order", "reversed"])
@pytest.mark.parametrize("seed", [0, 3])
def test_factorer_matches_factor_on_census552(seed, reverse):
    # the table's polynomials, then the candidate pool's, as a census reads them
    polys = [r.alexander for source in (gen.census_input(seed).table, reference_table())
             for r in source.records]
    assert_factorer_agrees(polys[::-1] if reverse else polys)


def test_only_new_cofactors_reach_factor(monkeypatch):
    seen = []
    real = laurent.factor

    def spy(p):
        seen.append(p.coeffs)
        return real(p)

    monkeypatch.setattr(laurent, "factor", spy)
    phi3 = canon(cyclotomic(3))
    factored = laurent.factorer()
    for factors, content in [([PHI6], 1), ([PHI6, phi3], 1), ([PHI6], 12),
                             ([phi3], 12), ([PHI6], 1)]:
        assert factored(poly(factors, content)) == real(poly(factors, content))
    assert seen == [PHI6, phi3, (12,)]


@pytest.mark.parametrize("known, factors", [
    ((1, 1, 0, 1), [(1, 1, 0, 1)] * 22),  # degree 66
    (GOLDEN, [GOLDEN] * 65),  # degree 130, trace 65
], ids=["non-palindromic", "trace"])
def test_factorer_refuses_past_the_degree_cap_whatever_it_knows(known, factors):
    factored = laurent.factorer()
    factored(LaurentPoly(known))
    for run in (factor, factored):
        with pytest.raises(PolynomialError, match="^degree limit exceeded$"):
            run(poly(factors))


# raw coefficient lists into shapes: as drawn (mostly not palindromic),
# palindromic of even and of odd degree (the latter vanishes at -1), and
# palindromic times (t - 1)^2 or (t + 1)^2, vanishing at 1 or -1
CAP_SHAPES = {
    "raw": lambda c: c,
    "even-palindrome": lambda c: c + c[-2::-1],
    "odd-palindrome": lambda c: c + c[::-1],
    "root-at-one": lambda c: conv_mul(c + c[-2::-1], [1, -2, 1]),
    "root-at-minus-one": lambda c: conv_mul(c + c[-2::-1], [1, 2, 1]),
}


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=6).filter(any),
       st.sampled_from(sorted(CAP_SHAPES)))
def test_factorer_caps_the_degree_of_the_trace_polynomial(coeffs, shape):
    """The factorer refuses exactly past the cap on the degree of the trace
    polynomial ``_intpoly.to_trace`` builds, or of the input without one."""
    p = LaurentPoly(canon(CAP_SHAPES[shape](coeffs)))
    h = list(p.coeffs)
    trace = _intpoly.to_trace(h)
    assert _intpoly.has_trace(h) == (trace is not None)
    capped = _intpoly.degree(h if trace is None else trace)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_intpoly, "FACTOR_DEGREE_CAP", capped - 1)
        with pytest.raises(PolynomialError, match="^degree limit exceeded$"):
            laurent.factorer()(p)
        patch.setattr(_intpoly, "FACTOR_DEGREE_CAP", capped)
        assert laurent.factorer()(p) == factor(p)


def test_factorer_keeps_a_palindromic_cofactor_palindromic():
    # trace degree 64 fits the cap; without 1 - 2t divided out along with
    # 2 - t, the cofactor (1 - 2t) * golden^63 would not (degree 127)
    factored = laurent.factorer()
    factored(poly([PAIR[0], (2, 1, 3)]))
    p = poly([PAIR[0], PAIR[1]] + [GOLDEN] * 63)
    assert factored(p) == factor(p)
