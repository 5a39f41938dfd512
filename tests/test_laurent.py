"""Canonical-form arithmetic and integer factorization."""

import math
import random
import time

import pytest

from kcg.errors import PolynomialError
from kcg.laurent import (ONE, LaurentPoly, canonicalize, eval_int, factor,
                         is_symmetric, mul, poly_from_text, reciprocal)
from oracles import conv_mul, random_canonical, reverse_and_normalize


def P(text):
    return poly_from_text(text)


class TestCanonicalize:
    def test_strips_zeros_and_fixes_sign(self):
        assert canonicalize([0, 0, -1, 1, -1]) == P("1;-1;1")

    def test_offset_is_absorbed(self):
        assert canonicalize([0, 1, -1, 1]) == P("1;-1;1")

    def test_canonical_input_unchanged(self):
        coeffs = (2, -12, 30, -39, 30, -12, 2)
        assert canonicalize(coeffs).coeffs == coeffs

    def test_idempotent(self):
        p = canonicalize([0, 3, -5, 0])
        assert canonicalize(p.coeffs) == p

    def test_zero_rejected(self):
        with pytest.raises(PolynomialError, match="zero polynomial has no canonical form"):
            canonicalize([0, 0, 0])

    def test_unit_equivalent_inputs_agree(self):
        rng = random.Random(7)
        for _ in range(200):
            p = random_canonical(rng, 6)
            shifted = [0] * rng.randint(0, 3) + list(p.coeffs)
            sign = rng.choice((1, -1))
            assert canonicalize([sign * c for c in shifted]) == p

    def test_direct_construction_validates(self):
        with pytest.raises(PolynomialError):
            LaurentPoly((-1, 1))
        with pytest.raises(PolynomialError):
            LaurentPoly((0, 1, 1))  # a leading zero: not exponent 0 first


class TestMul:
    def test_identity(self):
        assert mul(P("1;-1;1"), ONE) == P("1;-1;1")

    def test_against_convolution_oracle(self):
        assert conv_mul([2, -1], [1, -2]) == [2, -5, 2]
        assert mul(P("2;-1"), P("1;-2")) == P("2;-5;2")

    def test_triple_product(self):
        # (1-t+t^2)^2 (4-7t+4t^2); note the t and t^5 coefficients are -15.
        square = conv_mul([1, -1, 1], [1, -1, 1])
        expected = conv_mul(square, [4, -7, 4])
        assert expected == [4, -15, 30, -37, 30, -15, 4]
        got = mul(mul(P("1;-1;1"), P("1;-1;1")), P("4;-7;4"))
        assert got == canonicalize(expected)

    def test_commutative_and_degree_additive(self):
        rng = random.Random(11)
        for _ in range(100):
            p, q = random_canonical(rng, 5), random_canonical(rng, 5)
            pq = mul(p, q)
            assert pq == mul(q, p)
            assert pq.degree == p.degree + q.degree


class TestReciprocal:
    def test_palindrome_fixed(self):
        assert reciprocal(P("1;-1;1")) == P("1;-1;1")

    def test_reverse_oracle(self):
        assert reverse_and_normalize([2, -1]) == [1, -2]
        assert reciprocal(P("2;-1")) == P("1;-2")
        assert reverse_and_normalize([1, -2, 3, -1]) == [1, -3, 2, -1]
        assert reciprocal(P("1;-2;3;-1")) == P("1;-3;2;-1")

    def test_involution(self):
        rng = random.Random(13)
        for _ in range(200):
            p = random_canonical(rng, 6)
            assert reciprocal(reciprocal(p)) == p


class TestSymmetry:
    @pytest.mark.parametrize("text,expected", [
        ("1;-1;1", True),
        ("2;-1", False),
        ("2;-5;2", True),  # palindromic even though it splits into 2-t, 1-2t
    ])
    def test_examples(self, text, expected):
        assert is_symmetric(P(text)) is expected

    def test_matches_reciprocal_equality(self):
        rng = random.Random(17)
        for _ in range(200):
            p = random_canonical(rng, 6)
            assert is_symmetric(p) == (reciprocal(p) == p)


class TestEvalInt:
    def test_examples(self):
        assert eval_int(P("1;-1;1"), 1) == 1
        assert eval_int(P("2;-12;30;-39;30;-12;2"), 1) == 2 - 12 + 30 - 39 + 30 - 12 + 2
        assert eval_int(P("1;-1;1"), -1) == 3


def _factor_map(fac):
    return {q.to_text(): m for q, m in fac.factors}


class TestFactor:
    def test_two_symmetric_quartic_and_quadratic(self):
        # the degree-6 polynomial with coefficient profile 1,-9,28,...
        f = factor(P("1;-9;28;-39;28;-9;1"))
        assert _factor_map(f) == {"1;-3;1": 1, "1;-6;9;-6;1": 1}
        assert f.expand() == P("1;-9;28;-39;28;-9;1")

    def test_quadratic_is_irreducible(self):
        # oracle: exhaust all integer linear divisors a+bt up to the
        # coefficient bound; none divides, so the quadratic is irreducible.
        for a in range(-3, 4):
            for b in range(-3, 4):
                if a == 0 or b == 0:
                    continue
                quot_deg1 = conv_mul([a, b], [1, 1])  # representative check
                assert quot_deg1 != [1, -1, 1]
        has_linear = any(
            conv_mul([a, b], [c, d]) == [1, -1, 1]
            for a in range(-2, 3) for b in range(-2, 3)
            for c in range(-2, 3) for d in range(-2, 3)
            if a and b and c and d)
        assert not has_linear
        assert _factor_map(factor(P("1;-1;1"))) == {"1;-1;1": 1}

    def test_octic_with_reciprocal_pair(self):
        f = factor(P("1;-6;17;-31;37;-31;17;-6;1"))
        assert _factor_map(f) == {"1;-1;1": 1, "1;-2;3;-1": 1, "1;-3;2;-1": 1}

    def test_content_primes_are_emitted(self):
        f = factor(P("4;-2"))  # 2 * (2 - t)
        assert _factor_map(f) == {"2": 1, "2;-1": 1}
        assert f.expand() == P("4;-2")

    def test_content_is_emitted_whole(self):
        # neither 24 (2^61 - 1) nor the semiprime 399165290221 * 798330580441
        # is split
        for n in (24 * (2 ** 61 - 1), 318665857834031151167461):
            f = factor(P(f"{n};{-n}"))
            assert _factor_map(f) == {str(n): 1, "1;-1": 1}
            assert f.expand() == P(f"{n};{-n}")

    def test_content_is_not_factored(self):
        # a content with no small prime factor costs no integer factoring
        for n in (1099511627689, 3 * 5 ** 2 * (2 ** 61 - 1), 2 ** 89 - 1):
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                assert _factor_map(factor(P(str(n)))) == {str(n): 1}
                best = min(best, time.perf_counter() - start)
            assert best < 0.020, (n, best)

    def test_constant_input(self):
        assert _factor_map(factor(P("12"))) == {"12": 1}
        assert factor(ONE).factors == ()

    def test_degree_cap(self):
        coeffs = [1] + [0] * 64 + [1]
        with pytest.raises(PolynomialError, match="degree limit exceeded"):
            factor(canonicalize(coeffs))

    def test_multiplicity(self):
        p = mul(mul(P("1;-1;1"), P("1;-1;1")), P("4;-7;4"))
        assert _factor_map(factor(p)) == {"1;-1;1": 2, "4;-7;4": 1}

    def test_unit_shift_invariance(self):
        rng = random.Random(19)
        for _ in range(50):
            p = mul(random_canonical(rng, 4), random_canonical(rng, 4))
            shifted = canonicalize([-c for c in [0, 0] + list(p.coeffs)])
            assert factor(shifted) == factor(p)


class TestFactorProperties:
    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(200):
            p = mul(random_canonical(rng, 5), random_canonical(rng, 5))
            f = factor(p)
            assert f.expand() == p

    def test_degree_and_value_multiplicative(self):
        rng = random.Random(29)
        for _ in range(100):
            p = mul(random_canonical(rng, 5), random_canonical(rng, 5))
            f = factor(p)
            assert sum(q.degree * m for q, m in f.factors) == p.degree
            value = 1
            for q, m in f.factors:
                value *= eval_int(q, 1) ** m
            assert value == eval_int(p, 1)

    def test_deterministic_ordering(self):
        rng = random.Random(31)
        for _ in range(50):
            p = mul(random_canonical(rng, 5), random_canonical(rng, 5))
            f = factor(p)
            keys = [(q.degree, q.coeffs) for q, _ in f.factors]
            assert keys == sorted(keys)
            assert factor(p) == f


class TestFactorizationType:
    def test_divides_and_mul(self):
        f1 = factor(P("1;-1;1"))
        f2 = factor(mul(P("1;-1;1"), P("2;-1")))
        assert f1.divides(f2)
        assert not f2.divides(f1)
        assert (f1 * f1).multiplicity(P("1;-1;1")) == 2

    def test_irreducible_flag(self):
        assert factor(P("1;-1;1")).irreducible
        assert not factor(P("2;-5;2")).irreducible
        assert not factor(ONE).irreducible
