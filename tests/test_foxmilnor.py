"""Required-factor extraction and the polynomial genus bound."""

import math
import random
from fractions import Fraction

import pytest

from kcg.errors import PolynomialError, ProfileError
from kcg.foxmilnor import (RequiredFactors, enhanced_required_factors,
                           gc_poly_lower_bound, residual, slice_obstruction)
from kcg.laurent import (ONE, Factorization, factor, mul, poly_from_text,
                         reciprocal)
from kcg.seifert import SignatureProfile
from oracles import bruteforce_min_residual, random_palindromic

PI = math.pi


def P(text):
    return poly_from_text(text)


def bracket(angle):
    """A rational interval of x = 2cos(theta) around the angle, 1/50 wide."""
    x = Fraction(round(200 * math.cos(angle)), 100)
    return (x - Fraction(1, 100), x + Fraction(1, 100))


def profile_with_jump(angle, jump):
    return SignatureProfile(values=(0, jump), jump_brackets=(bracket(angle),))


FLAT_PROFILE = SignatureProfile(values=(0,), jump_brackets=())


class TestResidual:
    def test_all_symmetric_factors_survive(self):
        delta = P("1;-9;28;-39;28;-9;1")
        assert residual(factor(delta)).expand() == delta

    def test_even_power_discarded(self):
        fac = factor(mul(mul(P("1;-1;1"), P("1;-1;1")), P("4;-7;4")))
        assert residual(fac).expand() == P("4;-7;4")

    def test_reciprocal_pair_cancels(self):
        assert reciprocal(P("2;-1")) == P("1;-2")
        fac = factor(P("2;-5;2"))  # (2-t)(1-2t)
        assert residual(fac).expand() == ONE

    def test_non_palindromic_rejected(self):
        with pytest.raises(PolynomialError, match="polynomial not palindromic"):
            residual(factor(P("2;-1")))

    def test_unbalanced_pair_rejected(self):
        fac = factor(mul(P("2;-5;2"), P("2;-1")))  # (2-t)^2 (1-2t)
        with pytest.raises(PolynomialError, match="polynomial not palindromic"):
            residual(fac)


class TestMultisets:
    def test_residual_keeps_odd_symmetric_factors_once(self):
        cube = mul(mul(P("1;-1;1"), P("1;-1;1")), P("1;-1;1"))
        fac = factor(mul(mul(cube, P("4;-7;4")), mul(P("2;-5;2"), P("4;-7;4"))))
        assert residual(fac) == Factorization(((P("1;-1;1"), 1),))

    def test_only_residual_and_enhanced_are_stored(self):
        res, enh = Factorization(((P("1;-1;1"), 1),)), Factorization(())
        req = RequiredFactors(res, enh)
        assert vars(req) == {"residual": res, "enhanced": enh}
        assert req == RequiredFactors(residual=res, enhanced=enh)
        with pytest.raises(TypeError):
            RequiredFactors(res, enh, enh)
        with pytest.raises(TypeError):
            RequiredFactors(res, enh, product=enh)

    def test_no_forced_factor_keeps_the_residual(self):
        req = enhanced_required_factors(TestEnhancement.F_QUIET, FLAT_PROFILE)
        assert req.enhanced is req.residual

    def test_forced_square_joins_the_multiset(self):
        req = enhanced_required_factors(TestEnhancement.F_JUMPY,
                                        profile_with_jump(PI / 3, 4))
        assert req.enhanced == Factorization(
            ((P("1;-1;1"), 2), (P("1;-1;1;-1;1"), 1)))
        # the odd symmetric factor is the residual, and the jump forces
        # the even one back in, squared
        assert req.residual == Factorization(((P("1;-1;1;-1;1"), 1),))
        assert req.enhanced == req.residual * Factorization(((P("1;-1;1"), 2),))


class TestSliceObstruction:
    def test_norm_polynomial_passes(self):
        assert slice_obstruction(P("2;-5;2")) is True

    def test_surviving_symmetric_factor_fails(self):
        assert slice_obstruction(P("1;-1;1")) is False

    def test_trivial_polynomial_passes(self):
        assert slice_obstruction(ONE) is True


class TestEnhancement:
    F_JUMPY = Factorization(((P("1;-1;1"), 2), (P("1;-1;1;-1;1"), 1)))
    F_QUIET = Factorization(((P("1;-1;1"), 2), (P("4;-7;4"), 1)))

    def test_jump_forces_square_back_in(self):
        req = enhanced_required_factors(self.F_JUMPY, profile_with_jump(PI / 3, 4))
        assert req.residual.expand() == P("1;-1;1;-1;1")
        expected = mul(mul(P("1;-1;1"), P("1;-1;1")), P("1;-1;1;-1;1"))
        assert req.enhanced.expand() == expected
        assert req.enhanced.expand().degree == 8
        assert (P("1;-1;1"), 2) in req.enhanced.factors
        assert (P("1;-1;1"), 2) not in req.residual.factors
        assert (P("1;-1;1;-1;1"), 1) in req.residual.factors

    def test_negative_jump_counts(self):
        req = enhanced_required_factors(self.F_JUMPY, profile_with_jump(PI / 3, -4))
        assert req.enhanced.expand().degree == 8

    def test_jump_of_two_suffices(self):
        req = enhanced_required_factors(self.F_JUMPY, profile_with_jump(PI / 3, 2))
        assert gc_poly_lower_bound(req) == 4

    def test_no_jump_no_enhancement(self):
        prof = SignatureProfile(values=(0, 0), jump_brackets=(bracket(PI / 3),))
        req = enhanced_required_factors(self.F_QUIET, prof)
        assert req.residual.expand() == req.enhanced.expand() == P("4;-7;4")

    def test_absent_profile(self):
        req = enhanced_required_factors(Factorization(()), None)
        assert req.residual.expand() == req.enhanced.expand() == ONE
        assert req.residual.factors == req.enhanced.factors == ()

    def test_jump_at_foreign_angle_rejected(self):
        with pytest.raises(ProfileError, match="inconsistent profile"):
            enhanced_required_factors(self.F_JUMPY, profile_with_jump(2.5, 2))

    def test_flat_profile_is_consistent(self):
        req = enhanced_required_factors(self.F_QUIET, FLAT_PROFILE)
        assert req.enhanced.expand() == P("4;-7;4")

    def test_odd_multiplicity_not_enhanced(self):
        # the quadratic already sits in the residual once; a jump at its
        # root must not multiply it in again
        fac = Factorization(((P("1;-1;1"), 1),))
        req = enhanced_required_factors(fac, profile_with_jump(PI / 3, 2))
        assert req.enhanced.expand() == P("1;-1;1")


class TestPolyLowerBound:
    def test_degree_six(self):
        delta = P("1;-9;28;-39;28;-9;1")
        req = enhanced_required_factors(factor(delta), None)
        assert gc_poly_lower_bound(req) == 3

    def test_enhanced_degree_eight(self):
        req = enhanced_required_factors(TestEnhancement.F_JUMPY,
                                        profile_with_jump(PI / 3, 4))
        assert gc_poly_lower_bound(req) == 4

    def test_trivial(self):
        req = enhanced_required_factors(Factorization(()), None)
        assert gc_poly_lower_bound(req) == 0


class TestResidualProperties:
    def test_symmetry_and_even_degree(self):
        rng = random.Random(41)
        for _ in range(80):
            p = random_palindromic(rng, 10)
            r = residual(factor(p)).expand()
            assert reciprocal(r) == r
            assert r.degree % 2 == 0

    def test_idempotent(self):
        rng = random.Random(43)
        for _ in range(60):
            p = random_palindromic(rng, 10)
            r = residual(factor(p)).expand()
            assert residual(factor(r)).expand() == r

    def test_monotone_degrees(self):
        rng = random.Random(47)
        for _ in range(60):
            p = random_palindromic(rng, 10)
            req = enhanced_required_factors(factor(p), None)
            assert req.residual.expand().degree <= req.enhanced.expand().degree <= p.degree

    def test_brute_force_equivalence_small(self):
        rng = random.Random(53)
        for _ in range(60):
            p = random_palindromic(rng, 10)
            fac = factor(p)
            assert residual(fac).expand() == bruteforce_min_residual(fac)
