"""Seifert-matrix invariants: polynomial, signatures, profile."""

import cmath
import math
import random

import pytest

from kcg.errors import SeifertError
from kcg.laurent import ONE, eval_int, is_symmetric, poly_from_text
from kcg.seifert import (SeifertMatrix, alexander, lt_signature,
                         murasugi_signature, signature_profile,
                         unit_circle_root_angles)
from oracles import (eig_signature, exact_lt_signature, family_seifert,
                     random_seifert, rational_in_arc)

TREFOIL = SeifertMatrix(((-1, 1), (0, -1)))
FIGURE_EIGHT = SeifertMatrix(((1, 1), (0, -1)))
EMPTY = SeifertMatrix(())
# Two trefoil blocks: polynomial (1-t+t^2)^2, signature -4, jump -4 at pi/3.
DOUBLE_TREFOIL = SeifertMatrix((
    (-1, 1, 0, 0),
    (0, -1, 0, 0),
    (0, 0, -1, 1),
    (0, 0, 0, -1),
))


class TestSeifertMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(SeifertError, match="not a knot Seifert matrix"):
            SeifertMatrix(((1, 2),))

    def test_rejects_odd_size(self):
        # det of an odd skew-symmetric matrix is 0, never 1
        with pytest.raises(SeifertError, match="not a knot Seifert matrix"):
            SeifertMatrix(((1,),))

    def test_rejects_bad_intersection_form(self):
        with pytest.raises(SeifertError, match="not a knot Seifert matrix"):
            SeifertMatrix(((0, 2), (0, 0)))

    def test_text_round_trip(self):
        m = SeifertMatrix.from_text("-1,1;0,-1")
        assert m == TREFOIL
        assert m.to_text() == "-1,1;0,-1"

    def test_bad_text(self):
        with pytest.raises(SeifertError, match="bad matrix encoding"):
            SeifertMatrix.from_text("-1,x;0,-1")


class TestAlexander:
    def test_empty_matrix(self):
        assert alexander(EMPTY) == ONE

    def test_trefoil_by_hand(self):
        # det(V - tV^T) = (t-1)^2 + t for this V, expanded by hand
        expected = [1 - 2 * x + x * x + x for x in (0,)]  # constant term 1
        assert expected == [1]
        assert alexander(TREFOIL) == poly_from_text("1;-1;1")

    def test_figure_eight_by_hand(self):
        # det = (1-t)(t-1) + t = -1 + 3t - t^2, canonical 1 - 3t + t^2
        assert alexander(FIGURE_EIGHT) == poly_from_text("1;-3;1")

    def test_stabilized_unknot(self):
        assert alexander(SeifertMatrix(((0, 1), (0, 0)))) == ONE

    def test_band_matrix(self):
        v = SeifertMatrix.from_text("-1,1,0,0;0,-1,1,0;0,0,-1,1;0,0,0,-1")
        assert alexander(v) == poly_from_text("1;-1;1;-1;1")


class TestMurasugiSignature:
    def test_empty(self):
        assert murasugi_signature(EMPTY) == 0

    def test_trefoil_negative_definite(self):
        # V+V^T = [[-2,1],[1,-2]]: leading minors -2 and 3, negative definite
        assert -2 < 0 and (-2) * (-2) - 1 * 1 > 0
        assert murasugi_signature(TREFOIL) == -2

    def test_figure_eight_indefinite(self):
        # V+V^T = [[2,1],[1,-2]]: determinant -5 < 0
        assert 2 * (-2) - 1 < 0
        assert murasugi_signature(FIGURE_EIGHT) == 0

    def test_singular_symmetrization(self):
        # V+V^T = [[0,1],[1,0]] has signature 0
        assert murasugi_signature(SeifertMatrix(((0, 1), (0, 0)))) == 0

    def test_double_trefoil(self):
        assert murasugi_signature(DOUBLE_TREFOIL) == -4

    def test_diagonalizer_counts_zeros_as_nothing(self):
        # not reachable from a valid Seifert matrix (det(V+V^T) is always
        # odd), but the exact kernel should still handle degenerate input
        from kcg.seifert import _hermitian_signature
        zero = [[0, 0], [0, 0]]
        assert _hermitian_signature([[0, 0], [0, 0]], zero) == 0
        assert _hermitian_signature([[1, 0], [0, 0]], zero) == 1
        assert _hermitian_signature([[0, 0], [0, -3]], zero) == -1
        assert _hermitian_signature([[0, 2], [2, 0]], zero) == 0
        # [[0, 2i], [-2i, 0]] has eigenvalues +-2, [[1, 1+i], [1-i, 1]]
        # 1 +- sqrt 2, and [[1, 1+i], [1-i, 2]] 0 and 3
        assert _hermitian_signature(zero, [[0, 2], [-2, 0]]) == 0
        assert _hermitian_signature([[1, 1], [1, 1]], [[0, 1], [-1, 0]]) == 0
        assert _hermitian_signature([[1, 1], [1, 2]], [[0, 1], [-1, 0]]) == 1


class TestLtSignature:
    def test_at_pi_equals_murasugi(self):
        assert lt_signature(TREFOIL, math.pi) == murasugi_signature(TREFOIL)

    def test_trefoil_at_quarter_turn(self):
        assert eig_signature(TREFOIL.entries, math.pi / 2) == -2
        assert lt_signature(TREFOIL, math.pi / 2) == -2

    def test_figure_eight_constant_zero(self):
        # both roots of 1-3t+t^2 are real: (3 +- sqrt(5))/2, off the circle
        r1 = (3 + math.sqrt(5)) / 2
        r2 = (3 - math.sqrt(5)) / 2
        assert abs(r1) != pytest.approx(1.0, abs=1e-6)
        assert abs(r2) != pytest.approx(1.0, abs=1e-6)
        assert eig_signature(FIGURE_EIGHT.entries, math.pi / 2) == 0
        assert lt_signature(FIGURE_EIGHT, math.pi / 2) == 0

    def test_averaged_value_at_root(self):
        assert lt_signature(TREFOIL, math.pi / 3) == -1

    def test_domain(self):
        with pytest.raises(ValueError):
            lt_signature(TREFOIL, 0.0)
        with pytest.raises(ValueError):
            lt_signature(TREFOIL, 3.5)

    def test_empty(self):
        assert lt_signature(EMPTY, 1.0) == 0


class TestUnitCircleRoots:
    def test_cyclotomic_quadratic(self):
        angles = unit_circle_root_angles(poly_from_text("1;-1;1"))
        assert len(angles) == 1
        assert angles[0] == pytest.approx(math.pi / 3, abs=1e-9)

    def test_square_collapses(self):
        p = poly_from_text("1;-2;3;-2;1")  # (1-t+t^2)^2
        angles = unit_circle_root_angles(p)
        assert len(angles) == 1
        assert angles[0] == pytest.approx(math.pi / 3, abs=1e-9)

    def test_real_roots_excluded(self):
        assert unit_circle_root_angles(poly_from_text("1;-3;1")) == ()

    def test_degree_zero(self):
        assert unit_circle_root_angles(ONE) == ()


class TestSignatureProfile:
    def test_empty_matrix(self):
        prof = signature_profile(EMPTY)
        assert prof.arcs == (((0.0, math.pi), 0),)
        assert prof.jump_points == ()
        assert prof.endpoint_value_at_pi == 0

    def test_trefoil(self):
        prof = signature_profile(TREFOIL)
        assert len(prof.jump_points) == 1
        angle, jump, averaged = prof.jump_points[0]
        assert angle == pytest.approx(math.pi / 3, abs=1e-9)
        assert jump == -2
        assert averaged == -1
        assert [v for _, v in prof.arcs] == [0, -2]
        assert prof.endpoint_value_at_pi == -2
        # sides of the jump, straight from the eigenvalue oracle
        assert eig_signature(TREFOIL.entries, math.pi / 3 - 0.05) == 0
        assert eig_signature(TREFOIL.entries, math.pi / 3 + 0.05) == -2

    def test_figure_eight_constant(self):
        prof = signature_profile(FIGURE_EIGHT)
        assert prof.jump_points == ()
        assert prof.arcs == (((0.0, math.pi), 0),)

    def test_double_trefoil_jump_four(self):
        prof = signature_profile(DOUBLE_TREFOIL)
        assert len(prof.jump_points) == 1
        angle, jump, averaged = prof.jump_points[0]
        assert angle == pytest.approx(math.pi / 3, abs=1e-9)
        assert jump == -4
        assert averaged == -2

    def test_averaged_is_mean_of_arcs(self):
        prof = signature_profile(TREFOIL)
        (_, left), (_, right) = prof.arcs
        assert prof.jump_points[0][2] * 2 == left + right


class TestRandomMatrices:
    """Property suite over rejection-sampled valid matrices."""

    SIZES = ((2, 30), (4, 20), (6, 12), (8, 4))

    def _matrices(self, seed=101):
        rng = random.Random(seed)
        for size, reps in self.SIZES:
            for _ in range(reps):
                yield random_seifert(rng, size)

    def test_polynomial_invariants(self):
        for v in self._matrices():
            d = alexander(v)
            assert is_symmetric(d)
            assert d.degree % 2 == 0
            assert abs(eval_int(d, 1)) == 1
            assert eval_int(d, -1) % 2 == 1

    def test_lt_at_pi_matches_exact(self):
        for v in self._matrices(seed=103):
            assert lt_signature(v, math.pi) == murasugi_signature(v)

    def test_profile_arc_resampling(self):
        rng = random.Random(107)
        for v in self._matrices(seed=107):
            prof = signature_profile(v)
            for (lo, hi), value in prof.arcs:
                for _ in range(3):
                    u = rational_in_arc(lo, hi, rng.uniform(0.05, 0.95))
                    assert lt_signature(v, 2 * math.atan(u)) == value
                    assert exact_lt_signature(v.entries, u) == value

    def test_exact_agrees_with_float_eigenvalues(self):
        import numpy as np
        for v in self._matrices(seed=109):
            if v.size == 0:
                continue
            sym = np.array(v.entries, float)
            sym = sym + sym.T
            lam = np.linalg.eigvalsh(sym)
            if bool((abs(lam) < 1e-9 * (1 + abs(sym).sum(axis=1).max())).any()):
                continue
            float_sig = int((lam > 0).sum() - (lam < 0).sum())
            assert murasugi_signature(v) == float_sig

    def test_jumps_only_at_roots(self):
        for v in self._matrices(seed=113):
            d = alexander(v)
            scale = sum(abs(c) for c in d.coeffs)
            for angle, jump, _avg in signature_profile(v).jump_points:
                if jump == 0:
                    continue
                z = cmath.exp(1j * angle)
                value = sum(c * z ** k for k, c in enumerate(d.coeffs))
                assert abs(value) / scale < 1e-6


# Seed-7 matrices of the benchmark's seifert_profiles workload: the float
# eigenvalue path reported no jumps for item 83 and a wrong 9th decimal
# for item 244.  The jumps were checked with 60-digit arithmetic.
BENCH_SEED7 = {
    83: ("-4,0,0,5,5,5,-5,1,4,-1,5,-2;-1,-4,-2,2,-5,-3,3,1,-5,-2,-3,3;"
         "0,-2,-4,-4,-1,5,-1,2,-3,-3,-1,5;5,2,-5,-4,-1,5,-5,3,3,4,-3,0;"
         "5,-5,-1,-1,-3,-1,1,1,-1,4,-5,-3;5,-3,5,5,-2,1,-2,-4,1,1,4,2;"
         "-5,3,-1,-5,1,-2,0,4,1,2,-1,5;1,1,2,3,1,-4,3,-2,2,3,5,-4;"
         "4,-5,-3,3,-1,1,1,2,2,-2,-3,0;-1,-2,-3,4,4,1,2,3,-3,-5,-5,-5;"
         "5,-3,-1,-3,-5,4,-1,5,-3,-5,1,-1;-2,3,5,0,-3,2,5,-4,0,-5,-2,4",
         (("0.125076272", -2, -1), ("0.195062872", 2, -1))),
    244: ("-2,1,4,-1,-3,3,-5,-5,5,1,-2,1;0,-4,0,-3,1,-4,-5,2,2,-4,-3,-4;"
          "4,0,2,-2,-3,-2,4,0,-2,3,1,-1;-1,-3,-3,-3,-3,-5,2,2,-5,-5,4,3;"
          "-3,1,-3,-3,0,6,-5,0,-4,-4,1,0;3,-4,-2,-5,5,3,3,-2,3,0,-5,-3;"
          "-5,-5,4,2,-5,3,-3,1,-4,-4,0,3;-5,2,0,2,0,-2,0,5,-1,-3,0,2;"
          "5,2,-2,-5,-4,3,-4,-1,-2,-3,0,3;1,-4,3,-5,-4,0,-4,-3,-4,4,-4,5;"
          "-2,-3,1,4,1,-5,0,0,0,-4,1,3;1,-4,-1,3,0,-3,3,2,3,5,2,3",
          (("0.164492456", 2, 1),)),
    445: ("-5,0,0,-2,0,4,1,-2,1,4,1,-3,-4,-4,-5,3;"
          "-1,-1,-1,3,5,-5,1,5,-2,-4,-3,-5,-2,2,-1,5;"
          "0,-1,-1,3,-3,4,5,4,4,5,4,-4,2,5,-5,4;"
          "-2,3,2,-4,-2,2,1,-3,3,3,2,0,-2,-4,2,2;"
          "0,5,-3,-2,0,6,-3,-1,-3,-1,1,5,-1,1,4,1;"
          "4,-5,4,2,5,-2,0,-5,2,2,2,3,-3,0,3,-2;"
          "1,1,5,1,-3,0,1,0,-1,0,-2,-3,0,3,5,-2;"
          "-2,5,4,-3,-1,-5,-1,-2,3,4,3,-3,3,5,-5,-4;"
          "1,-2,4,3,-3,2,-1,3,-3,4,3,1,0,2,-5,0;"
          "4,-4,5,3,-1,2,0,4,3,-1,2,3,1,-2,2,-2;"
          "1,-3,4,2,1,2,-2,3,3,2,2,2,2,-5,5,-2;"
          "-3,-5,-4,0,5,3,-3,-3,1,3,1,-4,-5,-2,-1,4;"
          "-4,-2,2,-2,-1,-3,0,3,0,1,2,-5,1,1,3,1;"
          "-4,2,5,-4,1,0,3,5,2,-2,-5,-2,0,1,-3,-3;"
          "-5,-1,-5,2,4,3,5,-5,-5,2,5,-1,3,-3,4,3;"
          "3,5,4,2,1,-2,-2,-4,0,-2,-2,4,1,-3,2,-2",
          (("0.117911027", -2, -1), ("0.234691242", 2, -1),
           ("0.543033315", -2, -1))),
}


class TestExactRegressions:
    """Matrices the float eigenvalue path refused or got wrong, checked
    against the exact real-form oracle."""

    # V = M + U families: the float path refused about half of them
    @pytest.mark.parametrize("genus,bound", [(8, 5), (5, 50)])
    def test_family_arcs_match_the_exact_oracle(self, genus, bound):
        rng = random.Random(f"family-{genus}-{bound}")
        for _ in range(5):
            v = family_seifert(rng, genus, bound)
            for (lo, hi), value in signature_profile(v).arcs:
                for at in (1 / 3, 2 / 3):
                    u = rational_in_arc(lo, hi, at)
                    assert exact_lt_signature(v.entries, u) == value

    @pytest.mark.parametrize("item", sorted(BENCH_SEED7))
    def test_benchmark_matrix_jumps(self, item):
        text, expected = BENCH_SEED7[item]
        prof = signature_profile(SeifertMatrix.from_text(text))
        got = tuple((f"{a:.9f}", j, v) for a, j, v in prof.jump_points)
        assert got == expected
