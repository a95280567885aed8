"""Numeric continuation: Hurwitz kernel, double zeta, desingularized values."""

import math
import random
from fractions import Fraction

import pytest

from deszeta.exact import bernoulli_polynomial
from deszeta.numeric import (
    ContinuationReachError,
    SingularPointError,
    desing1,
    desing2,
    double_zeta,
    double_zeta_direct,
    hurwitz_zeta,
    neville_extrapolate,
    riemann_zeta,
    singularity_distance,
)
from deszeta.values import desing_value_exact, desing_value_r2_closed


class TestHurwitzKernel:
    def test_basel(self):
        assert abs(riemann_zeta(2).value - math.pi**2 / 6) < 1e-13

    def test_known_values(self):
        assert abs(riemann_zeta(4).value - math.pi**4 / 90) < 1e-13
        assert abs(riemann_zeta(-1).value + 1 / 12) < 1e-14
        assert abs(riemann_zeta(0).value + 0.5) < 1e-14

    def test_negative_integers_exact(self):
        for n in range(9):
            for a in (1.0, 0.5, 1.5, 2.0, 3.5):
                want = -float(Fraction(bernoulli_polynomial(n + 1, Fraction(a)), n + 1))
                got = hurwitz_zeta(-n, a).value
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_recurrence(self):
        rng = random.Random(7)
        for _ in range(20):
            s = complex(rng.uniform(-4, 5), rng.uniform(-2, 2))
            if abs(s - 1) < 0.1:
                continue
            a = rng.uniform(0.3, 4.0)
            lhs = hurwitz_zeta(s, a).value - hurwitz_zeta(s, a + 1).value
            assert abs(lhs - a ** (-s)) < 1e-12 * max(1.0, abs(a ** (-s)))

    def test_pole_rejected(self):
        with pytest.raises(SingularPointError):
            riemann_zeta(1)

    def test_left_half_plane_argument(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(2, -1.0)

    def test_double_precision_only(self, monkeypatch):
        # the kernel has no environment-selected high-precision mode
        plain = hurwitz_zeta(2.5, 1.3)
        monkeypatch.setenv("DESING_PRECISION", "30")
        again = hurwitz_zeta(2.5, 1.3)
        assert again.method == "euler_maclaurin"
        assert again.value == plain.value


class TestDoubleZeta:
    def test_direct_requires_convergence(self):
        with pytest.raises(ValueError):
            double_zeta_direct(0.5, 1.2)

    def test_direct_vs_continued(self):
        for s1, s2 in ((2.0, 3.0), (3.0, 2.5), (2.2, 2.8)):
            a = double_zeta_direct(s1, s2)
            b = double_zeta(s1, s2)
            assert abs(a.value - b.value) < max(1e-9, 3 * a.err_estimate)

    def test_direct_vs_continued_weighted(self):
        a = double_zeta_direct(2.0, 3.0, 1.0, 2.0).value
        b = double_zeta(2.0, 3.0, 1.0, 2.0).value
        assert abs(a - b) < 1e-9

    def test_depth_reduction_identity(self):
        # zeta_2(0, s) = zeta(s - 1) - zeta(s)
        for s in (4.0, 3.5, 2.6):
            want = riemann_zeta(s - 1).value - riemann_zeta(s).value
            assert abs(double_zeta(0.0, s).value - want) < 1e-10

    def test_singular_point_rejected(self):
        with pytest.raises(SingularPointError):
            double_zeta(1.0, 1.0)
        with pytest.raises(SingularPointError):
            double_zeta(0.5, 1.0)

    def test_reach_guard(self):
        with pytest.raises(ContinuationReachError):
            double_zeta(-20.0, -10.5)

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            double_zeta(2.0, 3.0, -1.0, 1.0)


class TestSingularityDistance:
    def test_on_hyperplanes(self):
        assert singularity_distance(0, 1).distance == 0
        assert singularity_distance(0, 1).hyperplane == "s2=1"
        assert singularity_distance(1, 1).distance == 0
        # (1, 1) lies on both s2=1 and s1+s2=2; either label is acceptable
        assert singularity_distance(1, 1).hyperplane in ("s2=1", "s1+s2=2")

    def test_regular_point(self):
        assert singularity_distance(3, 4).distance > 1


class TestNeville:
    def test_exact_on_polynomial(self):
        xs = [1.0, 0.5, 0.25, 0.125]
        ys = [2 + 3 * x - x**2 for x in xs]
        limit, corr = neville_extrapolate(xs, ys)
        assert abs(limit - 2) < 1e-12
        assert corr < 1e-12

    @pytest.mark.parametrize(
        "xs, ys", [([1.0], [2.0]), ([], []), ([1.0, 0.5], [2.0])]
    )
    def test_malformed_input_rejected(self, xs, ys):
        with pytest.raises(ValueError):
            neville_extrapolate(xs, ys)


class TestDesing:
    def test_depth_one(self):
        assert desing1(1).value == -1
        # (1 - 0) zeta(0) = -1/2, matching (-1)^0 B_1
        assert abs(desing1(0).value + 0.5) < 1e-14
        # (1 - s) zeta(s) at s = 2
        assert abs(desing1(2).value + math.pi**2 / 6) < 1e-13

    def test_depth_one_weighted(self):
        for gamma in (Fraction(1, 2), Fraction(3)):
            assert desing1(1, gamma).value == -1 / float(gamma)
            for k in range(6):
                want = float(desing_value_exact((k,), (gamma,)))
                got = desing1(-k, gamma).value
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_depth_one_bad_weight(self):
        with pytest.raises(ValueError):
            desing1(2, 0.0)

    def test_regular_point_methods(self):
        r = desing2(3, 4)
        assert r.method == "euler_maclaurin"
        assert desing2(-1, -1).method == "extrapolated"

    def test_table_values(self):
        z = lambda s: riemann_zeta(s).value.real
        cases = {
            (-1, 1): 1 / 8,
            (1, 1): 1 / 2,
            (2, 1): -z(2) + 2 * z(3),
            (3, -3): 3 / 4 - z(3) / 15,
        }
        for (s1, s2), want in cases.items():
            assert abs(desing2(s1, s2).value - want) < 1e-6

    def test_integer_grid_against_exact(self):
        for k in range(3):
            for l in range(3):
                want = float(desing_value_r2_closed(k, l, 1, 1))
                assert abs(desing2(-k, -l).value - want) < 1e-6

    def test_cancellation_at_one_one(self):
        # (1, 1) lies on singular hyperplanes of all three shifted terms, where
        # the coefficient polynomials must be evaluated without cancellation
        for eps0 in (1.0 / 64, 1.0 / 128):
            assert abs(desing2(1, 1, eps0=eps0).value - 0.5) < 1e-10

    def test_extrapolation_stability(self):
        # halving the initial shift moves the answer by less than the
        # reported error estimate (plus double-precision noise)
        for s1, s2 in ((-1, 1), (1, 1), (2, 1), (-1, 4)):
            a = desing2(s1, s2)
            b = desing2(s1, s2, eps0=1.0 / 128)
            assert abs(a.value - b.value) <= a.err_estimate + b.err_estimate + 1e-9

    def test_weighted_combination(self):
        # brute-force sum of the combination at a regular point, gamma != 1
        from deszeta.coeffs import combination

        comb = combination(2)
        brute = comb.evaluate(
            (3.0, 4.0), lambda a: double_zeta_direct(a[0], a[1], 1.0, 2.0).value
        )
        got = desing2(3, 4, 1.0, 2.0)
        assert abs(brute - got.value) < 1e-8

    def test_combination_evaluate_near_one_one(self):
        # every shifted term is within 1e-6 of a singular hyperplane; the
        # combination's own evaluator must not lose digits to cancellation
        from deszeta.coeffs import combination

        golden = (1 + math.sqrt(5)) / 2
        s = (1 + 1e-6, 1 + 1e-6 / golden)
        got = combination(2).evaluate(s, lambda a: double_zeta(*a).value)
        assert abs(got - desing2(*s).value) < 1e-8

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            desing2(2, 3, 0.0, 1.0)
