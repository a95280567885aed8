"""Numeric continuation: Hurwitz kernel, double zeta, desingularized values."""

import cmath
import math
import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from deszeta import numeric
from deszeta.exact import SPoly, bernoulli_polynomial
from deszeta.numeric import (
    ContinuationReachError,
    EvalResult,
    SingularityReport,
    SingularPointError,
    ToleranceError,
    desing1,
    desing2,
    double_zeta,
    double_zeta_direct,
    hurwitz_zeta,
    riemann_zeta,
    singularity_distance,
)
from deszeta.values import desing_value_exact, desing_value_r2_closed


def test_result_records():
    z = EvalResult(1.5 + 2j, 1e-9, "euler_maclaurin")
    assert repr(z) == "EvalResult(value=(1.5+2j), err_estimate=1e-09, method='euler_maclaurin')"
    assert z == EvalResult(1.5 + 2j, 1e-9, "euler_maclaurin")
    assert z != EvalResult(1.5 + 2j, 2e-9, "euler_maclaurin") and z != (1.5 + 2j, 1e-9)
    # hurwitz_zeta's cache hands one result to every caller: none may change it
    with pytest.raises(AttributeError):
        z.err_estimate = 2e-9
    assert z.to_json() == {"value": {"re": 1.5, "im": 2.0}, "err_estimate": 1e-9,
                           "method": "euler_maclaurin"}
    report = SingularityReport("s2=1", 0.5)
    assert repr(report) == "SingularityReport(hyperplane='s2=1', distance=0.5)"
    assert report == SingularityReport("s2=1", 0.5) != SingularityReport("s1+s2=0", 0.5)
    with pytest.raises(AttributeError):
        report.distance = 0.0


class TestHurwitzKernel:
    def test_basel(self):
        assert abs(riemann_zeta(2).value - math.pi**2 / 6) < 1e-13

    def test_known_values(self):
        assert abs(riemann_zeta(4).value - math.pi**4 / 90) < 1e-13
        assert abs(riemann_zeta(-1).value + 1 / 12) < 1e-14
        assert abs(riemann_zeta(0).value + 0.5) < 1e-14

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


# hurwitz_zeta pinned bit for bit, so that a change to the Euler-Maclaurin
# coefficient loop cannot move digits unnoticed: (s, a), value, err_estimate.
# The points cover the N = 0 ladder (Re s < 0.5), Re s >= 0.5, complex a, and
# a |s| so large that the correction series stops on divergence.  Three
# estimates are not bounds on the error (ROADMAP 1(d)): (-10.2, 0.1) is off
# by 2.1e-10, (3+5000j, 1) by 5.7e-8, and (-45+20j, 0.3+0.4j) returns a
# value near 5.6e39 where the true one is 5.53e31-1.67e32j.
KERNEL_PINS = [
    ((-2.5, 0.7), complex(0.004002311060612588, 0.0), 9.714309833418091e-15),
    ((-10.2, 0.1), complex(-0.004137542840125781, 0.0), 8.349507363277872e-15),
    ((0.3 + 2j, 1.0), complex(0.38531035090764304, -0.2825282116864848), 1.5368716528191234e-15),
    ((2.5, 1.3), complex(0.7832185539082374, 0.0), 1.0814901201459964e-15),
    ((3 + 40j, 1.0), complex(0.9326091439284988, -0.06375750607117799), 6.571128058053324e-15),
    ((1.5 - 0.5j, 1 + 0.8j), complex(0.8937703627307788, 0.24262005404701914),
     3.430165447144709e-15),
    ((-45 + 20j, 0.3 + 0.4j), complex(-1.4141064238428013e+39, 5.423111077689641e+39),
     1.0359782238481672e+25),
    ((3 + 5000j, 1.0), complex(0.8998677973725441, 0.026966556462518516), 9.52519247502229e-09),
]


@pytest.mark.parametrize("args, value, err", KERNEL_PINS,
                         ids=["%s,%s" % args for args, _, _ in KERNEL_PINS])
def test_kernel_pinned(args, value, err):
    z = hurwitz_zeta(*args)
    assert z.value == value
    assert z.err_estimate == err


# the other five pins against their true values (mpmath, 40 digits)
KERNEL_TRUE = [
    ((-2.5, 0.7), complex(0.004002311060614838, 0.0)),
    ((0.3 + 2j, 1.0), complex(0.3853103509076439, -0.282528211686484)),
    ((2.5, 1.3), complex(0.7832185539082372, 0.0)),
    ((3 + 40j, 1.0), complex(0.9326091439284984, -0.0637575060711776)),
    ((1.5 - 0.5j, 1 + 0.8j), complex(0.8937703627307788, 0.24262005404701906)),
]


@pytest.mark.parametrize("args, true", KERNEL_TRUE, ids=["%s,%s" % args for args, _ in KERNEL_TRUE])
def test_kernel_estimate_bounds_the_true_error(args, true):
    z = hurwitz_zeta(*args)
    assert abs(z.value - true) <= z.err_estimate


class TestIntegerArgument:
    @pytest.mark.parametrize("a", [1, 2, 9, Fraction(1, 2)], ids=str)
    def test_bernoulli_polynomial_value(self, a):
        for n in range(21):
            z = hurwitz_zeta(-n, a)
            assert z.method == "bernoulli_polynomial"
            assert z.value == float(-bernoulli_polynomial(n + 1, a) / (n + 1))


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("call", [
    lambda: hurwitz_zeta(NAN, 1),
    lambda: hurwitz_zeta(complex(2, INF), 1),
    lambda: hurwitz_zeta(2.5, NAN),
    lambda: hurwitz_zeta(2.5, 1, tol=0),
    lambda: double_zeta(NAN, 3),
    lambda: double_zeta(2, 3, INF, 1),
    lambda: double_zeta(2, 3, tol=-1),
    lambda: desing1(NAN),
    lambda: desing1(2, complex(1, INF)),
    lambda: desing2(NAN, 3),
    lambda: desing2(3, 4, 1, NAN),
    lambda: desing2(3, 4, tol=0),
    lambda: desing2(3, 4, tol=-1),
    lambda: desing2(3, 4, tol=NAN),
], ids=["hurwitz-s-nan", "hurwitz-s-inf", "hurwitz-a-nan", "hurwitz-tol-zero",
        "double-s-nan", "double-weight-inf", "double-tol-negative", "desing1-s-nan",
        "desing1-weight-inf", "desing2-s-nan", "desing2-weight-nan", "desing2-tol-zero",
        "desing2-tol-negative", "desing2-tol-nan"])
def test_non_finite_input_or_bad_tol_rejected(call):
    with pytest.raises(ValueError, match="must be finite|positive number"):
        call()


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

    def test_polynomial_route_on_a_tail_hyperplane(self):
        # s1 + s2 = -6 is singular off s2 = -n only: at s2 = -2 the
        # value is that of s1 -> zeta_2(s1, -2) =
        # -(2 zeta(s1 - 3) + 3 zeta(s1 - 2) + zeta(s1 - 1)) / 6
        assert abs(double_zeta(-4, -2).value + 11 / 15120) < 1e-18
        with pytest.raises(SingularPointError):
            double_zeta(-3.5, -2.5)

    def test_reach_guard(self):
        with pytest.raises(ContinuationReachError):
            double_zeta(-20.0, -10.5)

    @pytest.mark.parametrize("s1, n, gamma1, want", [
        (0.5, 2, 1e-120, 3.464770416289255e-62),
        (0.5 + 1j, 3, 1e-110, complex(5.122649407932084e+52, 3.377494988003142e+52)),
        (0.5, 2, 1e-160, 3.464770416289255e-82),
    ])
    def test_integer_s2_with_a_tiny_weight(self, s1, n, gamma1, want):
        # beta^(n + 1) underflows, and beta^(n + 1 - p) at the later orders
        # must not be stepped down from it; the literals are -g1^-s1/(n+1)
        # sum_i binomial(n+1, i) B_(n+1-i)(1) beta^i zeta(s1 - i), summed apart
        z = double_zeta(s1, -n, gamma1, 1)
        assert z.method == "euler_maclaurin"
        assert abs(z.value - want) <= z.err_estimate

    def test_integer_s2_has_no_head_cap(self):
        # a weight ratio far below the head cap is summed at s2 = -n
        z = double_zeta(3.5, -2, 1e-3, 1)
        assert abs(z.value + 7111548.529212696) <= z.err_estimate

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            double_zeta(2.0, 3.0, -1.0, 1.0)

    @pytest.mark.parametrize("weights", [(1e-300, 1.0), (1e-5, 1.0), (1e-320, 1e10),
                                         (1 / 300, 1.0), (1 / 230, 1.0)])
    def test_tiny_weight_ratio_refused(self, weights):
        # the head length grows like 1/|gamma1/gamma2|: at s2 = 0 it is
        # (22 / (2 pi) + 1) / |gamma1/gamma2|, over 1000 terms below about
        # 0.0045; the third ratio is 0.0
        with pytest.raises(ContinuationReachError, match="head longer"):
            desing2(3, 4, *weights)

    def test_long_head_from_large_s2_summed(self):
        # ordinary weights, but |s2| asks for a head of 1033 terms: only the
        # weight ratio is capped, so the point is summed as before the cap.
        # The literal comes from the mpmath head/tail evaluator of
        # perfbench/reference.py at 30 digits (heads 2000 and 4000 agree to
        # 1e-25)
        z = double_zeta(3, 2 + 1600j, 1, 4)
        want = complex(0.004686362264176558, 0.023372161824511274)
        assert abs(z.value - want) <= z.err_estimate

    def test_tail_overflow_refused(self):
        # beta^(1 - s2) = 4^1599 overflows double precision
        with pytest.raises(ContinuationReachError, match=r"Re s2=1600 .*\|gamma1/gamma2\|=0\.25"):
            double_zeta(3, 1600, 1, 4)
        # beta^(1 - s2) = 5.6e299 is finite, but beta^(1 - s2 - p) overflows at order p = 16
        with pytest.raises(ContinuationReachError, match=r"Re s2=2 .*\|gamma1/gamma2\|=0\.25"):
            double_zeta(3, 2 + 492j, 0.25 * cmath.exp(1.4j), 1)

    @pytest.mark.parametrize("s2, weights, shown", [
        # beta^(1 - s2) = 2.8e292 is finite, its products with the
        # coefficients and Hurwitz values are not: nan without the check
        (2 + 480j, (0.25 * cmath.exp(1.4j), 1), r"Re s2=2 "),
        # the sum of single zetas at s2 = -250 reaches inf and then nan
        (-250, (1, 2), r"Re s2=-250 "),
    ])
    def test_non_finite_sum_refused(self, s2, weights, shown):
        with pytest.raises(ContinuationReachError, match="overflows double precision at " + shown):
            double_zeta(3, s2, *weights)

    @pytest.mark.parametrize("s2, weights, point", [
        (2 + 480j, (0.25 * cmath.exp(1.4j), 1), r"3\+0j, 2\+480j"),
        (-250, (1, 2), r"3\+0j, -250\+0j"),
    ])
    def test_desing2_names_the_point_of_a_non_finite_sum(self, s2, weights, point):
        with pytest.raises(ContinuationReachError,
                           match=r"^cannot reach s=\(%s\): .*overflows double precision" % point):
            desing2(3, s2, *weights, tol=1e-6)


class TestKernelRefusals:
    def test_overflow_refused(self):
        # the ladder reaches N = 64, where (1 + N)^(1 - s) = 65^172.5 overflows
        with pytest.raises(ContinuationReachError, match=r"overflows double precision at s=\(-171\.5\+0j\)"):
            hurwitz_zeta(-171.5, 1)

    @pytest.mark.parametrize("s", [0.5 + 3000j, 1 + 2500j])
    def test_no_convergence_refused(self, s):
        # |Im s| beyond about 2000 needs a partial sum longer than 512 terms
        with pytest.raises(ContinuationReachError, match="does not converge"):
            hurwitz_zeta(s, 1)

    def test_desing2_passes_the_refusal_on(self):
        with pytest.raises(ContinuationReachError, match="does not converge"):
            desing2(0.5 + 3000j, 2)

    def test_refusal_names_the_requested_point(self):
        # the kernel refuses an inner tail argument; the caller's point is
        # named in front, and the kernel's own refusal is kept as the cause
        with pytest.raises(ContinuationReachError, match=r"^cannot reach s=\(0\.5\+3000j, 2\+0j\): ") as info:
            desing2(0.5 + 3000j, 2)
        cause = info.value.__cause__
        assert isinstance(cause, ContinuationReachError)
        assert "does not converge at s=(1.5+3000j)" in str(cause)
        with pytest.raises(ContinuationReachError, match=r"^cannot reach s=\(-171\.5\+0j\): ") as info:
            desing1(-171.5)
        assert isinstance(info.value.__cause__, ContinuationReachError)


class TestSingularityDistance:
    def test_on_hyperplanes(self):
        assert singularity_distance(0, 1).distance == 0
        assert singularity_distance(0, 1).hyperplane == "s2=1"
        assert singularity_distance(1, 1).distance == 0
        # (1, 1) lies on both s2=1 and s1+s2=2; either label is acceptable
        assert singularity_distance(1, 1).hyperplane in ("s2=1", "s1+s2=2")

    def test_regular_point(self):
        assert singularity_distance(3, 4).distance > 1

    def test_locus_follows_the_route(self):
        # at s2 = -2 the last pole of the finite expansion is at s1 + s2 = -1
        assert singularity_distance(-4, -2).distance >= 1 / math.sqrt(2)
        assert singularity_distance(-3.5, -2.5).distance == 0  # s2 off the integers
        assert singularity_distance(3, -2).distance == 0  # pole of zeta(s1 - 2)

    @staticmethod
    def scan(s1, s2):
        """The level-by-level scan that singularity_distance replaced."""
        s1 = complex(s1)
        s2 = complex(s2)
        n = numeric._is_nonpositive_int(s2)
        bottom = numeric._REACH if n is None else 1 - n
        best = ("s2=1", abs(s2 - 1))
        w = s1 + s2
        for v in (2, 1, *range(0, bottom - 1, -2)):
            d = abs(w - v) / math.sqrt(2)
            if d < best[1]:
                best = ("s1+s2=%d" % v, d)
        return best

    def test_matches_the_level_scan(self):
        rng = random.Random(11)
        points = [(1.25, 0.25), (-1.5 + 0.1j, -1.5 + 0.1j), (-1.5 - 0.1j, -1.5 - 0.1j),
                  (-20, 5), (30, -1.5), (-0.5, 0)]  # ties at w = 1.5, -3 +- 0.2i
        for _ in range(400):
            s1 = complex(rng.uniform(-30, 8), rng.uniform(-2, 2))
            s2 = complex(rng.uniform(-25, 4), rng.uniform(-1, 1))
            points += [(s1, s2), (s1, -rng.randrange(25)), (round(s1.real) + 0.5j * rng.random(), s2),
                       (-rng.randrange(30) - s2 + 1j * rng.uniform(-0.3, 0.3), s2)]
        for s1, s2 in points:
            report = singularity_distance(s1, s2)
            assert (report.hyperplane, report.distance) == self.scan(s1, s2), (s1, s2)


GRID_WEIGHTS = [Fraction(w) for w in ("1", "1/2", "2/3", "3/4", "4/3", "3/2", "2")]


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
        # s2 = -1 is one finite sum; at s2 = 1 a shifted term is singular
        assert desing2(-1, -1).method == "euler_maclaurin"
        assert desing2(-1, 1).method == "extrapolated"

    def test_cancellation_at_one_one(self, monkeypatch):
        # (1, 1) lies on singular hyperplanes of all three shifted terms, where
        # the coefficient polynomials must be evaluated without cancellation
        for radius in (1.0 / 1024, 1.0 / 512):
            monkeypatch.setattr(numeric, "_CIRCLE_RADIUS", radius)
            assert abs(desing2(1, 1).value - 0.5) < 1e-10

    def test_extrapolation_stability(self, monkeypatch):
        # doubling the radius of the circle moves the mean by less than the
        # reported error estimates (plus double-precision noise)
        for s1, s2 in ((-1, 1), (1, 1), (2, 1), (-1, 4)):
            a = desing2(s1, s2)
            with monkeypatch.context() as m:
                m.setattr(numeric, "_CIRCLE_RADIUS", 1.0 / 512)
                b = desing2(s1, s2)
            assert abs(a.value - b.value) <= a.err_estimate + b.err_estimate + 1e-9

    def test_circle_mean_on_the_singular_grid(self):
        # at (-k, -l) with l <= 1 a shifted term is singular, which once
        # needed the mean over a circle's nodes; the combination is now one
        # finite sum there, with no circle, and the true error is within the
        # reported estimate at every k
        for k in range(6):
            for l in range(2):
                got = desing2(-k, -l)
                want = float(desing_value_r2_closed(k, l, 1, 1))
                err = abs(got.value - want)
                assert got.method == "euler_maclaurin"
                assert err < 1e-8
                assert err <= got.err_estimate, (k, l)

    # (s1, n, weights, desing2(s1, -n)): the literals are mpmath at 60 to
    # 70 digits, the mean of perfbench/reference.py's three-term combination
    # over 12 or 16 nodes on a circle |s2 + n| = 1e-4 or 1e-3 (each term's
    # truncation below 1e-59; the two settings agree to 40 digits at the
    # first point), printed to 40 digits.  The estimate leaves out the
    # kernel's own rounding (ROADMAP item 1(d)): zeta(-3.3+0.4j) is off by
    # 2.3e-14 at an estimate of 5.9e-16, so the comparison allows 2^-44 on
    # top of it, as TestHeadRecurrence does
    @pytest.mark.parametrize("s1, n, weights, want", [
        (0.5 + 1j, 0, ("1", "1"), complex("0.3250657649965392794819901506692320677477"
                                          "+0.2524931494215128024437386168869420207711j")),
        (1.5 - 0.5j, 1, ("2/3", "3/2"), complex("0.9454477487708591653891798407197147436511"
                                               "-0.5030676796981418883391052558293717280079j")),
        (-1.3 + 0.4j, 2, ("1/2", "2"), complex("-0.006099226356644156089851488965460176449662"
                                              "+0.0004734826364128201571156439733545662515275j")),
        (2.25 + 0.75j, 3, ("3/4", "4/3"), complex("0.148400750783630370398060368951361003732"
                                                 "+0.2909882218752807543428859190852677896992j")),
        (0.7, 0, ("4/3", "1/2"), 0.3407431293816264494674200424944941951275),
    ])
    def test_non_integer_s1_on_the_line(self, s1, n, weights, want):
        got = desing2(s1, -n, *(float(Fraction(g)) for g in weights))
        assert got.method == "euler_maclaurin"
        assert abs(got.value - want) <= got.err_estimate + 2.0**-44 * max(1, abs(want))

    def test_no_double_zeta_on_the_line(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("double_zeta called on s2 = -n")

        monkeypatch.setattr(numeric, "double_zeta", refuse)
        for s1, n in ((-3, 1), (2, 0), (0.5 + 1j, 0), (-2.5, 3), (4, 7)):
            assert desing2(s1, -n, 2 / 3, 3 / 2).method == "euler_maclaurin"

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

    @pytest.mark.parametrize("weights", [(g1, g2) for g1 in GRID_WEIGHTS for g2 in GRID_WEIGHTS])
    def test_integer_s2_grid_summed_directly(self, weights):
        # at s2 = -l the combination is one finite sum of single zetas,
        # summed exactly: at l <= 1 too, where a shifted term is singular,
        # and on the hyperplanes s1 + s2 = -k - l
        g1, g2 = (float(g) for g in weights)
        for k in range(9):
            for l in range(9):
                got = desing2(-k, -l, g1, g2)
                want = float(desing_value_r2_closed(k, l, *weights))
                err = abs(got.value - want)
                assert got.method == "euler_maclaurin"
                assert err <= got.err_estimate, (k, l)
                assert err <= 2e-15 * abs(want), (k, l)

    @pytest.mark.parametrize("k, l", [(20, 5), (25, 3), (30, 2), (9, 9), (15, 6), (12, 4)])
    def test_deep_integer_grid_within_estimate(self, k, l):
        got = desing2(-k, -l)
        want = float(desing_value_r2_closed(k, l, 1, 1))
        assert abs(got.value - want) <= got.err_estimate

    @pytest.mark.xfail(strict=True, reason="ROADMAP 1(d): the kernel's rounding at "
                       "Re s near -10 is not in its estimate")
    def test_single_zeta_rounding_at_integer_s2(self):
        # the s2 = -4 terms read zeta(s, 1) at Re s from -7.3 to -11.3, off
        # by up to 2.4e-9 against estimates near 5e-16; the literal is
        # mpmath at 40 digits
        got = desing2(-3.3 + 0.2j, -4, 1.5, 0.5)
        want = complex(-0.3872693024891992, 0.039467310515038524)
        assert abs(got.value - want) <= got.err_estimate

    @pytest.mark.parametrize("s, weights, route", [
        ((3, 4), (1e300, 1e-300), "euler_maclaurin"),
        ((3, 4), (1e-100, 1e-100), "euler_maclaurin"),
        ((5, -2), (1e-100, 1), "euler_maclaurin"),
    ])
    def test_weight_power_underflow_refused(self, s, weights, route):
        # Python's complex power by an integer divides by a power that
        # underflowed to zero; the sum refuses it naming the weight ratio,
        # at s2 = -n too
        assert double_zeta(*s).method == route
        with pytest.raises(ContinuationReachError, match=r"underflows .*weight ratio"):
            double_zeta(*s, *weights)
        with pytest.raises(ContinuationReachError, match=r"^cannot reach s=.*weight ratio"):
            desing2(*s, *weights)

    def test_beyond_reach_named(self):
        # every node of the circle lies beyond the tail's reach
        with pytest.raises(ToleranceError, match=r"Re\(s1\+s2\)=-20\.2 .*Re\(s1\+s2\) > -14"):
            desing2(-20.5, 0.3)


def _count_hurwitz(monkeypatch):
    """Record the arguments of every Hurwitz evaluation (cache hits excluded),
    from an empty cache."""
    hurwitz_zeta.cache_clear()
    calls = []
    original = numeric._hurwitz_kernel

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(numeric, "_hurwitz_kernel", counting)
    return calls


class TestTailTruncation:
    # the tail keeps only the terms its bound over m > M cannot drop within
    # a share of tol, so a loose tol costs fewer Hurwitz evaluations
    @pytest.mark.parametrize("s, weights", [
        ((2.5, 3.5), (1, 1)),
        ((-1.5 + 0.5j, 2.2), (1, 1)),
        ((0.3 + 2j, -2.7 + 1j), (1, 1)),
        ((5.3 - 1.7j, -3.6 - 2.6j), (1 / 2, 3 / 2)),
        ((3.2 + 1.1j, 0.4 - 0.5j), (1 / 2, 3 / 2)),
        ((2.1 - 0.4j, 1.3 + 2.8j), (4 / 3, 2 / 3)),
        ((-4.5 + 0.3j, -1.3 + 2.2j), (4 / 3, 2 / 3)),
        ((6.5 + 1j, -3.7 - 1j), (2, 1)),
        ((2.2 - 2j, 0.7 + 0.4j), (1, 2)),
        ((5, 2 - 200j), (1, 1)),
    ])
    def test_loose_tol_agrees_with_fewer_evaluations(self, monkeypatch, s, weights):
        calls = _count_hurwitz(monkeypatch)
        loose = double_zeta(*s, *weights, tol=1e-6)
        n_loose = len(calls)
        # both ask the kernel at tol 1e-15: the tight call must not read the
        # loose call's values from the cache
        hurwitz_zeta.cache_clear()
        tight = double_zeta(*s, *weights, tol=1e-13)
        assert abs(loose.value - tight.value) <= loose.err_estimate + tight.err_estimate
        assert n_loose < len(calls) - n_loose

    def test_large_s2_agrees_across_tol(self):
        # |beta (M + 1)| = 39 / 4 is small beside |s2| = 30, so the tail's
        # coefficients grow over the first orders before they shrink
        loose = double_zeta(3, 2 + 30j, 1, 4, tol=1e-4)
        tight = double_zeta(3, 2 + 30j, 1, 4, tol=1e-13)
        assert abs(loose.value - tight.value) <= loose.err_estimate + tight.err_estimate

    @pytest.mark.parametrize("tol", [1e-4, 1e-13])
    def test_tail_evaluates_offsets_zero_one_and_even(self, monkeypatch, tol):
        # the grouped coefficients of the odd offsets p >= 3 vanish: the
        # tail asks for zeta(s1 + s2 - 1 + p, M + 1), M + 1 = 39, at
        # p = 0, 1, 2, 4, ... only
        s1, s2 = 3, 2 + 30j
        calls = _count_hurwitz(monkeypatch)
        double_zeta(s1, s2, 1, 4, tol=tol)
        offsets = {(s - (s1 + s2 - 1)).real for s, a, _ in calls if a == 39}
        assert {0, 1, 2} <= offsets
        assert all(p == round(p) and (p < 2 or p % 2 == 0) for p in offsets)

    @pytest.mark.parametrize("args, tols", [
        ((3, 2 + 1600j, 1, 4), (1e-4, 1e-6, 1e-10, 1e-13)),
        ((4.630 - 0.760j, -0.030 + 27.066j, 0.195 - 0.156j, 0.782 + 0.624j), (1e-7, 1e-13)),
    ])
    def test_estimate_does_not_grow_as_tol_tightens(self, args, tols):
        estimates = [double_zeta(*args, tol=tol).err_estimate for tol in tols]
        assert estimates == sorted(estimates, reverse=True)


class TestHeadRecurrence:
    # (weights, head length M, kernel evaluations of the head): a ratio p/q
    # with q < M takes one per residue class of m mod q, a ratio with q >= M
    # and a complex one take one per m.  Neither estimate counts the
    # kernel's own rounding (ROADMAP item 1(d)), up to 256 u max(1, |zeta|)
    # at these points, so the comparison allows 512 u on top of them
    @pytest.mark.parametrize("weights, M, kernel_calls", [
        ((1, 1), 8, 1),
        ((1, 4), 20, 4),
        ((4, 1), 8, 1),
        ((1, 10), 40, 10),
        ((15, 16), 9, 9),
        ((1 + 1j, 2 - 0.5j), 10, 10),
    ])
    @pytest.mark.parametrize("s2", [-2.5 + 0.7j, 3.2 - 0.4j, 0.5 + 30j])
    def test_matches_the_kernel(self, monkeypatch, weights, M, kernel_calls, s2):
        beta = complex(weights[0]) / complex(weights[1])
        calls = _count_hurwitz(monkeypatch)
        head = list(numeric._head_values(s2, beta, M, 1e-15))
        assert len(calls) == kernel_calls
        assert [m for m, _, _ in head] == list(range(1, M + 1))
        for m, value, err in head:
            z = hurwitz_zeta(s2, 1 + beta * m, 1e-15)
            assert abs(value - z.value) <= err + z.err_estimate + 2.0**-44 * max(1, abs(z.value))

    def test_huge_integer_ratio_takes_the_kernel(self):
        # beta = 2^40 is p/q with q = 1 but p far above the recurrence's
        # bound: p powers per step would never finish.  The literal is
        # mpmath at 40 digits: the head m <= 8 plus the tail m > 8
        start = time.perf_counter()
        z = double_zeta(3, 4, 2**40, 1)
        assert time.perf_counter() - start < 1
        assert abs(z.value - 1.9193192254978388e-73) <= 2 * z.err_estimate

    def test_overflow_in_the_recurrence_refused(self):
        # weight ratio 16, head m <= 8: the class starts at zeta(-150.5, 17)
        # and recurs towards the offset 129 = 1 + 16 * 8, and a power on the
        # way overflows double precision (a kernel call at 129 would overflow
        # in the kernel itself).  Such an s2 is beyond the tail's reach
        # Re s2 > -21, so double_zeta and desing2 refuse it before any sum
        with pytest.raises(OverflowError):
            list(numeric._head_values(-150.5 + 0j, 16 + 0j, 8, 1e-15))
        with pytest.raises(ContinuationReachError, match=r"Re s2=-150\.5 beyond .* Re s2 > -21"):
            double_zeta(150.3, -150.5, 16, 1)
        with pytest.raises(ToleranceError, match=r"Re s2=-150\.5 beyond .* Re s2 > -21"):
            desing2(150.3, -150.5, 16, 1)


class TestHurwitzMemo:
    # (-3, -1) lies on s2 = -1: one finite sum, of zeta(s1 + s2 - 1 + p) at p = 1, 2
    @pytest.mark.parametrize("point, most", [((-3, -1), 2), ((3, 4), 9)])
    def test_call_count(self, monkeypatch, point, most):
        calls = _count_hurwitz(monkeypatch)
        desing2(*point)
        assert len(calls) <= most

    def test_integer_s2_expansion_shares_calls(self, monkeypatch):
        # the three shifts keep s1 + s2, so their finite tail expansions at
        # s2 = -2 combine order by order into one sum of single zetas
        # zeta(s1 + s2 - 1 + p, 1), p = 1, 2: order p = 0 drops out
        calls = _count_hurwitz(monkeypatch)
        desing2(2.5, -2)
        assert len(calls) == len(set(calls)) == 2

    def test_repeat_reads_the_cache(self, monkeypatch):
        calls = _count_hurwitz(monkeypatch)
        first = desing2(-3, -3)
        assert calls
        calls.clear()
        assert desing2(-3, -3) == first
        assert calls == []
        assert hurwitz_zeta.cache_info().maxsize == 256

    def test_threads_match_sequential(self):
        # more threads than the two cores of the reference machine
        points = [[(3, 4), (-1.5 + 0.5j, 2.2)], [(-3, -3), (2.5, -2)], [(0.5 + 1j, 1.5)]]
        want = [[desing2(*p) for p in group] for group in points]
        got = [None] * len(points)

        def work(i):
            got[i] = [desing2(*p) for p in points[i] for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(points))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i in range(len(points)):
            assert got[i] == [r for r in want[i] for _ in range(3)]


# desing2 bit for bit at tol 1e-6 (the benchmark's tol): (value.real,
# value.imag, err_estimate) as float.hex, and the method, at eight regular and
# two near points of perfbench/references.json, so that a change meant to keep
# every output shows each bit it moves in tier-1.  All but regular/5/6 lie
# at integer centres n where re-expanding a group's coefficient about n
# cancels a monomial's running sum (n2 = -1 or n1 + n2 = 1), which moves that
# monomial in the order the coefficient is summed in.
DESING2_PINS = [
    ("regular/33/0", 1.6724789768863566 - 0.06726293206346101j,
     -0.8750034398798308 + 1.0801401039795238j, ("1/2", "2"),
     ("0x1.6e83a593725bdp+1", "0x1.fb800eff081a0p-4", "0x1.2426242ce6879p-35", "euler_maclaurin")),
    ("regular/47/7", 4.780235247335606 + 2.8452306685250086j,
     -4.382952907051766 + 1.1041705926738379j, ("3/4", "2/3"),
     ("-0x1.9ad5de97e9f56p+1", "0x1.c3c3bbb51ef40p-1", "0x1.2defda7b39224p-38", "euler_maclaurin")),
    ("regular/188/0", -4.983730319338558 - 1.4512912358032624j,
     5.7411466077660585 - 1.0198096082698167j, ("1/2", "4/3"),
     ("0x1.e5d17a11ac000p-15", "0x1.1acdb869e9300p-10", "0x1.0f84a8d78fbacp-23", "euler_maclaurin")),
    ("regular/44/4", 7.678914572562348 - 1.1188329924831482j,
     -0.5103041216030197 - 0.22459731631552948j, ("1", "1"),
     ("0x1.df4f7b3bb7040p+1", "-0x1.fa70917e7d276p-2", "0x1.43ea9b6362f86p-37", "euler_maclaurin")),
    ("regular/185/3", 7.470864072994866 + 0.0892856372518227j,
     -5.759952248543323 - 0.9444192731454519j, ("2", "2"),
     ("0x1.70cc4cfbe01d0p-2", "-0x1.bc1053eb51d00p-5", "0x1.6393ab4fcee10p-33", "euler_maclaurin")),
    ("regular/71/0", -4.077147058902299 - 1.6612307069442442j,
     -0.9211903872327651 - 2.273069312432687j, ("2/3", "2"),
     ("0x1.f3a87ada62ca0p-5", "0x1.ceb5d27a55a4fp-5", "0x1.93117b1a13d48p-19", "euler_maclaurin")),
    ("regular/187/5", -3.6081792745406456 + 2.469458444726885j,
     5.407713551589708 + 0.5620287352051321j, ("3/4", "3/4"),
     ("-0x1.77a3bf6736496p-4", "0x1.84bfaff4e7cfap-5", "0x1.47401a3180d67p-30", "euler_maclaurin")),
    ("regular/5/6", 1.0467289095495174 + 1.076745987678085j,
     -3.8076850140883787 + 2.4005310520858902j, ("1", "1"),
     ("-0x1.a399f17f618a6p+0", "0x1.2412d90aa09a8p-1", "0x1.dd0d27c99dec9p-34", "euler_maclaurin")),
    ("near/10/7", -3.85913356135791 + 1.6419698741698059j,
     4.859133564416233 - 1.64196985952984j, ("1/2", "2/3"),
     ("-0x1.1a7aeec820000p-6", "0x1.eb372c6aaaaabp-12", "0x1.e3c717b9a73cap-38", "extrapolated")),
    ("near/2/2", 3.417852721173272 - 0.1258835241385198j,
     -2.4178527261549965 + 0.12588350554855054j, ("1", "1"),
     ("0x1.23aa6b2059b55p+0", "-0x1.7db584f52baabp-6", "0x1.58824f4cbee75p-35", "extrapolated")),
]


@pytest.mark.parametrize("s1, s2, weights, want", [p[1:] for p in DESING2_PINS],
                         ids=[p[0] for p in DESING2_PINS])
def test_desing2_bits_pinned(s1, s2, weights, want):
    g1, g2 = (complex(Fraction(g)) for g in weights)
    r = desing2(s1, s2, g1, g2, tol=1e-6)
    assert (r.value.real.hex(), r.value.imag.hex(), r.err_estimate.hex(), r.method) == want


@pytest.mark.parametrize("weights", [(1.0, 1.0), (2 / 3, 3 / 2), (1.0, 2 ** 0.5)])
def test_desing2_does_no_symbolic_work_per_point(monkeypatch, weights):
    # the combination's tables and the weight ratio are built once; a point
    # then costs floats and a few integer products, and no singularity report
    desing2(2.3 + 0.4j, 3.1 - 0.2j, *weights, tol=1e-6)

    def refuse(*args, **kwargs):
        raise AssertionError("symbolic work at a regular point")

    for owner, names in ((SPoly, ("__add__", "__radd__", "__mul__", "__rmul__", "evaluate")),
                         (Fraction, ("limit_denominator",)), (SingularityReport, ("__new__",))):
        for name in names:
            monkeypatch.setattr(owner, name, refuse)
    got = desing2(-1.4 + 0.7j, 2.6 - 1.1j, *weights, tol=1e-6)
    monkeypatch.undo()
    assert got == desing2(-1.4 + 0.7j, 2.6 - 1.1j, *weights, tol=1e-6)
    assert got.method == "euler_maclaurin"


@pytest.mark.parametrize("s1, s2, weights, method", [
    (-1.4 + 0.7j, 2.6 - 1.1j, (2 / 3, 3 / 2), "euler_maclaurin"),  # regular: the terms summed
    (2.5 + 1e-8, -0.5, (1.0, 1.0), "extrapolated"),  # 1e-8 from s1 + s2 = 2: the circle
    (-20.5, 0.3, (1.0, 1.0), None),  # beyond the tail's reach: refused
])
def test_desing2_sums_its_terms_without_double_zeta(monkeypatch, s1, s2, weights, method):
    # each term goes straight to the double-zeta expansion, checked once per
    # point or node; the public double_zeta keeps its guards for other callers
    def outcome():
        try:
            return desing2(s1, s2, *weights, tol=1e-6)
        except ToleranceError as exc:
            return str(exc)

    want = outcome()
    assert getattr(want, "method", None) == method

    def refuse(*args, **kwargs):
        raise AssertionError("desing2 called the public double_zeta")

    monkeypatch.setattr(numeric, "double_zeta", refuse)
    assert outcome() == want


# s2 within 1e-12 of -2 but not on the line: the point is summed as any
# other, with its own estimate, not given the value at s2 = -2.  The
# literals are perfbench/reference.py's desing2_mp (mpmath)
@pytest.mark.parametrize("s2, want", [
    (-2 + 9e-13, 0.1357996148511079),
    (complex(-2, 9e-13), 0.1357996148509686 + 1.393315907541491e-13j),
])
def test_desing2_next_to_the_line(s2, want):
    assert numeric._is_nonpositive_int(complex(s2)) is None
    assert numeric._is_nonpositive_int(complex(-2)) == 2
    got = desing2(0.5, s2)
    assert got.method == "euler_maclaurin"
    assert abs(got.value - want) <= got.err_estimate
    # the line's own locus (its last pole at s1 + s2 = -1) holds on the line only
    assert singularity_distance(-4, -2 + 1e-13).hyperplane == "s1+s2=-6"


# only s = 1 itself takes the value -1/gamma; the literals are mpmath at 40
# digits.  At gamma = 1e300, (1 - s) gamma^-s alone is subnormal, so the
# weight power is applied last
@pytest.mark.parametrize("s, gamma, want", [
    (1 + 5e-15, 1.5, -0.6666666666666672514230294421760160752451),
    (1 + 1e-15, 1e300, -9.999999999992336734374411924010088452125e-301),
])
def test_desing1_next_to_one(s, gamma, want):
    got = desing1(s, gamma)
    assert got.method == "euler_maclaurin"
    assert abs(got.value - want) <= 2 * math.ulp(want)


# the estimate covers the rounding of gamma^-s and of the two complex
# products, and that of -1/gamma at s = 1 (exactly -2/3 there); the
# literals are mpmath at 40 digits, and the error is taken in fractions
@pytest.mark.parametrize("s, gamma, want", [
    (1 + 5e-15, 1.5, ("-0.6666666666666672514230294421760160752451", 0)),
    (0.5 + 3j, 2, ("-1.021622547647622844123533979611245673503",
                   "0.5456098327866596158719846734966273334181")),
    (1, 1.5, (Fraction(-2, 3), 0)),
])
def test_desing1_estimate_covers_its_rounding(s, gamma, want):
    got = desing1(s, gamma)
    parts = (got.value.real, got.value.imag)
    err = abs(complex(*(float(Fraction(g) - Fraction(w)) for g, w in zip(parts, want))))
    assert 0 < err <= got.err_estimate


@pytest.mark.parametrize("gamma", [1.0, 1.5, 1e-300])
def test_desing1_where_one_over_s_minus_one_overflows(gamma):
    # an offset this small leaves -1/gamma the value to double precision
    got = desing1(complex(1, 1e-310), gamma)
    assert got.value == -1 / gamma


# (s1, s2, the double zeta): literals from perfbench/reference.py's head/tail
# split in mpmath at 30 digits (its truncation below 2e-31), printed to 25
@pytest.mark.parametrize("s1, s2, want", [
    (3, 4, 0.08515982253483365140680602),
    (2.2, 2.8, 0.2781085567345360258094485),
    (3, 2, 0.7115661975505724320969738),
    (2.5 + 1j, 3 - 0.5j, 0.1907499863332020613251363 + 0.09090806746667150716085204j),
])
def test_direct_sum_estimate_bounds_its_error(s1, s2, want):
    got = double_zeta_direct(s1, s2)
    assert abs(got.value - want) <= got.err_estimate


def test_kernel_refuses_a_power_that_overflows():
    # at a = 1e-100 the partial sum is empty (N = 0) and each correction's
    # power of x = a grows by x^-2 = 1e200: the second one is infinite
    with pytest.raises(ContinuationReachError, match=r"overflows double precision at s=\(0\.3\+0j\)"):
        hurwitz_zeta(0.3, 1e-100)


def test_desing1_refuses_a_product_that_overflows():
    # gamma^-2 = 1.6e308 is finite, and its product with (1 - s) zeta(2) is not
    with pytest.raises(ContinuationReachError,
                       match=r"^cannot reach s=\(2\+0j\): the weight power gamma\^-s"):
        desing1(2, 8e-155)


@pytest.mark.parametrize("s, a", [(0.3, 1e-200), (-0.5, 1e-200), (0.3 + 1j, 1e-300)])
def test_kernel_refuses_a_power_that_underflows(s, a):
    # x^-2 is a complex power by an integer, 1 / x^2, and x^2 underflows to
    # 0 at these offsets (at a = 1e-100 the powers overflow instead, above)
    want = "Hurwitz zeta underflows double precision at s=%s, offset a=%s" % (complex(s),
                                                                              complex(a))
    with pytest.raises(ContinuationReachError) as info:
        hurwitz_zeta(s, a)
    assert str(info.value) == want


@pytest.mark.parametrize("call, args, reason", [
    (desing1, (2.5, 1e300), "the weight power gamma^-s leaves double precision at |gamma|=1e+300"),
    (desing1, (2 + 0.5j, 1e300),
     "the weight power gamma^-s leaves double precision at |gamma|=1e+300"),
    (desing2, (2.5, 3.5, 1e300, 1e300), "a weight power underflows double precision at "
     "|gamma1|=1e+300, |gamma2|=1e+300 (weight ratio |gamma1/gamma2|=1)"),
    (double_zeta, (2.5, 3.5, 1e300, 1e300), "a weight power underflows double precision at "
     "|gamma1|=1e+300, |gamma2|=1e+300 (weight ratio |gamma1/gamma2|=1)"),
])
def test_weight_power_underflowing_to_zero_refused(call, args, reason):
    # a non-integer power underflows to 0 silently (the value would read 0
    # with an estimate of 0); it is refused as an integer one is
    with pytest.raises(ContinuationReachError) as info:
        call(*args)
    assert str(info.value).endswith(reason)


@pytest.mark.parametrize("call, args, want", [
    (desing1, (2, 1e300), "cannot reach s=(2+0j): the weight power gamma^-s leaves double "
     "precision at |gamma|=1e+300"),
    (desing2, (2, 3, 1e300, 1e300), "cannot reach s=(2+0j, 3+0j): double-zeta head or tail "
     "overflows double precision at Re s2=5 with weight ratio |gamma1/gamma2|=1"),
])
def test_integer_weight_power_refusal_unchanged(call, args, want):
    # a power by an integer exponent leaves nan here, which the overflow check refuses
    with pytest.raises(ContinuationReachError) as info:
        call(*args)
    assert str(info.value) == want
