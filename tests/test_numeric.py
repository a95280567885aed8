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
# The points cover the N = 0 ladder (Re s < 0.5, where the estimate counts
# the kernel's rounding), Re s >= 0.5, offsets below 1 (taken one step up by
# zeta(s, a) = a^-s + zeta(s, a + 1)), complex a, and a |s| so large that the
# correction series stops on divergence.  The last estimate is not a bound
# on the error: (3+5000j, 1) is off by 5.7e-8 (ROADMAP item 17).  At
# (-45+20j, 0.3+0.4j) the value is near 8.5e40, where the true one is
# 5.53e31-1.67e32j, and its estimate 3.0e42 says so.
KERNEL_PINS = [
    ((-2.5, 0.7), complex(0.004002311060624264, 0.0), 2.5514486738958935e-13),
    ((-10.2, 0.1), complex(-0.004137541820201641, 0.0), 9.782770335111332e-08),
    ((0.3 + 2j, 1.0), complex(0.38531035090764304, -0.2825282116864848), 9.399085405712101e-15),
    ((2.5, 1.3), complex(0.7832185539082374, 0.0), 1.0814901201459964e-15),
    ((3 + 40j, 1.0), complex(0.9326091439284988, -0.06375750607117799), 6.571128058053324e-15),
    ((1.5 - 0.5j, 1 + 0.8j), complex(0.8937703627307788, 0.24262005404701914),
     3.430165447144709e-15),
    ((-45 + 20j, 0.3 + 0.4j), complex(-7.303289523423714e+40, -4.321071466881432e+40),
     3.047248508893915e+42),
    ((3 + 5000j, 1.0), complex(0.8998677973725441, 0.026966556462518516), 9.52519247502229e-09),
]


@pytest.mark.parametrize("args, value, err", KERNEL_PINS,
                         ids=["%s,%s" % args for args, _, _ in KERNEL_PINS])
def test_kernel_pinned(args, value, err):
    z = hurwitz_zeta(*args)
    assert z.value == value
    assert z.err_estimate == err


# the other seven pins against their true values (mpmath, 40 digits)
KERNEL_TRUE = [
    ((-2.5, 0.7), complex(0.004002311060614838, 0.0)),
    ((-10.2, 0.1), complex(-0.0041375430474344236, 0.0)),
    ((-45 + 20j, 0.3 + 0.4j), complex(5.5253514596868738e+31, -1.6690123694140058e+32)),
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
        assert "does not converge at s=(2.5+3000j)" in str(cause)
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
        # s2 = -1 is one finite sum; at s2 = 1 a shifted term is singular, and
        # its terms are one head and one pole-free tail, within the estimate
        assert desing2(-1, -1).method == "euler_maclaurin"
        got = desing2(-1, 1)
        assert got.method == "euler_maclaurin"
        assert abs(got.value - 0.125) <= got.err_estimate

    def test_cancellation_at_one_one(self):
        # (1, 1) lies on singular hyperplanes of all three shifted terms, where
        # the one sum reads the quotients d_i, in which nothing cancels
        got = desing2(1, 1)
        assert got.method == "euler_maclaurin" and abs(got.value - 0.5) <= got.err_estimate
        strict = desing2(1, 1, tol=1e-15)
        assert abs(strict.value - 0.5) <= strict.err_estimate < 1e-13

    def test_stricter_tol_gets_no_worse_answer(self):
        # at tol 1e-15 the sum at (-1, 1) with the first head length misses
        # tol, its tail's truncation most of its estimate, so it is summed
        # again with a longer head; that estimate is the smaller, and it is
        # the one returned
        M = numeric._head_length(3, 1)  # the largest |s2_i| is |s2 + 2| = 3
        first, truncation = numeric._desing2_tail(-1 + 0j, 1 + 0j, None, M, 1 + 0j, 1 + 0j, 1e-15)
        assert first.err_estimate > 1e-15 and 2 * truncation > first.err_estimate
        got, loose = desing2(-1, 1, tol=1e-15), desing2(-1, 1, tol=1e-6)
        assert got.method == "euler_maclaurin" and got.err_estimate < first.err_estimate
        assert abs(got.value - 0.125) <= got.err_estimate < 1e-12
        assert abs(got.value - 0.125) <= abs(loose.value - 0.125)

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
    # first point), printed to 40 digits.  The estimate counts the kernel's
    # own rounding (ROADMAP item 1(d)): zeta(-3.3+0.4j) is off by 2.3e-14
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
        assert abs(got.value - want) <= got.err_estimate

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

    def test_single_zeta_rounding_at_integer_s2(self):
        # the s2 = -4 terms read zeta(s, 1) at Re s from -7.3 to -11.3, off
        # by up to 2.4e-9, which the kernel's estimates count (ROADMAP item
        # 1(d)); the literal is mpmath at 40 digits
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
        # Re(s1 + s2) = -20.2 lies beyond the tail's reach
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
    # and a complex one take one per m.  The kernel counts its own rounding
    # at Re s < 0.5 only (ROADMAP item 1(d)); at s2 = 0.5 + 30j its values
    # are off by up to 146 times their estimates, about 256 u max(1, |zeta|)
    # here, so the comparison allows 512 u on top of them
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
    # (3, 4): one head value per shift, the rest recurred, and seven tail orders
    @pytest.mark.parametrize("point, most", [((-3, -1), 2), ((3, 4), 10)])
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
# three near points of perfbench/references.json, so that a change meant to
# keep every output shows each bit it moves in tier-1.  Each value lies
# within its estimate of the point's reference.
DESING2_PINS = [
    ("regular/33/0", 1.6724789768863566 - 0.06726293206346101j,
     -0.8750034398798308 + 1.0801401039795238j, ("1/2", "2"),
     ("0x1.6e83a594681b9p+1", "0x1.fb800f2183b70p-4", "0x1.00d1d4d207e0dp-30", "euler_maclaurin")),
    ("regular/47/7", 4.780235247335606 + 2.8452306685250086j,
     -4.382952907051766 + 1.1041705926738379j, ("3/4", "2/3"),
     ("-0x1.9ad5de9822ab5p+1", "0x1.c3c3bbb5100cbp-1", "0x1.c1af026f67263p-32", "euler_maclaurin")),
    ("regular/188/0", -4.983730319338558 - 1.4512912358032624j,
     5.7411466077660585 - 1.0198096082698167j, ("1/2", "4/3"),
     ("0x1.e5bb553b07000p-15", "0x1.1acd9664b7ff6p-10", "0x1.31062e89ae0f7p-27", "euler_maclaurin")),
    ("regular/44/4", 7.678914572562348 - 1.1188329924831482j,
     -0.5103041216030197 - 0.22459731631552948j, ("1", "1"),
     ("0x1.df4f7b3b4cbe6p+1", "-0x1.fa7091796423ap-2", "0x1.04a67abe88bc5p-31", "euler_maclaurin")),
    ("regular/185/3", 7.470864072994866 + 0.0892856372518227j,
     -5.759952248543323 - 0.9444192731454519j, ("2", "2"),
     ("0x1.70cc4cfa34da9p-2", "-0x1.bc1053eefe6acp-5", "0x1.3d4fcd845cf2dp-29", "euler_maclaurin")),
    ("regular/71/0", -4.077147058902299 - 1.6612307069442442j,
     -0.9211903872327651 - 2.273069312432687j, ("2/3", "2"),
     ("0x1.f3a68d7a1b128p-5", "0x1.ceb6d467393c5p-5", "0x1.8165954cac9d1p-22", "euler_maclaurin")),
    ("regular/187/5", -3.6081792745406456 + 2.469458444726885j,
     5.407713551589708 + 0.5620287352051321j, ("3/4", "3/4"),
     ("-0x1.77a3bf76d1cd5p-4", "0x1.84bfb0126f2aep-5", "0x1.e8450a2bfdde6p-31", "euler_maclaurin")),
    ("regular/5/6", 1.0467289095495174 + 1.076745987678085j,
     -3.8076850140883787 + 2.4005310520858902j, ("1", "1"),
     ("-0x1.a399f1812415fp+0", "0x1.2412d90e69670p-1", "0x1.450b5c3ad3ec8p-30", "euler_maclaurin")),
    ("near/10/7", -3.85913356135791 + 1.6419698741698059j,
     4.859133564416233 - 1.64196985952984j, ("1/2", "2/3"),
     ("-0x1.1a7aedecc9578p-6", "0x1.eb37433a37eb0p-12", "0x1.f3b7961002ee7p-31", "euler_maclaurin")),
    ("near/2/2", 3.417852721173272 - 0.1258835241385198j,
     -2.4178527261549965 + 0.12588350554855054j, ("1", "1"),
     ("0x1.23aa6b22768f2p+0", "-0x1.7db584fd0f925p-6", "0x1.752181ee3f40dp-31", "euler_maclaurin")),
    # on the plane s1 + s2 = -8, off by 6.6e-9
    ("near/7/5", -4.503994571372557 - 0.3199782561410334j,
     -3.496005428806521 + 0.3199782527400359j, ("1", "1"),
     ("-0x1.5857830ce22aap-6", "0x1.48a33f3b600fdp-9", "0x1.e35b8d99223d4p-21", "euler_maclaurin")),
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
    (-1.4 + 0.7j, 2.6 - 1.1j, (2 / 3, 3 / 2), "euler_maclaurin"),  # regular
    (2.5 + 1e-8, -0.5, (1.0, 1.0), "euler_maclaurin"),  # 1e-8 from s1 + s2 = 2
    (-20.5, 0.3, (1.0, 1.0), None),  # beyond the tail's reach: refused
    # near/7/5, 1e-9..1e-6 from s1 + s2 = -8
    (-4.503994571372557 - 0.3199782561410334j, -3.496005428806521 + 0.3199782527400359j,
     (1.0, 1.0), "euler_maclaurin"),
])
def test_desing2_sums_its_terms_without_double_zeta(monkeypatch, s1, s2, weights, method):
    # every point is one head and one tail of single Hurwitz values, its
    # reach checked once; the public double_zeta keeps its guards for other
    # callers
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


# desing2 on and near the singular hyperplanes of its shifted terms, as one
# head and one pole-free tail.  The literals are mpmath: at s2 = 1 the closed
# forms of verify's numeric-02; at the other exact points the mean of
# perfbench/reference.py's desing2_mp over 12 nodes on a circle of radius
# 1e-3 about the point (16 nodes at radius 2e-3 agree to every digit
# printed); elsewhere desing2_mp itself, at the near points as recorded in
# perfbench/references.json.  The near points are variant 1 of the first
# slot of each plane; tests/test_honesty.py grades every variant
ONE_SUM_POINTS = [
    (3, 1, 1.0512097641802658),  # 2 zeta(3) - 5/4 zeta(4): s2_i = 1 exactly
    (-1, 1, 0.125),
    (1.5, -0.5, 0.6321068767756072),  # s1 + s2 = 1 exactly: w_1 = 1
    (1.3, -1.3, 0.46967878378395767),  # s1 + s2 = 0 exactly: w_2 = 1
    # 1e-8 from (2, 0), where the shift (-1, 1) meets s2 = 1 and s1 + s2 = 2
    (2 + 6e-9, 8e-9j, 0.8224670355462707 - 1.2332681721229386e-10j),
    (0.16301066192600544 + 2.0968161205930107j, 1.000000045282899 + 5.762759228304602e-09j,
     0.1961135038742016 + 0.43250896540693123j),  # near/0/1, s2 = 1
    (4.753861636033998 + 2.2326161207141824j, -2.7538616347804465 - 2.2326161231618107j,
     2.5589859281881324 + 0.8130573923035723j),  # near/1/1, s1 + s2 = 2
    (2.856298411899809 + 1.0004727219077563j, -1.8562980204085 - 1.000472261471808j,
     1.0559040818768883 + 0.27689104664911435j),  # near/2/1, s1 + s2 = 1
    (-4.650176558014665 + 1.5843822163849086j, 4.650177412501268 - 1.5843826429453158j,
     -0.01321332772699663 - 0.0018333626471095656j),  # near/3/1, s1 + s2 = 0
    (-4.613227253235871 + 1.4404638995347507j, 2.613227246234601 - 1.440463901368915j,
     -0.0140612328378524 - 0.011175463229311665j),  # near/4/1, s1 + s2 = -2
    (-3.321563524669158 + 1.8473386228263717j, -0.6784365484996915 - 1.8473387016406393j,
     -0.00833991963967973 - 0.010726670064215262j),  # near/5/1, s1 + s2 = -4
]


@pytest.mark.parametrize("s1, s2, want", ONE_SUM_POINTS)
def test_desing2_one_head_one_tail(s1, s2, want):
    got = desing2(s1, s2, tol=1e-6)
    assert got.method == "euler_maclaurin"
    assert abs(got.value - want) <= got.err_estimate


# at (2 + 6e-9, 8e-9j) the tail's first remainder bound is within any
# loose tol; 1e-8 from s1 + s2 = 2 the point (0.5 + 6e-9, 1.5 + 8e-9j),
# desing2_mp at 20 extra digits, takes its place
TRUNCATION_POINTS = [p if p[0] != 2 + 6e-9 else
                     (0.5 + 6e-9, 1.5 + 8e-9j, 0.37609995852829625 - 2.509031604937355e-10j)
                     for p in ONE_SUM_POINTS]


@pytest.mark.parametrize("tol", [0.1, 0.5])
@pytest.mark.parametrize("s1, s2, want", TRUNCATION_POINTS)
def test_desing2_truncation_within_estimate(s1, s2, want, tol):
    # a loose tol stops the tail early: its truncation bound, the sum over
    # the shifts of |c_i| times each shift's own remainder bound, is then
    # most of the estimate (tol 1e-6 gives at most a tenth of it), and the
    # true error is a real share of it
    loose, strict = desing2(s1, s2, tol=tol), desing2(s1, s2, tol=1e-6)
    assert loose.method == "euler_maclaurin"
    assert loose.err_estimate > 10 * strict.err_estimate
    assert loose.err_estimate / 10 < abs(loose.value - want) <= loose.err_estimate


def test_desing2_head_coefficients_come_from_the_combination():
    # the one sum divides each coefficient c_i of combination(2) by s2_i - 1
    # and keeps no second copy: every c_i vanishes on s2_i = 1, and the
    # quotients d_i sum to 0 (the order p = 0 of the tail drops out), which
    # gives d_i where s2_i = 1
    from deszeta.coeffs import combination

    groups = combination(2).groups()
    assert sorted(m2 + m1 for m1, m2 in groups) == [0, 0, 0]
    for s1 in map(Fraction, (-3, Fraction(1, 2), 2, Fraction(7, 3))):
        for m1, m2 in groups:
            assert groups[m1, m2].evaluate((s1, Fraction(1 - m2))) == 0
        for s2 in map(Fraction, (-2, Fraction(1, 3), 5)):
            d = [poly.evaluate((s1, s2)) / (s2 + m2 - 1) for (_, m2), poly in groups.items()]
            assert sum(d) == 0


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


def test_desing1_estimate_covers_the_kernels_rounding():
    # zeta(-3.3) sums growing powers: its rounding, off by 2.6e-13 here, is
    # in the kernel's estimate (ROADMAP item 1(d)); the literal is mpmath at
    # 40 digits
    got = desing1(-3.3, 1.5)
    err = abs(got.value - 0.1017580453387776253809391668117798822668)
    assert 1e-13 < err <= got.err_estimate


# the shifts (s1 - k, s2 + k), k = 0, 1, 2, of regular/104/3 and regular/8/1
# in perfbench/references.json, with the double zeta of perfbench/reference.py's
# double_zeta_reference: the head/tail cancellation of each sum is in its
# estimate, which the kernel's rounding makes up (ROADMAP item 1(d))
@pytest.mark.parametrize("s1, s2, weights, want", [
    (4.403262419904955 + 0.7982877463395939j, -5.083159347412749 - 2.8368707052873328j,
     ("1/2", "2"), 49.58001716569498 + 36.985572859776006j),
    (3.403262419904955 + 0.7982877463395939j, -4.083159347412749 - 2.8368707052873328j,
     ("1/2", "2"), -2.9313151117550507 + 17.03888158902017j),
    (2.403262419904955 + 0.7982877463395939j, -3.083159347412749 - 2.8368707052873328j,
     ("1/2", "2"), -5.363987155879601 + 2.1154272584186242j),
    (7.964255303706576 - 2.85547038118478j, -5.898357254017212 + 1.9184372854405867j,
     ("2/3", "3/2"), 4.824106966244651 - 1.7440372112318234j),
    (6.964255303706576 - 2.85547038118478j, -4.898357254017212 + 1.9184372854405867j,
     ("2/3", "3/2"), -2.5977336313979746 - 3.353578952680258j),
    (5.964255303706576 - 2.85547038118478j, -3.898357254017212 + 1.9184372854405867j,
     ("2/3", "3/2"), -4.491190723991373 - 0.5268790460179382j),
])
def test_double_zeta_estimate_covers_its_cancellation(s1, s2, weights, want):
    got = double_zeta(s1, s2, *(complex(Fraction(g)) for g in weights), tol=1e-7)
    assert abs(got.value - want) <= got.err_estimate


# zeta(s, a) at offsets a < 1 against mpmath at 40 digits (as doubles): each
# value is within its estimate, plus the literal's own rounding, or refused
SMALL_OFFSETS = ("1e-20", "1e-8", "1e-4", "0.01", "0.1", "0.3", "0.7")


@pytest.mark.parametrize("s, wants", [
    (-3.5, [0.004441011335479432, 0.004441011633571928, 0.004443991145129306,
            0.004727595315469323, 0.006127798489928652, 0.0024573282377220885,
            -0.005311785327807164]),
    (-0.5, [-0.20788622487735456, -0.20778623227912715, -0.1979592459681804,
            -0.11522056880757481, 0.03213805694351441, 0.09335881508491532,
            -0.020932663816169043]),
    (0.3, [999999.0954407422, 250.28408388190812, 14.944254711673837, 3.064744361878733,
           0.9753777022979938, 0.19794575454235205, -0.5194716805574043]),
    (2.5, [1e+50, 1e+20, 10000000001.341204, 100001.31377370734, 317.3277936562428,
           21.069239202247726, 2.9028675777573465]),
    (2 + 3j, [9.971909772989625e+39 - 7.490096657280401e+38j,
              2803615975609356.5 - 9598944601429264j, -80011298.3280233 + 59984931.42880829j,
              3162.1616742607366 + 9486.992190871917j, 81.7111102354843 + 58.170269748763246j,
              -9.675739440733503 - 5.457090356485955j, 0.8435001840887173 + 1.5234494012930893j]),
    (-7.2 + 1j, [0.010053667507191976 + 0.000857454476917541j,
                 0.010053667588943764 + 0.0008574538897869773j,
                 0.010054483025496334 + 0.0008515829859687959j,
                 0.0101153678154695 + 0.00026885951204757387j,
                 0.008879204541424919 - 0.004807182429028812j,
                 -0.0019436078261519916 - 0.009107631161496921j,
                 -0.004293265776606879 + 0.008556398885788167j]),
])
def test_hurwitz_at_small_offsets(s, wants):
    # zeta(s, a) = a^-s + zeta(s, a + 1): no correction's power of a small offset
    for a, want in zip(SMALL_OFFSETS, wants):
        try:
            got = hurwitz_zeta(s, float(a))
        except ContinuationReachError:
            continue
        assert abs(got.value - want) <= got.err_estimate + 2.0**-53 * abs(want), (s, a)


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
    # an offset below 1 is taken one step up, zeta(s, a) = a^-s + zeta(s, a + 1),
    # and a^-s = 1e500 here
    with pytest.raises(ContinuationReachError, match=r"overflows double precision at s=\(2\.5\+0j\)"):
        hurwitz_zeta(2.5, 1e-200)


def test_desing1_refuses_a_product_that_overflows():
    # gamma^-2 = 1.6e308 is finite, and its product with (1 - s) zeta(2) is not
    with pytest.raises(ContinuationReachError,
                       match=r"^cannot reach s=\(2\+0j\): the weight power gamma\^-s"):
        desing1(2, 8e-155)


@pytest.mark.parametrize("s, a", [(2, 1e-200), (3, 1e-120)])
def test_kernel_refuses_a_power_that_underflows(s, a):
    # the step a^-s up from an offset below 1 is a complex power by an
    # integer, 1 / a^n, and a^n underflows to 0 at these offsets
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
     "overflows double precision at Re s2=3 with weight ratio |gamma1/gamma2|=1"),
    # on s2 = -n the prefactor's underflow is checked after the sum, so a
    # power that overflows in the sum is the refusal given
    (desing2, (3.5, -2, 1e300, 1), "cannot reach s=(3.5+0j, -2+0j): double-zeta head or tail "
     "overflows double precision at Re s2=-2 with weight ratio |gamma1/gamma2|=1e+300"),
])
def test_integer_weight_power_refusal_unchanged(call, args, want):
    # a power by an integer exponent leaves nan here, which the overflow check refuses
    with pytest.raises(ContinuationReachError) as info:
        call(*args)
    assert str(info.value) == want
