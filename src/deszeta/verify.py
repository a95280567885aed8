"""Self-verification suites: exact identities and numeric cancellation checks.

Each check returns (worst_deviation, passed).  The exact suite exercises the
identities that tie the independent construction routes together; the numeric
suite exercises the analytic continuation against closed-form targets.
``SUITES`` is the one list of checks: the CLI "verify" subcommand runs them,
and the acceptance gate runs the exact then the numeric ones as criteria 01-11.
"""

import math
from fractions import Fraction
from itertools import product

from .coeffs import combination, expand_G, expand_H, weight_check
from .cyclotomic import RootOfUnity, root_sum_twisted
from .exact import bernoulli_number, bernoulli_polynomial
from .numeric import desing2, double_zeta_direct, hurwitz_zeta, riemann_zeta
from .series import build_tilde_H
from .values import (
    desing_value_exact,
    desing_value_r2_closed,
    desing_value_table,
    double_twisted_closed,
    twisted_multiple_bernoulli_table,
)

__all__ = ["run_suite", "SUITES"]


# grouped coefficient polynomials of the combination for r = 1, 2, 3,
# frozen as {shift: {exponent tuple: integer}} (exponents of s_1..s_r)
FROZEN_GROUPS = {
    1: {
        (0,): {(0,): 1, (1,): -1},
    },
    2: {
        (-2, 2): {(0, 2): -1, (0, 1): -1},
        (-1, 1): {(0, 2): 1, (0, 1): 1, (1, 1): -1},
        (0, 0): {(0, 0): 1, (0, 1): -1, (1, 0): -1, (1, 1): 1},
    },
    3: {
        (-2, -1, 3): {(0, 0, 3): -1, (0, 0, 2): -3, (0, 0, 1): -2},
        (-2, 0, 2): {(0, 0, 2): 2, (0, 0, 1): 1, (0, 0, 3): 1, (0, 1, 2): -2, (0, 1, 1): -2},
        (-2, 1, 1): {(0, 1, 2): 2, (0, 2, 1): -1, (0, 1, 1): -1},
        (-2, 2, 0): {(0, 2, 0): -1, (0, 1, 0): -1, (0, 2, 1): 1, (0, 1, 1): 1},
        (-1, -2, 3): {(0, 0, 3): 1, (0, 0, 2): 3, (0, 0, 1): 2},
        (-1, -1, 2): {(0, 0, 2): -2, (0, 0, 1): -1, (0, 0, 3): -1, (0, 1, 2): 2,
                      (0, 1, 1): 2, (1, 0, 2): -1, (1, 0, 1): -1},
        (-1, 0, 1): {(0, 1, 2): -2, (0, 2, 1): 1, (0, 1, 1): 1, (1, 0, 2): 1, (1, 1, 1): -1},
        (-1, 1, 0): {(0, 2, 0): 1, (0, 1, 0): 1, (0, 2, 1): -1, (0, 1, 1): -1,
                     (1, 1, 0): -1, (1, 1, 1): 1},
        (0, -2, 2): {(0, 0, 2): -1, (0, 0, 1): -1, (1, 0, 2): 1, (1, 0, 1): 1},
        (0, -1, 1): {(0, 0, 2): 1, (0, 0, 1): 1, (0, 1, 1): -1, (1, 0, 2): -1,
                     (1, 0, 1): -1, (1, 1, 1): 1},
        (0, 0, 0): {(0, 0, 0): 1, (0, 0, 1): -1, (0, 1, 0): -1, (0, 1, 1): 1,
                    (1, 0, 0): -1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): -1},
    },
}


def check_frozen_tables():
    """Grouped combination tables for r = 1..3 match the frozen expansions."""
    bad = 0
    for r, expected in FROZEN_GROUPS.items():
        groups = combination(r).groups()
        got = {m: dict(p.terms) for m, p in groups.items()}
        if got != expected:
            bad += 1
    return float(bad), bad == 0


def check_two_constructions_agree():
    """Product-form and subset-sum coefficient tables coincide for r = 1..5,
    and every term satisfies the zero-weight condition."""
    bad = 0
    for r in range(1, 6):
        g = expand_G(r)
        if g != expand_H(r) or not weight_check(g):
            bad += 1
    return float(bad), bad == 0


def check_root_sum():
    """Summing the twisted Bernoulli number over all nontrivial c-th roots
    gives (1 - c^{n+1}) B_{n+1} / (n+1), for c = 2..6 and n <= 12."""
    worst = Fraction(0)
    for c in range(2, 7):
        for n in range(13):
            got = root_sum_twisted(n, c)
            want = (1 - Fraction(c) ** (n + 1)) * bernoulli_number(n + 1) / (n + 1)
            worst = max(worst, abs(got - want))
    return float(worst), worst == 0


def check_double_convolution():
    """Depth-2 twisted Bernoulli numbers: generating-function route equals
    the closed binomial convolution, over k, l <= 5, c in {2, 3, 4} and
    three weight pairs."""
    gammas_list = [
        (Fraction(1), Fraction(1)),
        (Fraction(1, 2), Fraction(3)),
        (Fraction(2), Fraction(1, 3)),
    ]
    bad = 0
    for c in (2, 3, 4):
        xi1 = RootOfUnity(c, 1)
        xi2 = RootOfUnity(c, c - 1)
        for gammas in gammas_list:
            table = twisted_multiple_bernoulli_table(5, (xi1, xi2), gammas)
            for (k, l), series_val in table.items():
                if series_val != double_twisted_closed(k, l, xi1, xi2, gammas):
                    bad += 1
    return float(bad), bad == 0


def check_root_pair_sum(gammas=(Fraction(1), Fraction(1)), nmax=4):
    """Summing the depth-r twisted Bernoulli number, r = len(gammas), over all
    nontrivial root r-tuples equals the c-parameterized Bernoulli product,
    taken over Q through the integer chain at c in {2, 3}, for indices up to
    nmax (r = 2 in the suite, r = 3 in the tests)."""
    r = len(gammas)
    bad = 0
    for c in (2, 3):
        roots = [RootOfUnity(c, a) for a in range(1, c)]
        tables = [
            twisted_multiple_bernoulli_table(nmax, xis, gammas)
            for xis in product(roots, repeat=r)
        ]
        tilde = build_tilde_H(gammas, (nmax,) * r, c)
        for e in product(range(nmax + 1), repeat=r):
            total = sum((t[e] for t in tables[1:]), tables[0][e])
            want = tilde.coefficient(e, math.prod(map(math.factorial, e)))
            if total.as_rational() != want:
                bad += 1
    return float(bad), bad == 0


# three weight samples per depth r = 1..3 for the desingularized-value routes
DESING_SAMPLES = {
    1: [(Fraction(1),), (Fraction(1, 2),), (Fraction(3),)],
    2: [(Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(3)),
        (Fraction(2), Fraction(1, 3))],
    3: [(Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(1, 2), Fraction(3), Fraction(1)),
        (Fraction(2), Fraction(1, 3), Fraction(1, 5))],
}


def check_desing_routes():
    """Desingularized values at non-positive integers: the nu-matrix
    route equals the limit-product table (the one the CLI prints) for
    r <= 3, all indices <= 4, at the three weight samples of DESING_SAMPLES."""
    bad = 0
    for r in (1, 2, 3):
        for gammas in DESING_SAMPLES[r]:
            for k, want in desing_value_table(4, gammas).items():
                if desing_value_exact(k, gammas) != want:
                    bad += 1
    return float(bad), bad == 0


def check_integer_special_values():
    """Depth-1 values at -k are (-1)^k B_{k+1} for k <= 12, and the depth-2
    value at (0, -2) with unit weights is 1/18."""
    bad = 0
    for k in range(13):
        want = Fraction((-1) ** k) * bernoulli_number(k + 1)
        if desing_value_exact((k,), (Fraction(1),)) != want:
            bad += 1
    if desing_value_exact((0, 2), (Fraction(1), Fraction(1))) != Fraction(1, 18):
        bad += 1
    return float(bad), bad == 0


def check_hurwitz_kernel():
    """Hurwitz kernel: zeta(2) against pi^2/6, and zeta(-n, a) against the
    Bernoulli polynomial closed form, n <= 8 over five offsets, to 1e-12."""
    worst = abs(riemann_zeta(2).value - math.pi**2 / 6)
    for n in range(9):
        for a in (1.0, 0.5, 1.5, 2.0, 3.5):
            want = -float(Fraction(bernoulli_polynomial(n + 1, Fraction(a)), n + 1))
            got = hurwitz_zeta(-n, a).value
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return worst, worst < 1e-12


def check_value_table():
    """Continued double-zeta combination against the closed-form table of
    mixed-sign sample points, to 1e-6."""
    z = lambda s: riemann_zeta(s).value.real
    targets = {
        (-1, 1): 1 / 8,
        (-1, 4): z(3) - z(4),
        (3, -3): 3 / 4 - z(3) / 15,
        (4, -3): 1 / 2 + z(2) / 2 - z(4) / 10,
        (1, 1): 1 / 2,
        (2, 1): -z(2) + 2 * z(3),
        (3, 1): 2 * z(3) - 5 / 4 * z(4),
    }
    worst = 0.0
    for (s1, s2), want in targets.items():
        got = desing2(s1, s2).value
        worst = max(worst, abs(got - want))
    return worst, worst < 1e-6


def check_cross_engine():
    """Numeric continuation at the non-positive integer grid against the
    exact convolution values, to 1e-6; every grid point sits on singular
    hyperplanes of the individual terms."""
    worst = 0.0
    for k in range(4):
        for l in range(4):
            got = desing2(-k, -l).value
            want = float(desing_value_r2_closed(k, l, 1, 1))
            worst = max(worst, abs(got - want))
    return worst, worst < 1e-6


def check_regular_point():
    """At the regular point (3, 4) the combination evaluated with brute-force
    convergent double sums matches the continued evaluator to 1e-8."""
    comb = combination(2)
    brute = comb.evaluate(
        (3.0, 4.0), lambda a: double_zeta_direct(a[0], a[1]).value
    )
    got = desing2(3, 4).value
    worst = abs(brute - got)
    return worst, worst < 1e-8


SUITES = {
    "exact": [
        ("exact-01-frozen-tables", check_frozen_tables),
        ("exact-02-two-constructions", check_two_constructions_agree),
        ("exact-03-root-sum", check_root_sum),
        ("exact-04-double-convolution", check_double_convolution),
        ("exact-05-root-pair-sum", check_root_pair_sum),
        ("exact-06-desing-routes", check_desing_routes),
        ("exact-07-integer-values", check_integer_special_values),
    ],
    "numeric": [
        ("numeric-01-hurwitz-kernel", check_hurwitz_kernel),
        ("numeric-02-value-table", check_value_table),
        ("numeric-03-cross-engine", check_cross_engine),
        ("numeric-04-regular-point", check_regular_point),
    ],
}


def run_suite(name):
    """Run one suite ("exact", "numeric") or "all"; returns a list of
    (check_id, worst_deviation, passed) in check-id order."""
    names = list(SUITES) if name == "all" else [name]
    checks = [check for n in names for check in SUITES[n]]
    return [(cid, *fn()) for cid, fn in sorted(checks)]
