"""Acceptance gate: the eleven primary criteria, one pass/fail line each.

Each test prints "criterion NN: PASS" (or FAIL) so the gate can be read off
the output; runtime guards are asserted where the criterion carries one.
"""

import sys
import time
from fractions import Fraction
from itertools import product

from deszeta.coeffs import combination, expand_G, expand_H, weight_check
from deszeta.cyclotomic import RootOfUnity, root_sum_twisted
from deszeta.exact import SPoly, bernoulli_number, bernoulli_polynomial
from deszeta.numeric import desing2, double_zeta_direct, hurwitz_zeta, riemann_zeta
from deszeta.series import build_H_r, build_tilde_H
from deszeta.values import (
    desing_value_exact,
    desing_value_oracle,
    desing_value_r2_closed,
    double_twisted_closed,
    twisted_multiple_bernoulli,
)
from deszeta.verify import FROZEN_GROUPS

import math


def report(n, ok):
    print("criterion %02d: %s" % (n, "PASS" if ok else "FAIL"), file=sys.stderr)
    assert ok, "criterion %02d failed" % n


def test_criterion_01_printed_tables():
    t0 = time.time()
    ok = True
    for r, expected in FROZEN_GROUPS.items():
        groups = combination(r).groups()
        ok = ok and {m: dict(p.terms) for m, p in groups.items()} == expected
    elapsed = time.time() - t0
    report(1, ok and elapsed < 1.0)


def test_criterion_02_two_constructions():
    t0 = time.time()
    ok = all(expand_G(r) == expand_H(r) and weight_check(expand_G(r))
             for r in range(1, 6))
    elapsed = time.time() - t0
    report(2, ok and elapsed < 10.0)


def test_criterion_03_root_sum():
    t0 = time.time()
    ok = True
    for c in range(2, 7):
        for n in range(13):
            want = (1 - Fraction(c) ** (n + 1)) * bernoulli_number(n + 1) / (n + 1)
            ok = ok and root_sum_twisted(n, c) == want
    elapsed = time.time() - t0
    report(3, ok and elapsed < 5.0)


def test_criterion_04_double_convolution():
    gammas_list = [
        (Fraction(1), Fraction(1)),
        (Fraction(1, 2), Fraction(3)),
        (Fraction(2), Fraction(1, 3)),
    ]
    ok = True
    for c in (2, 3, 4):
        xi1 = RootOfUnity(c, 1)
        xi2 = RootOfUnity(c, c - 1)
        for gammas in gammas_list:
            series = build_H_r((xi1, xi2), gammas, (5, 5))
            for k in range(6):
                for l in range(6):
                    scale = Fraction(math.factorial(k) * math.factorial(l))
                    got = series.coefficient((k, l)) * scale
                    ok = ok and got == double_twisted_closed(k, l, xi1, xi2, gammas)
    report(4, ok)


def test_criterion_05_root_pair_sums():
    gammas = (Fraction(1), Fraction(1))
    tilde = build_tilde_H(gammas, (4, 4))
    ok = True
    for c in (2, 3):
        roots = [RootOfUnity(c, a) for a in range(1, c)]
        for k in range(5):
            for l in range(5):
                total = None
                for xi1 in roots:
                    for xi2 in roots:
                        term = twisted_multiple_bernoulli((k, l), (xi1, xi2), gammas)
                        total = term if total is None else total + term
                scale = Fraction(math.factorial(k) * math.factorial(l))
                want = (tilde.coefficient((k, l)) or SPoly(1)).evaluate((c,))
                got = total.as_rational() if hasattr(total, "as_rational") else total
                ok = ok and got == want * scale
    report(5, ok)


def test_criterion_06_enumeration_vs_oracle():
    samples = {
        1: [(Fraction(1),), (Fraction(1, 2),), (Fraction(3),)],
        2: [(Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(3)),
            (Fraction(2), Fraction(1, 3))],
        3: [(Fraction(1), Fraction(1), Fraction(1)),
            (Fraction(1, 2), Fraction(3), Fraction(1)),
            (Fraction(2), Fraction(1, 3), Fraction(1, 5))],
    }
    ok = True
    for r in (1, 2, 3):
        for gammas in samples[r]:
            for k in product(range(5), repeat=r):
                ok = ok and desing_value_exact(k, gammas) == desing_value_oracle(
                    k, gammas
                )
    report(6, ok)


def test_criterion_07_integer_values():
    ok = True
    for k in range(13):
        want = Fraction((-1) ** k) * bernoulli_number(k + 1)
        ok = ok and desing_value_exact((k,), (Fraction(1),)) == want
    ok = ok and desing_value_exact(
        (0, 2), (Fraction(1), Fraction(1))
    ) == Fraction(1, 18)
    report(7, ok)


def test_criterion_08_hurwitz_kernel():
    ok = abs(riemann_zeta(2).value - math.pi**2 / 6) < 1e-12
    for n in range(9):
        for a in (1.0, 0.5, 1.5, 2.0, 3.5):
            want = -float(Fraction(bernoulli_polynomial(n + 1, Fraction(a)), n + 1))
            got = hurwitz_zeta(-n, a).value
            ok = ok and abs(got - want) <= 1e-12 * max(1.0, abs(want))
    report(8, ok)


def test_criterion_09_value_table():
    t0 = time.time()
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
    ok = True
    for (s1, s2), want in targets.items():
        ok = ok and abs(desing2(s1, s2).value - want) < 1e-6
    elapsed = time.time() - t0
    report(9, ok and elapsed < 60.0)


def test_criterion_10_cross_engine():
    ok = True
    for k in range(4):
        for l in range(4):
            want = float(desing_value_r2_closed(k, l, 1, 1))
            ok = ok and abs(desing2(-k, -l).value - want) < 1e-6
    report(10, ok)


def test_criterion_11_regular_point():
    comb = combination(2)
    brute = comb.evaluate(
        (3.0, 4.0), lambda a: double_zeta_direct(a[0], a[1]).value
    )
    got = desing2(3, 4).value
    report(11, abs(brute - got) < 1e-8)
