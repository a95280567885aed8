"""Truncated series engine and the generating-function products."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from deszeta.series import (
    PolyInC,
    TruncatedSeries,
    build_E_product,
    build_H_r,
    build_tilde_H,
    collapse_tilde,
    compose_linear,
)
from deszeta.cyclotomic import RootOfUnity, TrivialRootError


class TestPolyInC:
    def test_basic_arithmetic(self):
        p = PolyInC([1, 2])  # 1 + 2c
        q = PolyInC([0, 0, 1])  # c^2
        assert (p + q).coeffs == (1, 2, 1)
        assert (p * q).coeffs == (0, 0, 1, 2)
        assert (p - p).coeffs == ()
        assert p(3) == 7

    def test_one_minus_c_power(self):
        p = PolyInC.one_minus_c_power(3)
        assert p(1) == 0
        assert p(2) == 1 - 8

    def test_exact_division(self):
        p = PolyInC.one_minus_c_power(4)
        q = p.exact_div_c_minus_1()
        assert q * PolyInC([-1, 1]) == p
        with pytest.raises(ArithmeticError):
            PolyInC([1, 1]).exact_div_c_minus_1()


def small_series(data, nvars=2, max_degree=3):
    coeffs = {}
    exps = [(i, j) for i in range(max_degree + 1) for j in range(max_degree + 1 - i)]
    for e in exps:
        q = data.draw(st.fractions(max_denominator=4))
        if q:
            coeffs[e] = q
    return TruncatedSeries(nvars, max_degree, coeffs)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_mul_commutative(data):
    a = small_series(data)
    b = small_series(data)
    assert a * b == b * a


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_mul_associative(data):
    a = small_series(data)
    b = small_series(data)
    c = small_series(data)
    assert (a * b) * c == a * (b * c)


def test_truncation_drops_high_degree():
    s = TruncatedSeries(2, 2, {(1, 1): Fraction(1)})
    sq = s * s
    assert sq.coefficient((2, 2)) == 0
    assert len(sq.coeffs) == 0


def test_compose_linear_univariate():
    # substitute y = 2 t1 into 1 + y + y^2
    f = [Fraction(1), Fraction(1), Fraction(1)]
    out = compose_linear(f, [Fraction(2)], 2)
    assert out.coefficient((0,)) == 1
    assert out.coefficient((1,)) == 2
    assert out.coefficient((2,)) == 4


def test_compose_linear_two_vars():
    # y = t1 + t2 into y^2 gives the multinomial middle coefficient 2
    f = [Fraction(0), Fraction(0), Fraction(1)]
    out = compose_linear(f, [Fraction(1), Fraction(1)], 2)
    assert out.coefficient((1, 1)) == 2
    assert out.coefficient((2, 0)) == 1


def test_build_H_r_rejects_trivial_roots():
    with pytest.raises(TrivialRootError):
        build_H_r([RootOfUnity(3, 0)], [Fraction(1)], 2)


def test_collapse_matches_E_product():
    # the exact c -> 1 limit of the c-parameterized product equals the
    # product built directly from the limit factors
    for gammas in ([Fraction(1)], [Fraction(1), Fraction(1, 2)],
                   [Fraction(2), Fraction(1), Fraction(1, 3)]):
        r = len(gammas)
        tilde = build_tilde_H(gammas, 5)
        limit = collapse_tilde(tilde, r)
        direct = build_E_product(gammas, 5)
        assert limit == direct


def test_root_sum_of_product_is_c_specialization():
    # summing the twisted product over all nontrivial root pairs and
    # specializing the symbolic parameter at c must agree
    c = 3
    gammas = [Fraction(1), Fraction(2)]
    tilde = build_tilde_H(gammas, 4)
    total = None
    for a1 in range(1, c):
        for a2 in range(1, c):
            h = build_H_r([RootOfUnity(c, a1), RootOfUnity(c, a2)], gammas, 4)
            total = h if total is None else total + h
    for e, coeff in total.coeffs.items():
        want = tilde.coefficient(e)
        want_val = want(c) if isinstance(want, PolyInC) else Fraction(want)
        assert coeff.as_rational() == want_val


def test_box_truncation_drops_outside_terms():
    s = TruncatedSeries(2, 4, {(1, 0): Fraction(1), (0, 1): Fraction(1)}, box=(1, 2))
    sq = s * s
    assert sq.coeffs == {(1, 1): 2, (0, 2): 1}
    assert sq.box == (1, 2)


def test_box_mismatch_rejected():
    a = TruncatedSeries(2, 3, {(1, 0): Fraction(1)}, box=(2, 2))
    b = TruncatedSeries(2, 3, {(1, 0): Fraction(1)})
    assert a != b
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        TruncatedSeries(2, 3, box=(1,))


def _box_indices(box):
    return product(*(range(b + 1) for b in box))


@pytest.mark.parametrize("box, gammas", [
    ((5,), [Fraction(3)]),
    ((3, 2), [Fraction(1, 2), Fraction(3)]),
    ((0, 4), [Fraction(2), Fraction(1, 3)]),
    ((2, 1, 3), [Fraction(1), Fraction(2, 3), Fraction(3, 2)]),
    ((2, 2, 2, 2), [Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(2)]),
])
def test_box_E_product_matches_total_degree(box, gammas):
    degree = sum(box)
    boxed = build_E_product(gammas, degree, box=box)
    full = build_E_product(gammas, degree)
    assert boxed.box == tuple(box)
    for e in _box_indices(box):
        assert boxed.coefficient(e) == full.coefficient(e)
    assert set(boxed.coeffs) <= set(_box_indices(box))


@pytest.mark.parametrize("box, roots, gammas", [
    ((4,), [(5, 2)], [Fraction(2, 3)]),
    ((3, 3), [(5, 1), (5, 3)], [Fraction(2, 3), Fraction(3, 2)]),
    ((1, 3), [(2, 1), (4, 3)], [Fraction(1), Fraction(1, 2)]),
    ((2, 1, 2), [(3, 1), (3, 2), (6, 1)], [Fraction(1, 2), Fraction(1), Fraction(3)]),
])
def test_box_H_r_matches_total_degree(box, roots, gammas):
    xis = [RootOfUnity(c, a) for c, a in roots]
    degree = sum(box)
    boxed = build_H_r(xis, gammas, degree, box=box)
    full = build_H_r(xis, gammas, degree)
    for e in _box_indices(box):
        assert boxed.coefficient(e) == full.coefficient(e)
    assert set(boxed.coeffs) <= set(_box_indices(box))
