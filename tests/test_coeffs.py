"""Coefficient tables of the shifted-zeta combination."""

import json
from fractions import Fraction
from itertools import product

import pytest

from deszeta.coeffs import (
    CoeffTable,
    SPoly,
    combination,
    expand_G,
    expand_H,
    weight_check,
)


def test_depth_one_table():
    t = expand_G(1)
    assert len(t) == 2
    assert t.terms == [(1, (0,), (0,)), (-1, (1,), (0,))]


def test_depth_two_monomial_count():
    # seven monomials before grouping (constant term included)
    assert len(expand_G(2)) == 7


def test_depth_two_grouped_polynomials():
    s1 = SPoly.variable(2, 0)
    s2 = SPoly.variable(2, 1)
    one = SPoly.constant(2, 1)
    groups = combination(2).groups()
    assert groups[(0, 0)] == (s1 - one) * (s2 - one)
    assert groups[(-1, 1)] == s2 * (s2 + one - s1)
    assert groups[(-2, 2)] == SPoly.constant(2, -1) * s2 * (s2 + one)


def test_depth_three_group_count():
    assert len(combination(3).groups()) == 11


def test_weight_condition():
    for r in range(1, 7):
        assert weight_check(expand_G(r))


def test_json_round_trip():
    for r in (1, 2, 3):
        t = expand_G(r)
        assert CoeffTable.from_json(t.to_json()) == t


@pytest.mark.parametrize("r", range(1, 8))
def test_json_text_is_the_dumped_table(r):
    t = expand_G(r)
    assert t.to_json_text() == json.dumps(t.to_json())
    assert CoeffTable.from_json(t.to_json()) == t


def test_invalid_depth():
    with pytest.raises(ValueError):
        expand_G(0)


def test_spoly_evaluate():
    s1 = SPoly.variable(2, 0)
    s2 = SPoly.variable(2, 1)
    p = (s1 - SPoly.constant(2, 1)) * (s2 - SPoly.constant(2, 1))
    assert p.evaluate((3, 4)) == 6
    assert p.evaluate((Fraction(1, 2), 2)) == Fraction(-1, 2)


@pytest.mark.parametrize("poly, point", [
    (SPoly(1, {(-1,): 1}), (2,)),
    (SPoly(2, {(1, -2): 3}), (2, 5)),
])
def test_spoly_evaluate_refuses_negative_exponents(poly, point):
    # a Laurent monomial has no value read as a polynomial; x^-1 is not x^0
    with pytest.raises(ValueError, match="negative exponent"):
        poly.evaluate(point)


@pytest.mark.parametrize("point", [(5,), (5, 7, 9)])
def test_spoly_evaluate_refuses_wrong_arity(point):
    with pytest.raises(ValueError, match="point needs 2 coordinates"):
        SPoly.variable(2, 1).evaluate(point)


@pytest.mark.parametrize("r, s", [(2, (3.0,)), (1, (3.0, 4.0))])
def test_combination_refuses_wrong_arity(r, s):
    with pytest.raises(ValueError, match="point needs %d coordinates" % r):
        combination(r).evaluate(s, lambda args: 1.0)


def test_pochhammer_product():
    p = SPoly.pochhammer_product(2, (2, 0))
    # (s1)_2 = s1 (s1 + 1)
    assert p.evaluate((3, 99)) == 12


def test_combination_evaluate_calls_zeta():
    calls = []

    def fake_zeta(args):
        calls.append(args)
        return 1.0

    total = combination(1).evaluate((5.0,), fake_zeta)
    assert calls == [(5.0,)]
    assert total == complex(1 - 5.0)


def test_repr_readable():
    groups = combination(2).groups()
    assert repr(groups[(-2, 2)]) == "-s_2^2 - s_2"
    assert repr(groups[(0, 0)]) == "s_1 s_2 - s_1 - s_2 + 1"


def test_terms_at_integer_point():
    point = (2, -1, 3)
    for r in (1, 2, 3):
        n = point[:r]
        comb = combination(r)
        got = list(comb.terms(n))
        groups = comb.groups()
        assert len(got) == len(groups)
        for (c, shifted), (m, poly) in zip(got, groups.items()):
            assert c == poly.evaluate(n)
            assert shifted == tuple(nj + mj for nj, mj in zip(n, m))


@pytest.mark.parametrize("r, width", [(1, 30), (2, 30), (3, 6)])
def test_taylor_table_matches_spoly_expansion(r, width):
    # the integer coefficients that terms() reads at each integer point n,
    # and their order, are those of re-expanding each group's SPoly about n
    comb = combination(r)
    groups = comb.groups()
    for n in product(range(-width, width + 1), repeat=r):
        about_n = [SPoly.variable(r, j) + nj for j, nj in enumerate(n)]
        for (m, coefficients), (m_poly, poly) in zip(comb._about(n), groups.items()):
            assert m == m_poly
            want = poly.evaluate(about_n).terms
            assert list(coefficients.items()) == list(want.items()), (n, m)


def test_group_monomial_order():
    # desing2 sums each group's monomials in this order in floating point
    groups = combination(2).groups()
    assert list(groups) == [(-2, 2), (-1, 1), (0, 0)]
    assert list(groups[(-2, 2)].terms.items()) == [((0, 2), -1), ((0, 1), -1)]
    assert list(groups[(-1, 1)].terms.items()) == [((0, 2), 1), ((0, 1), 1), ((1, 1), -1)]
    assert list(groups[(0, 0)].terms.items()) == [
        ((0, 0), 1), ((0, 1), -1), ((1, 0), -1), ((1, 1), 1)]
    assert list(combination(1).groups()[(0,)].terms.items()) == [((0,), 1), ((1,), -1)]


def test_groups_returns_copy():
    before = combination(2).groups()
    changed = combination(2).groups()
    changed[(0, 0)] = SPoly.constant(2, 7)
    del changed[(-1, 1)]
    assert combination(2).groups() == before


def test_two_constructions_agree_depth_six():
    assert expand_H(6) == expand_G(6)


def test_two_constructions_agree_depth_seven():
    # exponents reach +-7, the largest digit of the packed monomials of r = 7
    t = expand_G(7)
    assert max(max(map(abs, l + m)) for _, l, m in t.terms) == 7
    assert expand_H(7) == t
