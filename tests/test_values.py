"""Exact special values at non-positive integers."""

from fractions import Fraction

import pytest

from deszeta import series
from deszeta.cyclotomic import (RootOfUnity, frobenius_euler, negative_polylog, twisted_bernoulli,
                                 twisted_bernoulli_row)
from deszeta.values import (
    desing_value_exact,
    desing_value_oracle,
    desing_value_r2_closed,
    desing_value_table,
    double_twisted_closed,
    lerch_special_value,
    twisted_multiple_bernoulli,
    twisted_multiple_bernoulli_table,
)


XI = RootOfUnity(3, 1)


@pytest.mark.parametrize("route", [
    lambda: negative_polylog(-1, XI),
    lambda: frobenius_euler(-1, XI),
    lambda: frobenius_euler(-2, Fraction(-1)),
    lambda: twisted_bernoulli(-1, XI),
    lambda: (twisted_bernoulli_row(XI, 2), twisted_bernoulli_row(XI, -2)),  # a cached row too
    lambda: desing_value_r2_closed(-1, 2, 1, 1),
    lambda: desing_value_r2_closed(2, -1, 1, 1),
    lambda: double_twisted_closed(2, -1, XI, XI, (1, 1)),
    lambda: desing_value_exact((2, -1), (1, 1)),
    lambda: desing_value_oracle((-1, 2), (1, 1)),
    lambda: twisted_multiple_bernoulli((2, -1), (XI, XI), (1, 1)),
    lambda: lerch_special_value((-1,), (XI,), (1,)),
    lambda: desing_value_table(-1, (1, 1)),
    lambda: twisted_multiple_bernoulli_table(-1, (XI, XI), (1, 1)),
])
def test_negative_index_refused(route):
    with pytest.raises(ValueError, match="^index must be non-negative$"):
        route()


def test_single_twisted_matches_recurrence():
    xi = RootOfUnity(3, 1)
    for n in range(6):
        got = twisted_multiple_bernoulli((n,), (xi,), (Fraction(1),))
        assert got == twisted_bernoulli(n, xi)


@pytest.mark.parametrize("root1, root2", [
    ((3, 1), (3, 2)), ((7, 1), (7, 3)), ((12, 1), (12, 5)), ((30, 1), (30, 7)),
    ((4, 1), (6, 5)),
], ids=["c3", "c7", "c12", "c30", "c4-c6"])
def test_double_closed_matches_series(root1, root2):
    xi1 = RootOfUnity(*root1)
    xi2 = RootOfUnity(*root2)
    gammas = (Fraction(1, 2), Fraction(3))
    for k in range(5):
        for l in range(5):
            series = twisted_multiple_bernoulli((k, l), (xi1, xi2), gammas)
            closed = double_twisted_closed(k, l, xi1, xi2, gammas)
            assert series == closed


def test_lerch_value_depth_one():
    # zeta_1(-n; xi; 1) = -polylog of the inverted root for n >= 1
    xi = RootOfUnity(5, 2)
    for n in range(1, 6):
        got = lerch_special_value((n,), (xi,), (Fraction(1),))
        want = negative_polylog(n, xi.inverse()) * (-1) ** (1 + n)
        assert got == want


def test_length_mismatch_rejected():
    xi = RootOfUnity(3, 1)
    with pytest.raises(ValueError):
        twisted_multiple_bernoulli((1, 2), (xi,), (Fraction(1),))
    with pytest.raises(ValueError):
        desing_value_exact((1, 2), (Fraction(1),))


def test_desing_depth_two_frozen_values():
    assert desing_value_exact((0, 2), (Fraction(1), Fraction(1))) == Fraction(1, 18)
    assert desing_value_exact((0, 0), (Fraction(1), Fraction(1))) == Fraction(1, 4)
    assert desing_value_exact(
        (0, 0, 0), (Fraction(1), Fraction(1), Fraction(1))
    ) == Fraction(-1, 8)


def test_closed_r2_matches_enumeration():
    for g in ((1, 1), (Fraction(1, 2), 3)):
        for k in range(4):
            for l in range(4):
                a = desing_value_exact((k, l), (Fraction(g[0]), Fraction(g[1])))
                b = desing_value_r2_closed(k, l, g[0], g[1])
                assert a == b


def test_enumeration_matches_table_at_depth_four():
    gammas = (Fraction(1, 2), Fraction(3), Fraction(2, 3), Fraction(5, 4))
    table = desing_value_table(2, gammas)
    assert len(table) == 81
    for k, want in table.items():
        assert desing_value_exact(k, gammas) == want, k


def test_nu_matrix_route_uses_no_series_product(monkeypatch):
    # the nu-matrix route stays independent of the generating function: with
    # every series product refused it still gives the recorded values
    def refuse(*args, **kwargs):
        raise AssertionError("series product used")

    monkeypatch.setattr(series, "_triangular_product", refuse)
    monkeypatch.setattr(series.TruncatedSeries, "__mul__", refuse)
    gammas = (Fraction(1), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(1, 2))
    assert desing_value_exact((2, 1, 3, 0, 2), gammas) == Fraction(89317, 12247200)
    gammas = (Fraction(1, 2), Fraction(3), Fraction(1))
    assert desing_value_exact((1, 3, 2), gammas) == Fraction(-21037, 80640)


def test_weights_in_any_rational_form_give_one_value():
    k = (2, 1, 3)
    want = desing_value_exact(k, (Fraction(2), Fraction(3, 2), Fraction(-1, 3)))
    assert desing_value_exact(k, (2, "3/2", "-1/3")) == want
    assert desing_value_exact(k, ("2", Fraction(3, 2), Fraction("-1/3"))) == want
    assert desing_value_exact(k, (2, Fraction(3, 2), "-1/3")) == want


def test_oracle_route_agrees():
    for gammas in ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(1, 3))):
        for k in range(4):
            for l in range(4):
                assert desing_value_exact((k, l), gammas) == desing_value_oracle(
                    (k, l), gammas
                )


def test_zero_weight_rejected():
    with pytest.raises(ValueError):
        desing_value_exact((1,), (Fraction(0),))


@pytest.mark.parametrize(
    "route",
    [
        lambda g: desing_value_oracle((1, 1), g),
        lambda g: desing_value_table(1, g),
        lambda g: twisted_multiple_bernoulli((1, 1), [RootOfUnity(3, 1)] * 2, g),
        lambda g: twisted_multiple_bernoulli_table(1, [RootOfUnity(3, 1)] * 2, g),
    ],
    ids=["oracle", "table", "twisted", "twisted-table"],
)
def test_zero_weight_rejected_by_table_routes(route):
    with pytest.raises(ValueError, match="nonzero"):
        route((Fraction(0), Fraction(1)))


@pytest.mark.parametrize(
    "route",
    [
        lambda: desing_value_exact((), []),
        lambda: desing_value_oracle((), []),
        lambda: desing_value_table(2, []),
        lambda: twisted_multiple_bernoulli((), [], []),
        lambda: twisted_multiple_bernoulli_table(2, [], []),
        lambda: lerch_special_value((), [], []),
    ],
    ids=["exact", "oracle", "table", "twisted", "twisted-table", "lerch"],
)
def test_depth_zero_refused(route):
    # an empty index has no product to read; every route refuses it alike
    with pytest.raises(ValueError, match="^r must be positive$"):
        route()


@pytest.mark.parametrize(
    "route",
    [
        lambda g: desing_value_r2_closed(1, 1, *g),
        lambda g: double_twisted_closed(1, 1, RootOfUnity(3, 1), RootOfUnity(3, 1), g),
    ],
    ids=["desing-closed", "twisted-closed"],
)
def test_zero_weight_rejected_by_closed_forms(route):
    with pytest.raises(ValueError, match="nonzero"):
        route((Fraction(0), Fraction(1)))


def test_oracle_length_mismatch_rejected():
    with pytest.raises(ValueError):
        desing_value_oracle((1, 2), (Fraction(1),))
