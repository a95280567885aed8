"""Bernoulli numbers, polynomials, and combinatorial helpers."""

import math
import sys
import threading
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from deszeta.exact import (
    _BernoulliCache,
    bernoulli_number,
    bernoulli_polynomial,
    binomial,
    format_rational,
    linear_form_product,
    parse_rational,
    pochhammer,
)


def akiyama_tanigawa(n_max):
    """Independent Bernoulli oracle (yields the B_1 = +1/2 convention)."""
    out = []
    row = []
    for n in range(n_max + 1):
        row.append(Fraction(1, n + 1))
        for j in range(n, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def test_first_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_against_akiyama_tanigawa():
    oracle = akiyama_tanigawa(20)
    for n in range(21):
        if n == 1:
            # the oracle uses the other sign convention at n = 1
            assert bernoulli_number(1) == -oracle[1]
        else:
            assert bernoulli_number(n) == oracle[n]


def test_defining_recurrence():
    for n in range(1, 31):
        total = sum(binomial(n + 1, k) * bernoulli_number(k) for k in range(n + 1))
        assert total == 0


def defining_recurrence(n_max):
    """B_0..B_n_max solved one at a time from sum_{k=0}^{n} C(n+1, k) B_k = 0."""
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        out.append(-sum(math.comb(n + 1, k) * b for k, b in enumerate(out)) / (n + 1))
    return out


def test_fresh_cache_grows_in_uneven_steps():
    # each extension resumes the tangent-number triangle from its last
    # column; growing the table by small, large and backward steps must give
    # the recurrence's values
    oracle = defining_recurrence(130)
    cache = _BernoulliCache()
    assert cache.get(1) == Fraction(-1, 2)
    for n in (3, 2, 41, 17, 130):
        assert cache.get(n) == oracle[n]
        assert [cache.get(k) for k in range(n + 1)] == oracle[:n + 1]
    assert cache.get(1) == Fraction(-1, 2)


def _fill_seconds(*indices):
    """Seconds a fresh cache takes to read the given indices in turn."""
    cache = _BernoulliCache()
    start = time.perf_counter()
    for n in indices:
        cache.get(n)
    return time.perf_counter() - start


def test_one_index_past_the_table_computes_only_the_new_entries():
    # the second read adds one column to the triangle: reading 600 and then
    # 602 costs about as much as reading 602 alone
    single = min(_fill_seconds(602) for _ in range(3))
    pair = min(_fill_seconds(600, 602) for _ in range(3))
    assert pair <= 2 * single


def test_one_at_a_time_fill_is_cheap():
    assert min(_fill_seconds(*range(41)) for _ in range(5)) < 1e-3


def test_threads_extending_one_cache_read_the_same_table():
    # more threads than cores, each growing the table to its own length
    # first; an extension that lost another's table would show here
    oracle = defining_recurrence(120)
    cache = _BernoulliCache()
    start = threading.Barrier(4)
    seen = {}

    def read(first):
        start.wait()
        cache.get(first)
        seen[first] = [cache.get(k) for k in range(121)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(n,)) for n in (120, 7, 64, 33)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(seen) == [7, 33, 64, 120]
    assert all(values == oracle for values in seen.values())


def test_odd_vanishing():
    for k in range(1, 16):
        assert bernoulli_number(2 * k + 1) == 0


def test_polynomial_difference():
    points = [Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(2), Fraction(7, 5)]
    for n in range(1, 11):
        for x in points:
            diff = bernoulli_polynomial(n, x + 1) - bernoulli_polynomial(n, x)
            assert diff == n * x ** (n - 1)


def test_polynomial_at_edges():
    # B_n(0) = B_n and B_n(1) = (-1)^n B_n
    for n in range(12):
        assert bernoulli_polynomial(n, Fraction(0)) == bernoulli_number(n)
        assert bernoulli_polynomial(n, Fraction(1)) == (-1) ** n * bernoulli_number(n)


def test_binomial_out_of_range():
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    assert binomial(5, 2) == 10


def test_linear_form_product():
    # (t1 + t2 + t3)^4 holds t1^2 t2 t3 with the multinomial 4!/(2! 1! 1!)
    assert linear_form_product(3, [0] * 4)[(2, 1, 1)] == 12
    assert linear_form_product(3, [0] * 3)[(3, 0, 0)] == 1
    assert linear_form_product(2, []) == {(0, 0): 1}
    # a proper suffix: (t1 + t2) t2
    assert linear_form_product(2, [0, 1]) == {(1, 1): 1, (0, 2): 1}
    # a repeated start: (t2 + t3)^2
    assert linear_form_product(3, [1, 1]) == {(0, 2, 0): 1, (0, 1, 1): 2, (0, 0, 2): 1}


@given(
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(0, 10),
)
def test_pochhammer_recurrence(re, im, k):
    s = complex(re, im)
    assert pochhammer(s, k + 1) == pochhammer(s, k) * (s + k)


@given(st.fractions(max_denominator=10**6))
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_rational_format():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    with pytest.raises(ValueError):
        parse_rational("not a number")


@given(st.integers(1, 4).flatmap(
    lambda r: st.tuples(st.just(r), st.lists(st.integers(0, r - 1), max_size=6))))
def test_linear_form_product_matches_enumeration(case):
    # every choice of one variable t_k (k >= j) from each factor, counted
    r, starts = case
    want = {}
    for choice in product(*(range(j, r) for j in starts)):
        e = tuple(choice.count(k) for k in range(r))
        want[e] = want.get(e, 0) + 1
    assert linear_form_product(r, starts) == want
