"""Cyclotomic arithmetic and twisted Bernoulli numbers."""

import math
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deszeta import cyclotomic
from deszeta.cyclotomic import (
    CycloElement,
    OrderMismatchError,
    RootOfUnity,
    TrivialRootError,
    cyclotomic_polynomial,
    frobenius_euler,
    negative_polylog,
    twisted_bernoulli,
    twisted_bernoulli_row,
)


def phi(c):
    out = 0
    for k in range(1, c + 1):
        a, b = k, c
        while b:
            a, b = b, a % b
        out += a == 1
    return out


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [Fraction(-1), Fraction(1)]
    assert cyclotomic_polynomial(2) == [Fraction(1), Fraction(1)]
    assert cyclotomic_polynomial(4) == [Fraction(1), Fraction(0), Fraction(1)]
    assert cyclotomic_polynomial(6) == [Fraction(1), Fraction(-1), Fraction(1)]
    for c in range(1, 30):
        assert len(cyclotomic_polynomial(c)) == phi(c) + 1


def test_cyclotomic_polynomial_matches_dense_division():
    # the Moebius product against x^c - 1 divided by every dense Phi_d, d | c
    dense = {}
    for c in range(1, 401):
        num = [-1] + [0] * (c - 1) + [1]
        for d in range(1, c):
            if c % d == 0:
                phi_d, deg = dense[d], len(dense[d]) - 1
                for i in range(len(num) - 1, deg - 1, -1):
                    top = num[i]
                    for j in range(deg):  # x^deg = -(the lower terms)
                        num[i - deg + j] -= top * phi_d[j]
                assert not any(num[:deg])
                num = num[deg:]
        dense[c] = num
        assert cyclotomic_polynomial(c) == num, c


def test_root_of_unity_validation():
    assert not RootOfUnity(3, 0).nontrivial
    assert not RootOfUnity(3, 6).nontrivial
    with pytest.raises(ValueError):
        RootOfUnity(1, 0)
    assert RootOfUnity(5, 7).a == 2
    with pytest.raises(TrivialRootError):
        twisted_bernoulli(0, RootOfUnity(3, 0))


def test_root_of_unity_is_an_immutable_value():
    xi = RootOfUnity(5, 7)
    assert repr(xi) == "RootOfUnity(c=5, a=2)"
    assert xi == RootOfUnity(c=5, a=-3)
    assert xi != RootOfUnity(5, 3) and xi != RootOfUnity(7, 2) and xi != (5, 2)
    assert hash(xi) == hash((5, 2))
    assert len({xi, RootOfUnity(5, 12), RootOfUnity(5, 3)}) == 2
    with pytest.raises(ValueError, match="^order must be at least 2$"):
        RootOfUnity(1, 0)
    with pytest.raises(AttributeError):
        xi.a = 3
    with pytest.raises(AttributeError):
        del xi.c
    assert (xi.c, xi.a) == (5, 2)
    assert pickle.loads(pickle.dumps(xi)) == xi


def test_root_inverse():
    xi = RootOfUnity(7, 3)
    assert xi.inverse().a == 4
    z = xi.embed() * xi.inverse().embed()
    assert z.is_rational and z.as_rational() == 1


def test_embed_requires_compatible_order():
    xi = RootOfUnity(4, 1)
    with pytest.raises(OrderMismatchError):
        xi.embed(6)
    z = xi.embed(8)
    assert z.c == 8 and (z * z * z * z).as_rational() == 1


@given(st.integers(2, 10), st.data())
@settings(max_examples=40, deadline=None)
def test_element_inverse(c, data):
    deg = phi(c)
    coeffs = data.draw(
        st.lists(st.fractions(max_denominator=6), min_size=deg, max_size=deg)
    )
    el = CycloElement(c, coeffs)
    if not el:
        return
    prod = el * el.inverse()
    assert prod.is_rational and prod.as_rational() == 1


def fraction_route(c, poly):
    """Rational coefficients reduced by Fraction division with remainder by
    the monic Phi_c, padded to phi(c): the reference for the integer
    representation."""
    modulus = cyclotomic_polynomial(c)
    deg = len(modulus) - 1
    poly = [Fraction(x) for x in poly]
    for i in range(len(poly) - 1, deg - 1, -1):
        top = poly.pop()
        for j, a in enumerate(modulus[:-1]):
            poly[i - deg + j] -= top * a
    return tuple(poly + [Fraction(0)] * (deg - len(poly)))


def fraction_product(x, y):
    prod = [Fraction(0)] * (len(x) + len(y))
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    return prod


def assert_canonical(el):
    assert el.den > 0
    assert math.gcd(el.den, *el.num) == 1
    assert len(el.num) == phi(el.c)
    assert el.coeffs == tuple(Fraction(a, el.den) for a in el.num)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


@st.composite
def field_vectors(draw):
    """An order c in 2..30 and two rational vectors, possibly longer than
    phi(c) so that construction reduces them."""
    c = draw(st.integers(2, 30))
    vector = st.lists(rationals, max_size=phi(c) + 3)
    return c, draw(vector), draw(vector)


@given(field_vectors(), rationals.filter(bool))
@settings(max_examples=80, deadline=None)
def test_element_canonical_form(vectors, q):
    c, u, v = vectors
    x, y = CycloElement(c, u), CycloElement(c, v)
    assert x.coeffs == fraction_route(c, u)
    equal = [CycloElement(c, x.coeffs), (x + y) - y, x * q / q, -(-x), x + 0]
    for z in [x, y] + equal:
        assert_canonical(z)
    for z in equal:
        assert (z.num, z.den) == (x.num, x.den)
        assert z == x and hash(z) == hash(x)
    assert (x == y) == (x.coeffs == y.coeffs)


@given(field_vectors(), rationals.filter(bool))
@settings(max_examples=80, deadline=None)
def test_element_arithmetic_matches_fraction_route(vectors, q):
    c, u, v = vectors
    x, y = CycloElement(c, u), CycloElement(c, v)
    results = [
        (x * y, fraction_route(c, fraction_product(x.coeffs, y.coeffs))),
        (x + y, tuple(a + b for a, b in zip(x.coeffs, y.coeffs))),
        (x - y, tuple(a - b for a, b in zip(x.coeffs, y.coeffs))),
        (x / q, tuple(a / q for a in x.coeffs)),
        (x * q, tuple(a * q for a in x.coeffs)),
    ]
    for got, want in results:
        assert_canonical(got)
        assert got.coeffs == want
    if x:
        inv = x.inverse()
        assert_canonical(inv)
        one = fraction_route(c, [1])
        assert fraction_route(c, fraction_product(inv.coeffs, x.coeffs)) == one


@pytest.mark.parametrize("c", [97, 420])
def test_dense_element_inverse(c):
    # the Galois norm inverts a dense element of a degree-96 field quickly
    rng = random.Random(c)
    x = CycloElement(c, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                         for _ in range(phi(c))])
    assert x * x.inverse() == 1


def test_closed_form_matches_generic_inverse():
    # 1/(1 - xi) by the closed form, for every root of order c <= 30,
    # primitive or not, in its own field and embedded in orders 2c and 3c
    for c in range(2, 31):
        for a in range(1, c):
            xi = RootOfUnity(c, a)
            for order in (c, 2 * c, 3 * c):
                want = (1 - xi.embed(order)).inverse()
                assert cyclotomic._inverse_one_minus(xi, order) == want


def test_element_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CycloElement(5, [1, 2]) / 0
    with pytest.raises(ZeroDivisionError):
        CycloElement(5, [0]).inverse()


@pytest.mark.parametrize("c", [5, 12, 30])
def test_element_division_and_negative_powers(c):
    rng = random.Random(c)
    x, y = (CycloElement(c, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                             for _ in range(phi(c))]) for _ in range(2))
    assert x and y
    q = Fraction(-7, 3)
    assert x / y == x * y.inverse()
    assert q / x == x.inverse() * q
    for k in (1, 2, 5):
        assert x ** -k * x ** k == 1
    zero = CycloElement.from_rational(c, 0)
    with pytest.raises(ZeroDivisionError):
        x / zero
    with pytest.raises(ZeroDivisionError):
        q / zero


def test_element_json_round_trip():
    el = CycloElement(5, [Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(7, 4)])
    assert CycloElement.from_json(el.to_json()) == el


def closed_form(n, xi):
    """Rational closed forms of the first twisted Bernoulli numbers."""
    z = xi.embed()
    one = CycloElement.from_rational(xi.c, 1)
    d = (one - z).inverse()
    if n == 0:
        return d
    if n == 1:
        return z * d * d
    if n == 2:
        return z * (z + 1) * d**3
    if n == 3:
        return z * (z * z + 4 * z + 1) * d**4
    if n == 4:
        return z * (z**3 + 11 * z * z + 11 * z + 1) * d**5
    raise ValueError(n)


@pytest.mark.parametrize("c", [2, 3, 4, 5, 6])
def test_twisted_bernoulli_closed_forms(c):
    for a in range(1, c):
        xi = RootOfUnity(c, a)
        for n in range(5):
            assert twisted_bernoulli(n, xi) == closed_form(n, xi)


@pytest.mark.parametrize("c", [2, 3, 5])
def test_polylog_oracle(c):
    # for n >= 1 the n-th twisted Bernoulli number is the negative polylog
    for a in range(1, c):
        xi = RootOfUnity(c, a)
        for n in range(1, 7):
            assert twisted_bernoulli(n, xi) == negative_polylog(n, xi)


def test_frobenius_euler_relation():
    # B_n(xi) = H_n(xi^{-1}) / (1 - xi)
    for c in (3, 4, 5):
        for a in range(1, c):
            xi = RootOfUnity(c, a)
            z = xi.embed()
            d = (1 - z).inverse()
            for n in range(6):
                h = frobenius_euler(n, xi.inverse())
                assert twisted_bernoulli(n, xi) == h * d


def test_frobenius_euler_rational_argument():
    # (1 - lam)/(e^t - lam) at lam = -1 gives the Euler numbers' relatives
    assert frobenius_euler(0, Fraction(-1)) == 1
    assert frobenius_euler(1, Fraction(-1)) == Fraction(-1, 2)
    assert frobenius_euler(2, Fraction(-1)) == 0
    assert frobenius_euler(3, Fraction(-1)) == Fraction(1, 4)


@pytest.mark.parametrize("n", [0, 2])
def test_twisted_bernoulli_refuses_incompatible_order(n):
    # an order-3 root has no place in Q(zeta_4): refused at every n, and
    # nothing is cached for the pair
    xi = RootOfUnity(3, 1)
    with pytest.raises(OrderMismatchError, match="cannot embed order 3 root in Q\\(zeta_4\\)"):
        twisted_bernoulli(n, xi, order=4)
    assert (3, 1, 4) not in cyclotomic._TB_CACHE


def test_twisted_bernoulli_cache_hit_skips_inverse(monkeypatch):
    xi = RootOfUnity(7, 3)
    first = twisted_bernoulli(6, xi)
    calls = []
    original = cyclotomic._inverse_one_minus

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cyclotomic, "_inverse_one_minus", counting)
    assert twisted_bernoulli(6, xi) == first
    assert twisted_bernoulli(2, xi) == twisted_bernoulli(2, xi)
    assert calls == []


def schoolbook_mod_phi(c, x, y):
    """x * y mod the monic Phi_c, term by term: the reference for the
    packed product of long numerator lists."""
    modulus = cyclotomic_polynomial(c)
    deg = len(modulus) - 1
    low = [(j, a) for j, a in enumerate(modulus[:-1]) if a]
    prod = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                prod[i + j] += a * b
    for i in range(len(prod) - 1, deg - 1, -1):
        top = prod.pop()
        for j, a in low:
            prod[i - deg + j] -= top * a
    return prod + [0] * (deg - len(prod))


@st.composite
def numerator_pairs(draw):
    """An order c in 2..60 or 210 or 1000 and two signed numerator lists of
    at most phi(c) entries, up to 2^256 in size, often sparse."""
    c = draw(st.one_of(st.integers(2, 60), st.sampled_from([210, 1000])))
    size = st.one_of(st.just(0), st.integers(-2**256, 2**256), st.integers(-9, 9))
    lists = st.lists(size, min_size=1, max_size=phi(c))
    return c, draw(lists), draw(lists)


@given(numerator_pairs())
@settings(max_examples=60, deadline=None)
def test_product_matches_schoolbook(pair):
    c, x, y = pair
    assert cyclotomic._product(c, x, y) == schoolbook_mod_phi(c, x, y)


@pytest.mark.parametrize("c", [210, 1000])
def test_product_by_zero_is_zero(c):
    # a zero list bounds the product by 0; the slots must still hold the
    # other factor's numerators, here past one byte
    x = [(-1) ** i * (2**8 + i) for i in range(phi(c))]
    zero = [0] * phi(c)
    assert cyclotomic._product(c, x, zero) == [0] * phi(c)
    assert cyclotomic._product(c, zero, x) == [0] * phi(c)
    big = CycloElement.root_power(c, 1) * 200
    assert big * CycloElement.from_rational(c, 0) == CycloElement.from_rational(c, 0)
    assert big * (big - big) == CycloElement.from_rational(c, 0)


def test_product_at_order_10000():
    # phi = 4000 numerators on each side: one packed product of 4000 slots
    rng = random.Random(10000)
    x = [0] * 4000
    for i in rng.sample(range(4000), 12):
        x[i] = rng.randint(-2**256, 2**256)
    y = [rng.randint(-2**64, 2**64) for _ in range(4000)]
    y[-1] = 2**256 - 1
    assert cyclotomic._product(10000, x, y) == schoolbook_mod_phi(10000, x, y)


def test_product_at_prime_order_9973():
    # Phi_p = 1 + x + ... + x^(p-1), so mod Phi_p a product is its cyclic
    # convolution mod x^p - 1 less its top coefficient: an O(p) reference
    # for the packed product of 9972 slots, whose 9971 top terms fold by
    # x^p = 1 before Phi_p divides the one left
    p = 9973
    rng = random.Random(p)
    x = [0] * (p - 1)
    for i in rng.sample(range(p - 1), 12):
        x[i] = rng.choice([-1, 1]) * rng.randint(1, 2**8)
    y = [rng.randint(-2**8, 2**8) for _ in range(p - 1)]
    cyclic = [0] * p
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                cyclic[(i + j) % p] += a * b
    start = time.perf_counter()
    got = cyclotomic._product(p, x, y)
    assert time.perf_counter() - start < 2
    assert got == [a - cyclic[-1] for a in cyclic[:-1]]


def embedded(el, order):
    """An element of Q(zeta_c) as an element of Q(zeta_order), zeta_c ->
    zeta_order^(order/c)."""
    step, coeffs = order // el.c, [Fraction(0)] * order
    for j, a in enumerate(el.coeffs):
        coeffs[j * step] = a
    return CycloElement(order, coeffs)


@pytest.mark.parametrize("c", [*range(2, 13), 30])
def test_twisted_rows_match_polylog_oracle(c):
    # for n >= 1 the n-th entry of a root's row is the negative polylog at
    # the root, in the root's own field and embedded in Q(zeta_2c)
    for a in range(1, c):
        xi = RootOfUnity(c, a)
        own, wide = twisted_bernoulli_row(xi, 10), twisted_bernoulli_row(xi, 10, 2 * c)
        for n in range(1, 11):
            want = negative_polylog(n, xi)
            assert own[n] == want
            assert wide[n] == embedded(want, 2 * c)
