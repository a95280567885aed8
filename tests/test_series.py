"""Truncated series engine and the generating-function products."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from deszeta import series
from deszeta.exact import SPoly, bernoulli_number
from deszeta.series import (
    TruncatedSeries,
    build_E_product,
    build_H_r,
    build_tilde_H,
    collapse_tilde,
    compose_linear,
)
from deszeta.verify import check_root_pair_sum
from deszeta.cyclotomic import (CycloElement, OrderMismatchError, RootOfUnity, TrivialRootError,
                                 twisted_bernoulli)
from deszeta.values import desing_value_exact


def small_series(data, box=(5,)):
    coeffs = {}
    for e in product(*(range(b + 1) for b in box)):
        q = data.draw(st.fractions(max_denominator=4))
        if q:
            coeffs[e] = q
    return TruncatedSeries(box, coeffs)


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


# small numerators, so that coefficients often cancel, and wide ones of
# either sign, so that the packed slots of the Q(zeta_c) product are tested
NUMERATORS = st.one_of(st.integers(-2, 2), st.integers(-2**70, 2**70))
RATIONALS = st.one_of(st.integers(-3, 3),
                      st.fractions(max_denominator=6).filter(bool),
                      st.builds(Fraction, NUMERATORS, st.integers(1, 10**6)))


def scalars(c):
    """Rationals, and for an order c elements of Q(zeta_c) with rationals
    among them."""
    if c is None:
        return RATIONALS
    phi = len(CycloElement.from_rational(c, 0).num)
    element = st.lists(st.builds(Fraction, NUMERATORS, st.integers(1, 30)),
                       min_size=phi, max_size=phi)
    return st.one_of(RATIONALS, element.map(lambda coeffs: CycloElement(c, coeffs)))


def sparse_series(data, box, c):
    coeffs = {}
    for e in product(*(range(b + 1) for b in box)):
        if data.draw(st.booleans()):
            coeffs[e] = data.draw(scalars(c))
    return TruncatedSeries(box, coeffs)


def schoolbook(a, b):
    """The truncated product by the scalars' own + and *, pair by pair."""
    out = {}
    for e1, x in a.coeffs.items():
        for e2, y in b.coeffs.items():
            e = tuple(p + q for p, q in zip(e1, e2))
            if all(p <= cap for p, cap in zip(e, a.box)):
                out[e] = out[e] + x * y if e in out else x * y
    return {e: v for e, v in out.items() if v}


@pytest.mark.parametrize("c", [None, 5, 12])
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_mul_matches_schoolbook(c, data):
    box = (data.draw(st.integers(0, 6)),)
    a = sparse_series(data, box, c)
    b = sparse_series(data, box, c)
    prod = a * b
    assert prod.box == box
    assert prod.coeffs == schoolbook(a, b)
    assert all(prod.coeffs.values())  # cancelled coefficients are dropped


@pytest.mark.parametrize("unit", [
    Fraction(1, 3),
    CycloElement.root_power(5, 2),
    CycloElement(12, [Fraction(1, 2), 0, Fraction(-3, 7), 1]),
])
def test_mul_drops_cancelled_coefficients(unit):
    # (1 + u t)(1 - u t) = 1 - u^2 t^2: the t coefficient cancels
    a = TruncatedSeries((2,), {(0,): 1, (1,): unit})
    b = TruncatedSeries((2,), {(0,): 1, (1,): -unit})
    assert (a * b).coeffs == {(0,): 1, (2,): -(unit * unit)}
    assert (a * b).coefficient((1,)) == 0


@pytest.mark.parametrize("unit", [Fraction(2, 3), CycloElement.root_power(5, 1)])
def test_mul_with_empty_series(unit):
    empty = TruncatedSeries((3,))
    a = TruncatedSeries((3,), {(0,): unit, (2,): unit})
    assert (a * empty).coeffs == (empty * a).coeffs == {}
    assert (empty * empty).coeffs == {}


def test_mul_refuses_mixed_cyclotomic_orders():
    a = TruncatedSeries((2,), {(0,): CycloElement.root_power(5, 1)})
    b = TruncatedSeries((2,), {(1,): CycloElement.root_power(7, 3)})
    with pytest.raises(OrderMismatchError):
        a * b
    mixed = TruncatedSeries((2,), {(0,): CycloElement.root_power(5, 1),
                                   (1,): CycloElement.root_power(7, 3)})
    with pytest.raises(OrderMismatchError):
        mixed * mixed


def test_truncation_drops_high_degree():
    s = TruncatedSeries((3,), {(2,): Fraction(1)})
    sq = s * s
    assert sq.coefficient((4,)) == 0
    assert len(sq.coeffs) == 0


@pytest.mark.parametrize("box", [(), (2, 2), (1, 1, 1)])
def test_mul_refuses_all_but_one_variable(box):
    # the triangular products are read one variable at a time, so only
    # one-variable series are ever multiplied
    s = TruncatedSeries(box, {(0,) * len(box): Fraction(1)})
    with pytest.raises(ValueError):
        s * s


def test_compose_linear_univariate():
    # substitute y = 2 t1 into 1 + y + y^2
    f = [Fraction(1), Fraction(1), Fraction(1)]
    out = compose_linear(f, Fraction(2), 2)
    assert out.coefficient((0,)) == 1
    assert out.coefficient((1,)) == 2
    assert out.coefficient((2,)) == 4
    assert compose_linear(f, Fraction(2), 1).coeffs == {(0,): 1, (1,): 2}


def test_build_H_r_rejects_trivial_roots():
    with pytest.raises(TrivialRootError):
        build_H_r([RootOfUnity(3, 0)], [Fraction(1)], (2,))


def test_spoly_takes_rational_scalars_on_either_side():
    c = SPoly.variable(1, 0)
    half = Fraction(1, 2)
    assert c + half == half + c == SPoly(1, {(0,): half, (1,): 1})
    assert c * half == half * c == SPoly(1, {(1,): half})
    assert (c * half + half).evaluate((3,)) == 2
    assert (c + half) - half == c


def test_box_truncation_drops_outside_terms():
    # (t + t^2)^2 = t^2 + 2 t^3 + t^4, capped at degree 3
    s = TruncatedSeries((3,), {(1,): Fraction(1), (2,): Fraction(1)})
    sq = s * s
    assert sq.coeffs == {(2,): 1, (3,): 2}
    assert sq.box == (3,)


def test_box_mismatch_rejected():
    a = TruncatedSeries((2, 2), {(1, 0): Fraction(1)})
    b = TruncatedSeries((2, 3), {(1, 0): Fraction(1)})
    assert a != b
    with pytest.raises(ValueError):
        TruncatedSeries((2,), {(1,): Fraction(1)}) * TruncatedSeries((3,), {(1,): Fraction(1)})
    for box in ((2,), (2, 2, 2)):
        with pytest.raises(ValueError):
            build_E_product([Fraction(1), Fraction(1)], box)
    with pytest.raises(ValueError):
        build_H_r([RootOfUnity(3, 1)], [Fraction(1), Fraction(1)], (2,))
    with pytest.raises(TypeError):
        a * Fraction(2)


def test_exponent_length_must_match_box():
    with pytest.raises(ValueError):
        TruncatedSeries((2,), {(1, 5): 1})
    with pytest.raises(ValueError):
        TruncatedSeries((2, 2), {(1,): 1})
    # a zero coefficient is dropped, but its key is still checked
    with pytest.raises(ValueError):
        TruncatedSeries((2,), {(0, 0): 0})


def _box_indices(box):
    return product(*(range(b + 1) for b in box))


def _assert_restricts(boxed, larger):
    # the boxed product is the larger-box product restricted to its box
    assert set(boxed.coeffs) <= set(_box_indices(boxed.box))
    for e in _box_indices(boxed.box):
        assert boxed.coefficient(e) == larger.coefficient(e)


# The reference box caps every variable at the total degree sum(box), so it
# holds every exponent of total degree up to sum(box).

@pytest.mark.parametrize("box, gammas", [
    ((5,), [Fraction(3)]),
    ((3, 2), [Fraction(1, 2), Fraction(3)]),
    ((0, 4), [Fraction(2), Fraction(1, 3)]),
    ((2, 1, 3), [Fraction(1), Fraction(2, 3), Fraction(3, 2)]),
    ((2, 2, 2, 2), [Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(2)]),
])
def test_box_E_product_matches_total_degree(box, gammas):
    boxed = build_E_product(gammas, box)
    assert boxed.box == tuple(box)
    _assert_restricts(boxed, build_E_product(gammas, (sum(box),) * len(box)))


@pytest.mark.parametrize("box, roots, gammas", [
    ((4,), [(5, 2)], [Fraction(2, 3)]),
    ((3, 3), [(5, 1), (5, 3)], [Fraction(2, 3), Fraction(3, 2)]),
    ((1, 3), [(2, 1), (4, 3)], [Fraction(1), Fraction(1, 2)]),
    ((2, 1, 2), [(3, 1), (3, 2), (6, 1)], [Fraction(1, 2), Fraction(1), Fraction(3)]),
])
def test_box_H_r_matches_total_degree(box, roots, gammas):
    xis = [RootOfUnity(c, a) for c, a in roots]
    boxed = build_H_r(xis, gammas, box)
    _assert_restricts(boxed, build_H_r(xis, gammas, (sum(box),) * len(box)))


@pytest.mark.parametrize("box, gammas", [
    ((3,) * 5, [Fraction(1), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(1, 2)]),
    ((2,) * 6, [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(1), Fraction(2, 3), Fraction(1)]),
])
def test_deep_E_product_matches_nu_matrices(box, gammas):
    # beyond the depths the CLI offers, every coefficient of the chain read
    # still equals the nu-matrix sum
    series = build_E_product(gammas, box)
    for k in _box_indices(box):
        scale = (-1) ** sum(k) * math.prod(map(math.factorial, k))
        assert series.coefficient(k) * scale == desing_value_exact(k, gammas)


# The chain reads the product one variable at a time in integers; the
# reference below expands every factor f_j(gamma_j (t_j + ... + t_r)) over the
# whole box by the multinomial theorem and multiplies the factors pair by pair
# with the scalars' own + and * (schoolbook), one coefficient at a time.

def _reference_product(factors, gammas, box):
    r = len(box)
    total = TruncatedSeries(box, {(0,) * r: 1})
    for j, (f, gamma) in enumerate(zip(factors, gammas)):
        terms = {}
        for e in _box_indices(box):
            if any(e[:j]):
                continue
            n = sum(e)
            multinomial = math.factorial(n) // math.prod(map(math.factorial, e))
            if f[n]:
                terms[e] = f[n] * (Fraction(gamma) ** n * multinomial)
        total = TruncatedSeries(box, schoolbook(total, TruncatedSeries(box, terms)))
    return total


WEIGHTS = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
# roots (order, a) of orders 2, 3, 4 and 6, so that a product mixes orders
ROOTS = st.sampled_from([(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (6, 1), (6, 5)])


@st.composite
def chain_inputs(draw, roots):
    r = draw(st.integers(1, 3))
    box = tuple(draw(st.lists(st.integers(0, 3), min_size=r, max_size=r)))
    gammas = draw(st.lists(WEIGHTS, min_size=r, max_size=r))
    xis = None if roots is None else [RootOfUnity(*draw(roots)) for _ in range(r)]
    return box, gammas, xis


def _assert_matches(series, reference):
    assert series == reference
    for e in _box_indices(series.box):
        assert series.coefficient(e) == reference.coefficient(e), e


@given(chain_inputs(None))
@settings(max_examples=40, deadline=None)
def test_E_product_matches_reference_chain(inputs):
    box, gammas, _ = inputs
    f = [bernoulli_number(n + 1) / math.factorial(n) for n in range(sum(box) + 1)]
    _assert_matches(build_E_product(gammas, box),
                    _reference_product([f] * len(box), gammas, box))


@given(chain_inputs(ROOTS))
@settings(max_examples=40, deadline=None)
def test_H_r_matches_reference_chain(inputs):
    box, gammas, xis = inputs
    order = math.lcm(*(xi.c for xi in xis))
    factors = [[twisted_bernoulli(n, xi, order=order) / math.factorial(n)
                for n in range(sum(box) + 1)] for xi in xis]
    _assert_matches(build_H_r(xis, gammas, box), _reference_product(factors, gammas, box))


@pytest.mark.parametrize("roots, order, gammas", [
    (((3, 1), (6, 5)), 6, (Fraction(-2, 3), Fraction(3, 2))),
    # the chain keeps the coefficient at (0, 2) as a nonzero integer that
    # reads zero in Q(zeta_4)
    (((4, 1), (4, 3)), 4, (1, 1)),
])
def test_H_r_matches_reference_chain_at(roots, order, gammas):
    xis = [RootOfUnity(*root) for root in roots]
    factors = [[twisted_bernoulli(n, xi, order=order) / math.factorial(n) for n in range(7)]
               for xi in xis]
    series = build_H_r(xis, gammas, (3, 3))
    _assert_matches(series, _reference_product(factors, gammas, (3, 3)))


# The c-parametrized product with factors sum_m (1 - c^m) B_m y^(m-1) / m!:
# the reference above, fed those factors as SPolys in c, gives it
# symbolically, through no code of the chain.  The chain takes it at a
# rational c, and collapse_tilde takes the symbolic form's c -> 1 limit.

def _symbolic_tilde_H(gammas, box):
    f = [SPoly(1, {(0,): 1, (n + 1,): -1}) * (bernoulli_number(n + 1) / math.factorial(n + 1))
         for n in range(sum(box) + 1)]
    return _reference_product([f] * len(box), gammas, box)


def test_collapse_matches_E_product():
    # the exact c -> 1 limit of the c-parameterized product equals the
    # product built directly from the limit factors
    for box, gammas in (((5,), [Fraction(1)]),
                        ((3, 4), [Fraction(1), Fraction(1, 2)]),
                        ((2, 3, 2), [Fraction(2), Fraction(1), Fraction(1, 3)])):
        r = len(gammas)
        limit = collapse_tilde(_symbolic_tilde_H(gammas, box), r)
        assert limit == build_E_product(gammas, box)


def test_collapse_refuses_a_coefficient_that_does_not_vanish_to_order_r():
    # (c - 1)^2 divides every coefficient of a depth-2 product, but not
    # (c - 1)^3; and 1 + c does not vanish at c = 1 at all
    with pytest.raises(ArithmeticError):
        collapse_tilde(_symbolic_tilde_H([Fraction(1), Fraction(1)], (3, 3)), 3)
    one_plus_c = SPoly(1, {(0,): 1, (1,): 1})
    with pytest.raises(ArithmeticError):
        collapse_tilde(TruncatedSeries((1,), {(0,): one_plus_c}), 1)


@pytest.mark.parametrize("c", [2, 3, 5])
@pytest.mark.parametrize("box", [(4, 4), (3, 3, 3)])
def test_tilde_H_at_integer_c_is_the_symbolic_product_at_c(box, c):
    # at an integer c the chain takes the product over Q; the symbolic
    # reference, evaluated at c coefficient by coefficient, must agree
    gammas = [Fraction(1), Fraction(1, 2), Fraction(3)][:len(box)]
    symbolic = _symbolic_tilde_H(gammas, box)
    at_c = build_tilde_H(gammas, box, c)
    assert isinstance(at_c.coeffs, series._Packed)
    for e in _box_indices(box):
        want = (symbolic.coefficient(e) or SPoly(1)).evaluate((c,))
        assert at_c.coefficient(e) == want


def test_root_sum_of_product_is_c_specialization():
    # summing the twisted product over all nontrivial root pairs and
    # specializing the symbolic parameter at c must agree
    c = 3
    gammas = [Fraction(1), Fraction(2)]
    tilde = _symbolic_tilde_H(gammas, (3, 4))
    total = {}
    for a1 in range(1, c):
        for a2 in range(1, c):
            h = build_H_r([RootOfUnity(c, a1), RootOfUnity(c, a2)], gammas, (3, 4))
            for e, coeff in h.coeffs.items():
                total[e] = total.get(e, 0) + coeff
    for e, coeff in total.items():
        if not coeff:
            continue
        want = tilde.coefficient(e)
        assert coeff.as_rational() == (want or SPoly(1)).evaluate((c,))


@pytest.mark.parametrize("gammas", [(1, 1, 1), (Fraction(1, 2), 3, 1)])
def test_root_sum_theorem_at_depth_3(gammas):
    # exact-05 at r = 3: the twisted tables summed over all nontrivial root
    # triples of order 2 and 3 against the chain's product at c = 2 and 3.
    # verify's exact suite runs it at r = 2 only, to keep its time.
    assert check_root_pair_sum(tuple(map(Fraction, gammas)), 3) == (0.0, True)


def test_chain_refuses_an_spoly_factor():
    c = SPoly.variable(1, 0)
    with pytest.raises(TypeError):
        series._triangular_product([[Fraction(1), c]], [Fraction(1)], (1,))
    with pytest.raises(TypeError):
        build_tilde_H([Fraction(1)], (2,), c)


def test_chain_refuses_mixed_cyclotomic_orders():
    factors = [[CycloElement.root_power(5, 1)], [CycloElement.root_power(7, 3)]]
    with pytest.raises(OrderMismatchError):
        series._triangular_product(factors, [Fraction(1), Fraction(1)], (1, 1))


@pytest.mark.parametrize("slots", [10, 10**4])
@pytest.mark.parametrize("width", [8, 64])
def test_pack_round_trip(width, slots):
    # the extreme signed slot values and zeros; 10^4 slots take the linear
    # (bytes) path, 10 the shifting loop
    top = 2 ** (width - 1) - 1
    nums = [(0, top, -top, 1, -1)[i % 5] for i in range(slots)]
    x = series._pack(nums, width)
    assert x == sum(a << (width * i) for i, a in enumerate(nums))
    assert series._unpack(x, width, slots) == nums
