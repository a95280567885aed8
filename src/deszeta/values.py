"""Exact special values: twisted multiple Bernoulli numbers, values of the
twisted multiple zeta-function at non-positive integers, and desingularized
values at non-positive integers.

The desingularized values come in three independent routes that must agree:
the nu-matrix sum (its matrices summed by the multinomial theorem, with no
series product), the r = 2 closed convolution form, and the
generating-function oracle read off the exact c -> 1 limit product.

The generating-function routes read whole tables: one triangular product,
truncated to the box [0, max]^r and read one variable at a time
(series._triangular_product), holds every index of the box as integers over
one denominator, and each value is normalized once, when it is read.  The
other routes sum in integers too and divide once: the nu-matrix sum over
one row B_{1+n} gamma^n per weight, cached like the matrix weights of each
index, and the closed convolution as integer polynomial products, read from
the two roots' twisted Bernoulli rows and reduced mod Phi_c once.
"""

import functools
import math
from fractions import Fraction
from itertools import product as iter_product
from operator import getitem

from .cyclotomic import CycloElement, TrivialRootError, twisted_bernoulli_row
from .exact import bernoulli_number, binomial, check_index, linear_form_product
from .series import build_E_product, build_H_r

__all__ = [
    "twisted_multiple_bernoulli",
    "twisted_multiple_bernoulli_table",
    "double_twisted_closed",
    "lerch_special_value",
    "desing_value_exact",
    "desing_value_r2_closed",
    "desing_value_oracle",
    "desing_value_table",
]


def _read(series, indices, zero, signed):
    """Map each index n to the coefficient of prod t_j^{n_j} times prod n_j!,
    negated when ``signed`` and sum(n) is odd; absent coefficients read as
    ``zero``."""
    out = {}
    for n in indices:
        scale = math.prod(map(math.factorial, n))
        if signed and sum(n) % 2:
            scale = -scale
        out[n] = series.coefficient(n, scale) or zero
    return out


def _weights(gammas, r):
    """The r weights as Fractions; ValueError unless r >= 1, there are r of
    them and none is zero."""
    if r < 1:
        raise ValueError("r must be positive")
    if len(gammas) != r:
        raise ValueError("index and weights must have equal length")
    gammas = [g if isinstance(g, Fraction) else Fraction(g) for g in gammas]
    if any(g == 0 for g in gammas):
        raise ValueError("weights must be nonzero")
    return gammas


def _twisted_read(box, indices, xis, gammas):
    """Twisted multiple Bernoulli numbers at ``indices``, all inside ``box``,
    read from one product of twisted factors truncated to that box."""
    if len(box) != len(xis):
        raise ValueError("index, roots and weights must have equal length")
    check_index(*box)
    series = build_H_r(xis, _weights(gammas, len(box)), box)
    zero = CycloElement.from_rational(math.lcm(*(xi.c for xi in xis)), 0)
    return _read(series, indices, zero, signed=False)


def twisted_multiple_bernoulli(n, xis, gammas):
    """Twisted multiple Bernoulli number for the index tuple n, roots xis and
    weights gammas, read from the product generating function truncated to
    the box [0, n]."""
    n = tuple(n)
    return _twisted_read(n, [n], xis, gammas)[n]


def twisted_multiple_bernoulli_table(nmax, xis, gammas):
    """Twisted multiple Bernoulli numbers for every index in [0, nmax]^r, in
    lexicographic order, read from one product truncated to that box."""
    r = len(xis)
    indices = iter_product(range(nmax + 1), repeat=r)
    return _twisted_read((nmax,) * r, indices, xis, gammas)


def double_twisted_closed(k, l, xi1, xi2, gammas):
    """Closed convolution form of the r = 2 twisted multiple Bernoulli number:
    sum_j C(l,j) B_{k+j}(xi1) B_{l-j}(xi2) gamma1^{k+j} gamma2^{l-j}."""
    for xi in (xi1, xi2):
        if not xi.nontrivial:
            raise TrivialRootError("roots must differ from 1")
    check_index(k, l)
    g1, g2 = _weights(gammas, 2)
    order = math.lcm(xi1.c, xi2.c)
    # C(l, j) gamma1^{k+j} gamma2^{l-j} = w_j / (q1^{k+l} q2^l)
    (p1, q1), (p2, q2) = g1.as_integer_ratio(), g2.as_integer_ratio()
    row1 = twisted_bernoulli_row(xi1, k + l, order)
    row2 = twisted_bernoulli_row(xi2, l, order)
    terms = [(row1[k + j], row2[l - j],
              binomial(l, j) * p1 ** (k + j) * q1 ** (l - j) * p2 ** (l - j) * q2 ** j)
             for j in range(l + 1)]
    den1 = math.lcm(*(a.den for a, _, _ in terms))
    den2 = math.lcm(*(b.den for _, b, _ in terms))
    # the terms as integer polynomial products over one denominator, reduced
    # mod Phi_c and normalized once
    total = [0] * (2 * len(terms[0][0].num) - 1)
    for a, b, w in terms:
        w *= (den1 // a.den) * (den2 // b.den)
        for i, x in enumerate(a.num):
            if x:
                x *= w
                for n, y in enumerate(b.num, i):
                    total[n] += x * y
    return CycloElement._make(order, total, den1 * den2 * q1 ** (k + l) * q2 ** l)


def lerch_special_value(n, xis, gammas):
    """Value of the twisted multiple zeta-function at the non-positive
    integer point (-n_j): a sign times the twisted multiple Bernoulli number
    at the inverted roots."""
    n = tuple(n)
    r = len(n)
    inv = [xi.inverse() for xi in xis]
    sign = (-1) ** (r + sum(n))
    return twisted_multiple_bernoulli(n, inv, gammas) * sign


def desing_value_exact(k, gammas):
    """Desingularized value at (-k_j) as the sum over the upper-triangular
    nu-matrices with column sums k_j of prod_j k_j!/prod nu! times
    prod_j B_{1+n_j} gamma_j^{n_j}, n being the vector of row sums.

    By the multinomial theorem the matrix weights summed per n are the
    coefficients of x^n in prod_j (x_1 + ... + x_j)^{k_j}, read from
    exact.linear_form_product with the variables reversed.  The sum is taken
    in integers: each row's factors B_{1+n} gamma_j^n are put over one
    denominator, and the one division comes last."""
    k = tuple(k)
    check_index(*k)
    r = len(k)
    gammas = _weights(gammas, r)
    # B_{1+n} gamma_j^n = rows[j][n] / dens[j], one denominator per row j
    dens, rows = zip(*(_weight_row(*g.as_integer_ratio(), sum(k[j:]))
                       for j, g in enumerate(gammas)))
    total = sum(w * math.prod(map(getitem, rows, n)) for n, w in _nu_weights(k))
    return Fraction((-1) ** sum(k) * total, math.prod(dens))


@functools.lru_cache(maxsize=256)
def _weight_row(p, q, top):
    """(den, numerators): B_{1+n} (p/q)^n for n = 0, ..., top over their
    one denominator; the Bernoulli row itself at p = q = 1."""
    if p == q == 1:
        bern = [bernoulli_number(1 + n) for n in range(top + 1)]
        den = math.lcm(*(b.denominator for b in bern))
        return den, tuple(b.numerator * (den // b.denominator) for b in bern)
    den, bern = _weight_row(1, 1, top)
    return den * q ** top, tuple(b * p ** n * q ** (top - n) for n, b in enumerate(bern))


@functools.lru_cache(maxsize=256)
def _nu_weights(k):
    """The pairs (n, weight) of the nu-matrices with column sums k: the
    coefficients of x^n in prod_j (x_1 + ... + x_j)^{k_j}."""
    r = len(k)
    # column j's form x_0 + ... + x_j is t_{r-1-j} + ... + t_{r-1} in the
    # reversed variables t_i = x_{r-1-i}
    starts = [r - 1 - j for j in range(r) for _ in range(k[j])]
    return tuple((e[::-1], w) for e, w in linear_form_product(r, starts).items())


def desing_value_r2_closed(k, l, gamma1, gamma2):
    """Closed r = 2 form: (-1)^{k+l} sum_nu C(l,nu) B_{k+nu+1} B_{l-nu+1}
    gamma1^{k+nu} gamma2^{l-nu}."""
    check_index(k, l)
    g1, g2 = _weights((gamma1, gamma2), 2)
    total = Fraction(0)
    for nu in range(l + 1):
        total += (
            Fraction(binomial(l, nu))
            * bernoulli_number(k + nu + 1)
            * bernoulli_number(l - nu + 1)
            * g1 ** (k + nu)
            * g2 ** (l - nu)
        )
    return Fraction((-1) ** (k + l)) * total


def _desing_read(box, indices, gammas):
    """Desingularized values at ``indices``, all inside ``box``, read from one
    limit product truncated to that box."""
    check_index(*box)
    series = build_E_product(_weights(gammas, len(box)), box)
    return _read(series, indices, Fraction(0), signed=True)


def desing_value_oracle(k, gammas):
    """Desingularized value at (-k_j) read from the exact limit product's
    coefficients; independent of the nu-matrix sum."""
    k = tuple(k)
    return _desing_read(k, [k], gammas)[k]


def desing_value_table(kmax, gammas):
    """Desingularized values at (-k_j) for every k in [0, kmax]^r, in
    lexicographic order, read from one limit product truncated to that box."""
    r = len(gammas)
    return _desing_read((kmax,) * r, iter_product(range(kmax + 1), repeat=r), gammas)
