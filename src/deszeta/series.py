"""Truncated multivariate power series over exact scalars, and the generating
functions whose coefficients are twisted/desingularized Bernoulli data.

The series are sparse maps from exponent tuples, each capped per variable by
a box, to scalars; scalars may be Fractions, CycloElements, or SPolys in the
one auxiliary parameter c, kept symbolic so the limit c -> 1 is exact.
"""

import math
from fractions import Fraction
from itertools import product
from operator import add, le

from .cyclotomic import TrivialRootError
from .exact import SPoly, bernoulli_number, multinomial

__all__ = [
    "TruncatedSeries",
    "series_mul",
    "compose_linear",
    "build_H_r",
    "build_tilde_H",
    "build_E_product",
    "collapse_tilde",
]


class TruncatedSeries:
    """Sparse multivariate power series truncated to a box: the exponent of
    variable k is at most box[k], and there are len(box) variables.

    The box is down-closed, so every coefficient a product keeps is exact.
    """

    __slots__ = ("box", "coeffs")

    def __init__(self, box, coeffs=None):
        self.box = tuple(box)
        self.coeffs = {}
        if coeffs:
            for e, v in coeffs.items():
                if len(e) != len(self.box):
                    raise ValueError("exponent %r needs %d entries" % (tuple(e), len(self.box)))
                if v and all(map(le, e, self.box)):
                    self.coeffs[tuple(e)] = v

    def coefficient(self, exponents):
        """Scalar coefficient of the monomial with the given exponents (0 if absent)."""
        return self.coeffs.get(tuple(exponents), 0)

    def _check(self, other):
        if self.box != other.box:
            raise ValueError("series box mismatch")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for e, v in other.coeffs.items():
            cur = out.get(e)
            s = v if cur is None else cur + v
            if s:
                out[e] = s
            elif cur is not None:
                del out[e]
        return TruncatedSeries(self.box, out)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        box = self.box
        terms = list(other.coeffs.items())
        out = {}
        for e1, v1 in self.coeffs.items():
            caps = [b - a for a, b in zip(e1, box)]
            for e2, v2 in terms:
                if not all(map(le, e2, caps)):
                    continue
                e = tuple(map(add, e1, e2))
                prod = v1 * v2
                cur = out.get(e)
                out[e] = prod if cur is None else cur + prod
        return TruncatedSeries(box, out)

    __rmul__ = __mul__

    def map_coeffs(self, fn):
        return TruncatedSeries(self.box, {e: fn(v) for e, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.box == other.box and self.coeffs == other.coeffs

    def __repr__(self):
        return "TruncatedSeries(box=%s, %d terms)" % (self.box, len(self.coeffs))


def series_mul(a, b):
    """Product of two truncated series over the same scalar ring."""
    return a * b


def compose_linear(f_coeffs, weights, box):
    """Substitute y = sum_k weights[k] t_k into a univariate series.

    f_coeffs[n] is the coefficient of y^n, zero beyond the list; the result
    is truncated to the per-variable caps ``box``, one cap per weight.  Only
    the exponents inside the box are enumerated, and a variable with weight
    zero stays at exponent zero.  Expansion is by multinomial coefficients,
    so the weights must be exact rationals (or scalars commuting with the
    ring).
    """
    if len(box) != len(weights):
        raise ValueError("box needs one cap per weight")
    caps = [cap if wk else 0 for cap, wk in zip(box, weights)]
    out = {}
    for e in product(*(range(cap + 1) for cap in caps)):
        n = sum(e)
        if n >= len(f_coeffs) or not f_coeffs[n]:
            continue
        w = Fraction(multinomial(*e))
        for wk, ek in zip(weights, e):
            if ek:
                w *= Fraction(wk) ** ek
        out[e] = f_coeffs[n] * w
    return TruncatedSeries(box, out)


def _triangular_product(factors, gammas, box):
    """prod_j f_j(gamma_j (t_j + ... + t_r)), where factors[j] lists the
    coefficients of the univariate series f_j."""
    r = len(gammas)
    result = None
    for j, f in enumerate(factors):
        weights = [gammas[j] if k >= j else Fraction(0) for k in range(r)]
        factor = compose_linear(f, weights, box)
        result = factor if result is None else result * factor
    return result


def build_H_r(xis, gammas, box):
    """Expansion of the product of twisted factors 1/(1 - xi_j e^y_j) with
    y_j = gamma_j (t_j + ... + t_r), truncated to ``box``, over Q(zeta_order)
    with order the lcm of the roots' orders.

    The coefficient of prod t_j^{n_j} / n_j! is the twisted multiple
    Bernoulli number for the index (n_j).
    """
    from .cyclotomic import twisted_bernoulli

    r = len(xis)
    if len(gammas) != r:
        raise ValueError("xis and gammas must have equal length")
    for xi in xis:
        if not xi.nontrivial:
            raise TrivialRootError("all roots must differ from 1")
    order = math.lcm(*(xi.c for xi in xis))
    factors = [
        [
            twisted_bernoulli(n, xi, order=order) / Fraction(math.factorial(n))
            for n in range(sum(box) + 1)
        ]
        for xi in xis
    ]
    return _triangular_product(factors, gammas, box)


def build_tilde_H(gammas, box):
    """Expansion of the c-symbolic product with factors
    sum_{m>=1} (1 - c^m) B_m y^{m-1} / m!, keeping c as an SPoly variable,
    truncated to ``box``."""
    f = [
        SPoly(1, {(0,): 1, (n + 1,): -1})
        * (bernoulli_number(n + 1) / Fraction(math.factorial(n + 1)))
        for n in range(sum(box) + 1)
    ]
    return _triangular_product([f] * len(gammas), gammas, box)


def build_E_product(gammas, box):
    """The exact c -> 1 limit product: factors E(y) = sum_n B_{n+1} y^n / n!,
    truncated to ``box``.

    Its coefficients encode the desingularized values at non-positive
    integers: coefficient of prod t_j^{k_j} times (-1)^{sum k} prod k_j!.
    """
    f = [
        bernoulli_number(n + 1) / Fraction(math.factorial(n))
        for n in range(sum(box) + 1)
    ]
    return _triangular_product([f] * len(gammas), gammas, box)


def collapse_tilde(series, r):
    """Exact limit (-1)^r / (c-1)^r of a c-symbolic series at c = 1.

    Each coefficient is re-expanded in x = c - 1 and must vanish to order
    r there (ArithmeticError otherwise); (-1)^r times its x^r coefficient
    is the plain Fraction left in the limit.
    """
    sign = Fraction((-1) ** r)
    about_1 = [SPoly.variable(1, 0) + 1]

    def limit(poly):
        in_x = SPoly(1) + poly.evaluate(about_1)  # SPoly even where it is constant
        if any(e < r for (e,) in in_x.terms):
            raise ArithmeticError("coefficient does not vanish to order %d at c = 1" % r)
        return sign * in_x.terms.get((r,), 0)

    return series.map_coeffs(limit)
