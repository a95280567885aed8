"""Truncated multivariate power series over exact scalars, and the generating
functions whose coefficients are twisted/desingularized Bernoulli data.

The series are sparse maps from exponent tuples (bounded in total degree
and, optionally, per variable by a box) to scalars; scalars may be
Fractions, CycloElements, or SPolys in the one auxiliary parameter c, kept
symbolic so the limit c -> 1 is exact.
"""

import math
from fractions import Fraction
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


def _exponents(caps, degree):
    """Exponent tuples e with e[k] <= caps[k] and sum(e) <= degree."""
    if not caps:
        yield ()
        return
    for first in range(min(caps[0], degree) + 1):
        for rest in _exponents(caps[1:], degree - first):
            yield (first,) + rest


class TruncatedSeries:
    """Sparse multivariate power series truncated at a total degree bound and,
    when ``box`` is given, at a per-variable exponent cap.

    Both bounds keep a down-closed set of exponents, so every coefficient a
    product keeps is exact.  ``box`` None means no cap beyond the degree.
    """

    __slots__ = ("nvars", "max_degree", "box", "coeffs")

    def __init__(self, nvars, max_degree, coeffs=None, box=None):
        if box is not None:
            box = tuple(box)
            if len(box) != nvars:
                raise ValueError("box needs one cap per variable")
        self.nvars = nvars
        self.max_degree = max_degree
        self.box = box
        self.coeffs = {}
        if coeffs:
            for e, v in coeffs.items():
                if v and self._inside(e):
                    self.coeffs[tuple(e)] = v

    def _inside(self, e):
        if sum(e) > self.max_degree:
            return False
        return self.box is None or all(map(le, e, self.box))

    def coefficient(self, exponents):
        """Scalar coefficient of the monomial with the given exponents (0 if absent)."""
        return self.coeffs.get(tuple(exponents), 0)

    def _bounds(self):
        return self.nvars, self.max_degree, self.box

    def _check(self, other):
        if self._bounds() != other._bounds():
            raise ValueError("series arity/degree/box mismatch")

    def _like(self, coeffs):
        return TruncatedSeries(self.nvars, self.max_degree, coeffs, self.box)

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
        return self._like(out)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._like({e: v * other for e, v in self.coeffs.items()})
        self._check(other)
        box = self.box
        terms = [(e2, sum(e2), v2) for e2, v2 in other.coeffs.items()]
        out = {}
        for e1, v1 in self.coeffs.items():
            room = self.max_degree - sum(e1)
            caps = None if box is None else [b - a for a, b in zip(e1, box)]
            for e2, d2, v2 in terms:
                if d2 > room:
                    continue
                if caps is not None and not all(map(le, e2, caps)):
                    continue
                e = tuple(map(add, e1, e2))
                prod = v1 * v2
                cur = out.get(e)
                out[e] = prod if cur is None else cur + prod
        return self._like(out)

    __rmul__ = __mul__

    def map_coeffs(self, fn):
        return self._like({e: fn(v) for e, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self._bounds() != other._bounds():
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coefficient(e) == other.coefficient(e) for e in keys)

    def __repr__(self):
        return "TruncatedSeries(nvars=%d, D=%d, box=%s, %d terms)" % (
            self.nvars,
            self.max_degree,
            self.box,
            len(self.coeffs),
        )


def series_mul(a, b):
    """Product of two truncated series over the same scalar ring."""
    return a * b


def compose_linear(f_coeffs, weights, max_degree, box=None):
    """Substitute y = sum_k weights[k] t_k into a univariate series.

    f_coeffs[n] is the coefficient of y^n; the result is truncated at the
    given total degree and, when given, at the per-variable caps ``box``.
    Only the exponents inside both bounds are enumerated, and a variable
    with weight zero stays at exponent zero.  Expansion is by multinomial
    coefficients, so the weights must be exact rationals (or scalars
    commuting with the ring).
    """
    nvars = len(weights)
    if box is not None and len(box) != nvars:
        raise ValueError("box needs one cap per variable")
    caps = [
        (max_degree if box is None else box[k]) if wk else 0
        for k, wk in enumerate(weights)
    ]
    out = {}
    for e in _exponents(caps, min(max_degree, len(f_coeffs) - 1)):
        fn = f_coeffs[sum(e)]
        if not fn:
            continue
        w = Fraction(multinomial(*e))
        for wk, ek in zip(weights, e):
            if ek:
                w *= Fraction(wk) ** ek
        out[e] = fn * w
    return TruncatedSeries(nvars, max_degree, out, box)


def _triangular_product(factors, gammas, max_degree, box=None):
    """prod_j f_j(gamma_j (t_j + ... + t_r)), where factors[j] lists the
    coefficients of the univariate series f_j."""
    r = len(gammas)
    result = None
    for j, f in enumerate(factors):
        weights = [gammas[j] if k >= j else Fraction(0) for k in range(r)]
        factor = compose_linear(f, weights, max_degree, box)
        result = factor if result is None else result * factor
    return result


def build_H_r(xis, gammas, max_degree, box=None):
    """Truncated expansion of the product of twisted factors 1/(1 - xi_j e^y_j)
    with y_j = gamma_j (t_j + ... + t_r), over Q(zeta_order) with order the
    lcm of the roots' orders.

    The coefficient of prod t_j^{n_j} / n_j! is the twisted multiple
    Bernoulli number for the index (n_j).  ``box`` caps each exponent on
    top of the total degree.
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
            for n in range(max_degree + 1)
        ]
        for xi in xis
    ]
    return _triangular_product(factors, gammas, max_degree, box)


def build_tilde_H(gammas, max_degree):
    """Expansion of the c-symbolic product with factors
    sum_{m>=1} (1 - c^m) B_m y^{m-1} / m!, keeping c as an SPoly variable."""
    f = [
        SPoly(1, {(0,): 1, (n + 1,): -1})
        * (bernoulli_number(n + 1) / Fraction(math.factorial(n + 1)))
        for n in range(max_degree + 1)
    ]
    return _triangular_product([f] * len(gammas), gammas, max_degree)


def build_E_product(gammas, max_degree, box=None):
    """The exact c -> 1 limit product: factors E(y) = sum_n B_{n+1} y^n / n!.

    Its coefficients encode the desingularized values at non-positive
    integers: coefficient of prod t_j^{k_j} times (-1)^{sum k} prod k_j!.
    ``box`` caps each exponent on top of the total degree.
    """
    f = [
        bernoulli_number(n + 1) / Fraction(math.factorial(n))
        for n in range(max_degree + 1)
    ]
    return _triangular_product([f] * len(gammas), gammas, max_degree, box)


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
