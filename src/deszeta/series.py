"""Truncated multivariate power series over exact scalars, and the generating
functions whose coefficients are twisted/desingularized Bernoulli data.

The series are sparse maps from exponent tuples (total degree bounded) to
scalars; scalars may be Fractions, CycloElements, or PolyInC (polynomials in
the auxiliary parameter c, kept symbolic so the limit c -> 1 is exact).
"""

import math
from fractions import Fraction
from itertools import combinations_with_replacement

from .cyclotomic import TrivialRootError
from .exact import bernoulli_number, format_rational, multinomial

__all__ = [
    "PolyInC",
    "TruncatedSeries",
    "series_mul",
    "compose_linear",
    "build_H_r",
    "build_tilde_H",
    "build_E_product",
    "collapse_tilde",
]


class PolyInC:
    """Univariate polynomial in the symbol c with rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(x) for x in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def one_minus_c_power(cls, m):
        """The polynomial 1 - c^m."""
        return cls([1] + [0] * (m - 1) + [-1])

    def _coerce(self, other):
        if isinstance(other, PolyInC):
            return other
        if isinstance(other, (int, Fraction)):
            return PolyInC([other])
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, b in enumerate(other.coeffs):
            a[i] += b
        return PolyInC(a)

    __radd__ = __add__

    def __neg__(self):
        return PolyInC([-x for x in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PolyInC([x * other for x in self.coeffs])
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return PolyInC()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return PolyInC(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __call__(self, value):
        out = Fraction(0)
        for a in reversed(self.coeffs):
            out = out * Fraction(value) + a
        return out

    def exact_div_c_minus_1(self):
        """Divide by (c - 1); requires the polynomial to vanish at c = 1."""
        if self(1) != 0:
            raise ArithmeticError("polynomial does not vanish at c = 1")
        if not self.coeffs:
            return PolyInC()
        # p(c) = (c-1) q(c): synthetic division from the top
        q = [Fraction(0)] * (len(self.coeffs) - 1)
        carry = Fraction(0)
        for i in range(len(self.coeffs) - 1, 0, -1):
            carry = carry + self.coeffs[i]
            q[i - 1] = carry
        return PolyInC(q)

    def __repr__(self):
        return "PolyInC(%s)" % (list(map(format_rational, self.coeffs)),)


def _exponents_up_to(nvars, degree):
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(nvars), total):
            e = [0] * nvars
            for idx in combo:
                e[idx] += 1
            yield tuple(e)


class TruncatedSeries:
    """Sparse multivariate power series truncated at a total degree bound."""

    __slots__ = ("nvars", "max_degree", "coeffs")

    def __init__(self, nvars, max_degree, coeffs=None):
        self.nvars = nvars
        self.max_degree = max_degree
        self.coeffs = {}
        if coeffs:
            for e, v in coeffs.items():
                if sum(e) <= max_degree and v:
                    self.coeffs[tuple(e)] = v

    @classmethod
    def constant(cls, nvars, max_degree, value):
        return cls(nvars, max_degree, {(0,) * nvars: value})

    def coefficient(self, exponents):
        """Scalar coefficient of the monomial with the given exponents (0 if absent)."""
        return self.coeffs.get(tuple(exponents), 0)

    def _check(self, other):
        if self.nvars != other.nvars or self.max_degree != other.max_degree:
            raise ValueError("series arity/degree mismatch")

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
        return TruncatedSeries(self.nvars, self.max_degree, out)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            out = {e: v * other for e, v in self.coeffs.items()}
            return TruncatedSeries(self.nvars, self.max_degree, out)
        self._check(other)
        out = {}
        for e1, v1 in self.coeffs.items():
            d1 = sum(e1)
            for e2, v2 in other.coeffs.items():
                if d1 + sum(e2) > self.max_degree:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = v1 * v2
                cur = out.get(e)
                out[e] = prod if cur is None else cur + prod
        return TruncatedSeries(self.nvars, self.max_degree, out)

    __rmul__ = __mul__

    def map_coeffs(self, fn):
        return TruncatedSeries(
            self.nvars, self.max_degree, {e: fn(v) for e, v in self.coeffs.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.nvars != other.nvars or self.max_degree != other.max_degree:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coefficient(e) == other.coefficient(e) for e in keys)

    def __repr__(self):
        return "TruncatedSeries(nvars=%d, D=%d, %d terms)" % (
            self.nvars,
            self.max_degree,
            len(self.coeffs),
        )


def series_mul(a, b):
    """Product of two truncated series over the same scalar ring."""
    return a * b


def compose_linear(f_coeffs, weights, max_degree):
    """Substitute y = sum_k weights[k] t_k into a univariate series.

    f_coeffs[n] is the coefficient of y^n; the result is truncated at the
    given total degree.  Expansion is by multinomial coefficients, so the
    weights must be exact rationals (or scalars commuting with the ring).
    """
    nvars = len(weights)
    out = {}
    for e in _exponents_up_to(nvars, max_degree):
        n = sum(e)
        if n >= len(f_coeffs):
            continue
        fn = f_coeffs[n]
        if not fn:
            continue
        w = Fraction(multinomial(*e))
        for k, wk in enumerate(weights):
            if e[k]:
                if not wk:
                    w = Fraction(0)
                    break
                w *= Fraction(wk) ** e[k]
        if w:
            out[e] = fn * w
    return TruncatedSeries(nvars, max_degree, out)


def _triangular_product(factors, gammas, max_degree):
    """prod_j f_j(gamma_j (t_j + ... + t_r)), where factors[j] lists the
    coefficients of the univariate series f_j."""
    r = len(gammas)
    result = None
    for j, f in enumerate(factors):
        weights = [gammas[j] if k >= j else Fraction(0) for k in range(r)]
        factor = compose_linear(f, weights, max_degree)
        result = factor if result is None else result * factor
    return result


def build_H_r(xis, gammas, max_degree, order=None):
    """Truncated expansion of the product of twisted factors 1/(1 - xi_j e^y_j)
    with y_j = gamma_j (t_j + ... + t_r), over CycloElements of a common order.

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
    if order is None:
        order = 1
        for xi in xis:
            order = order * xi.c // math.gcd(order, xi.c)
    factors = [
        [
            twisted_bernoulli(n, xi, order=order) / Fraction(math.factorial(n))
            for n in range(max_degree + 1)
        ]
        for xi in xis
    ]
    return _triangular_product(factors, gammas, max_degree)


def build_tilde_H(gammas, max_degree):
    """Expansion of the c-symbolic product with factors
    sum_{m>=1} (1 - c^m) B_m y^{m-1} / m!, keeping c as a polynomial variable."""
    f = [
        PolyInC.one_minus_c_power(n + 1)
        * (bernoulli_number(n + 1) / Fraction(math.factorial(n + 1)))
        for n in range(max_degree + 1)
    ]
    return _triangular_product([f] * len(gammas), gammas, max_degree)


def build_E_product(gammas, max_degree):
    """The exact c -> 1 limit product: factors E(y) = sum_n B_{n+1} y^n / n!.

    Its coefficients encode the desingularized values at non-positive
    integers: coefficient of prod t_j^{k_j} times (-1)^{sum k} prod k_j!.
    """
    f = [
        bernoulli_number(n + 1) / Fraction(math.factorial(n))
        for n in range(max_degree + 1)
    ]
    return _triangular_product([f] * len(gammas), gammas, max_degree)


def collapse_tilde(series, r):
    """Exact limit (-1)^r / (c-1)^r of a c-symbolic series at c = 1.

    Each coefficient is divided exactly by (c-1)^r and evaluated at c = 1,
    turning the PolyInC scalars into plain Fractions.
    """
    sign = Fraction((-1) ** r)

    def limit(poly):
        for _ in range(r):
            poly = poly.exact_div_c_minus_1()
        return sign * poly(1)

    return series.map_coeffs(limit)
