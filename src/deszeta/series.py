"""Truncated power series over exact scalars, and the generating functions
whose coefficients are twisted/desingularized Bernoulli data.

The series are sparse maps from exponent tuples, each capped per variable by
a box, to scalars; scalars may be Fractions, CycloElements, or SPolys in the
one auxiliary parameter c, kept symbolic so the limit c -> 1 is exact.  The
generating functions are read one variable at a time (_triangular_product).
"""

import math
from fractions import Fraction
from itertools import chain
from operator import le

from .cyclotomic import (CycloElement, OrderMismatchError, TrivialRootError, _reduce,
                         twisted_bernoulli)
from .exact import SPoly, bernoulli_number

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

    def __mul__(self, other):
        """The product of one-variable series (ValueError for other boxes),
        truncated to the cap.  Rational and Q(zeta_c) coefficients are
        multiplied as integer numerators over one denominator per operand,
        an element's numerators packed into one integer, so each output
        coefficient is summed in integers and normalized once; SPoly
        coefficients use their own + and *."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        box = self.box
        if len(box) != 1:
            raise ValueError("only one-variable series multiply")
        (cap,) = box
        left, right = _integer_form(self.coeffs), _integer_form(other.coeffs)
        if left is None or right is None:
            return TruncatedSeries(box, _convolve(cap, self.coeffs, other.coeffs))
        (c1, d1, n1), (c2, d2, n2) = left, right
        if c1 and c2 and c1 != c2:
            raise OrderMismatchError("mixed cyclotomic orders %d and %d" % (c1, c2))
        c, den = c1 or c2, d1 * d2
        if not c:
            out = _convolve(cap, _pack(n1, 0), _pack(n2, 0))
            return TruncatedSeries(box, {e: Fraction(x, den) for e, x in out.items()})
        size = max(map(len, chain(n1.values(), n2.values())))  # phi(c)
        # a slot of a packed product sums at most `size` products per pair,
        # and at most min(len(n1), len(n2)) pairs meet in one exponent
        bound = min(len(n1), len(n2)) * size * _largest(n1) * _largest(n2)
        width = bound.bit_length() + 1
        out = _convolve(cap, _pack(n1, width), _pack(n2, width))
        return TruncatedSeries(box, {
            e: CycloElement._make(c, _reduce(c, _unpack(x, width, 2 * size - 1)), den)
            for e, x in out.items()
        })

    __rmul__ = __mul__

    def map_coeffs(self, fn):
        return TruncatedSeries(self.box, {e: fn(v) for e, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.box == other.box and self.coeffs == other.coeffs

    def __repr__(self):
        return "TruncatedSeries(box=%s, %d terms)" % (self.box, len(self.coeffs))


def _convolve(cap, left, right):
    """{(i + j,): sum of x * y} over the terms (i,): x of ``left`` and
    (j,): y of ``right`` with i + j <= cap."""
    right = sorted(right.items())
    out = {}
    for (i,), x in left.items():
        for (j,), y in right:
            if i + j > cap:
                break
            out[i + j] = out[i + j] + x * y if i + j in out else x * y
    return {(n,): v for n, v in out.items()}


def _integer_form(coeffs):
    """(c, den, {e: numerators}): each coefficient as a list of integer
    numerators over the one denominator den, one numerator for a rational
    and the phi(c) power-basis numerators for an element of Q(zeta_c).  c is
    None when every coefficient is rational; the result is None when some
    coefficient is neither (an SPoly)."""
    c, parts = None, {}
    for e, v in coeffs.items():
        if isinstance(v, CycloElement):
            if c is not None and c != v.c:
                raise OrderMismatchError("mixed cyclotomic orders %d and %d" % (c, v.c))
            c = v.c
            parts[e] = (v.num, v.den)
        elif isinstance(v, (int, Fraction)):
            parts[e] = ((v.numerator,), v.denominator)
        else:
            return None
    den = math.lcm(*(d for _, d in parts.values()))
    return c, den, {e: [a * (den // d) for a in num] for e, (num, d) in parts.items()}


def _largest(numerators):
    return max((abs(a) for num in numerators.values() for a in num), default=0)


def _pack(numerators, width):
    """Each numerator list as one integer, entry i in the signed slot of
    ``width`` bits at bit width * i; a product of two packed integers is the
    packed convolution of their lists while no slot overflows."""
    return {e: sum(a << (width * i) for i, a in enumerate(num))
            for e, num in numerators.items()}


def _unpack(x, width, slots):
    """The ``slots`` signed slot values of a packed integer."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    out = []
    for _ in range(slots):
        low = x & mask
        if low >= half:
            low -= 1 << width
        out.append(low)
        x = (x - low) >> width
    return out


def series_mul(a, b):
    """Product of two truncated series over the same scalar ring."""
    return a * b


def compose_linear(f_coeffs, gamma, cap):
    """The univariate series f(gamma U) in U, truncated to degree ``cap``.

    f_coeffs[n] is the coefficient of y^n, zero beyond the list; gamma is
    taken as an exact rational.
    """
    gamma = Fraction(gamma)
    return TruncatedSeries((cap,), {
        (n,): a * gamma**n for n, a in enumerate(f_coeffs[:cap + 1])
    })


def _triangular_product(factors, gammas, box):
    """prod_j f_j(gamma_j (t_j + ... + t_r)) truncated to ``box``, where
    factors[j] lists the coefficients of the univariate series f_j.

    The product is read one variable at a time.  With U_j = t_j + ... + t_r
    and D_j = box[j] + ... + box[r-1], what is left of it once the
    coefficient of t_1^k_1 ... t_{j-1}^k_{j-1} is taken is h(U_j) times the
    factors from j on, h a series capped at D_j (h = 1 at j = 1).  Let g be
    h times f_j(gamma_j U_j); since U_j = t_j + U_{j+1}, the coefficient of
    t_j^k in g is the next h, sum_m C(k + m, k) g[k + m] U_{j+1}^m.  After
    the last variable h is a constant, the coefficient sought.
    """
    if not len(factors) == len(gammas) == len(box):
        raise ValueError("factors, weights and box must have equal length")
    caps = [sum(box[j:]) for j in range(len(box) + 1)]
    level = {(): TruncatedSeries(caps[:1], {(0,): 1})}
    for j, (f, gamma) in enumerate(zip(factors, gammas)):
        factor = compose_linear(f, gamma, caps[j])
        cap = caps[j + 1]
        next_level = {}
        for prefix, h in level.items():
            g = (h * factor).coeffs
            for k in range(box[j] + 1):
                next_level[prefix + (k,)] = TruncatedSeries((cap,), {
                    (m,): math.comb(k + m, k) * g[(k + m,)]
                    for m in range(cap + 1) if (k + m,) in g
                })
        level = next_level
    return TruncatedSeries(box, {k: h.coeffs.get((0,), 0) for k, h in level.items()})


def build_H_r(xis, gammas, box):
    """Expansion of the product of twisted factors 1/(1 - xi_j e^y_j) with
    y_j = gamma_j (t_j + ... + t_r), truncated to ``box``, over Q(zeta_order)
    with order the lcm of the roots' orders.

    The coefficient of prod t_j^{n_j} / n_j! is the twisted multiple
    Bernoulli number for the index (n_j).
    """
    for xi in xis:
        if not xi.nontrivial:
            raise TrivialRootError("all roots must differ from 1")
    order = math.lcm(*(xi.c for xi in xis))
    factors = [[twisted_bernoulli(n, xi, order=order) / Fraction(math.factorial(n))
                for n in range(sum(box) + 1)] for xi in xis]
    return _triangular_product(factors, gammas, box)


def build_tilde_H(gammas, box):
    """Expansion of the c-symbolic product with factors
    sum_{m>=1} (1 - c^m) B_m y^{m-1} / m!, keeping c as an SPoly variable,
    truncated to ``box``."""
    f = [SPoly(1, {(0,): 1, (n + 1,): -1})
         * (bernoulli_number(n + 1) / Fraction(math.factorial(n + 1)))
         for n in range(sum(box) + 1)]
    return _triangular_product([f] * len(gammas), gammas, box)


def build_E_product(gammas, box):
    """The exact c -> 1 limit product: factors E(y) = sum_n B_{n+1} y^n / n!,
    truncated to ``box``.

    Its coefficients encode the desingularized values at non-positive
    integers: coefficient of prod t_j^{k_j} times (-1)^{sum k} prod k_j!.
    """
    f = [bernoulli_number(n + 1) / Fraction(math.factorial(n)) for n in range(sum(box) + 1)]
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
