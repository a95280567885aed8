"""Truncated multivariate power series over exact scalars, and the generating
functions whose coefficients are twisted/desingularized Bernoulli data.

The series are sparse maps from exponent tuples, each capped per variable by
a box, to scalars; scalars may be Fractions, CycloElements, or SPolys in the
one auxiliary parameter c, kept symbolic so the limit c -> 1 is exact.
"""

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import chain, product
from operator import le, mul

from .cyclotomic import CycloElement, OrderMismatchError, TrivialRootError, _reduce
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
        """The product truncated to the box.  Rational and Q(zeta_c)
        coefficients are multiplied as integer numerators over one
        denominator per operand, an element's numerators packed into one
        integer, so each output coefficient is summed in integers and
        normalized once; SPoly coefficients use their own + and *."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        box = self.box
        left, right = _integer_form(self.coeffs), _integer_form(other.coeffs)
        if left is None or right is None:
            return TruncatedSeries(box, _convolve(box, self.coeffs, other.coeffs))
        (c1, d1, n1), (c2, d2, n2) = left, right
        if c1 and c2 and c1 != c2:
            raise OrderMismatchError("mixed cyclotomic orders %d and %d" % (c1, c2))
        c, den = c1 or c2, d1 * d2
        if not c:
            out = _convolve(box, _pack(n1, 0), _pack(n2, 0))
            return TruncatedSeries(box, {e: Fraction(x, den) for e, x in out.items()})
        size = max(map(len, chain(n1.values(), n2.values())))  # phi(c)
        # a slot of a packed product sums at most `size` products per pair,
        # and at most min(len(n1), len(n2)) pairs meet in one exponent
        bound = min(len(n1), len(n2)) * size * _largest(n1) * _largest(n2)
        width = bound.bit_length() + 1
        out = _convolve(box, _pack(n1, width), _pack(n2, width))
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


def _convolve(box, left, right):
    """{e1 + e2: sum of x * y} over the terms e1: x of ``left`` and e2: y of
    ``right`` whose exponents add up inside ``box``."""
    # inside the box, exponents add as their mixed-radix indices do
    strides = [math.prod(b + 1 for b in box[k + 1:]) for k in range(len(box))]
    # right's terms grouped by their leading exponents and sorted by the
    # last one (none in a box of no variables), so each e1 walks only the
    # terms under its caps
    groups = {}
    for e2, y in sorted(right.items(), key=lambda t: t[0][-1:]):
        lasts, terms = groups.setdefault(e2[:-1], ([], []))
        lasts.append(e2[-1:])
        terms.append((sum(map(mul, e2, strides)), y))
    groups = list(groups.items())
    out = {}
    for e1, x in left.items():
        i1 = sum(map(mul, e1, strides))
        caps = tuple(b - a for a, b in zip(e1, box))
        lead_caps, cut = caps[:-1], caps[-1:]
        for lead, (lasts, terms) in groups:
            if not all(map(le, lead, lead_caps)):
                continue
            for i2, y in terms[:bisect_right(lasts, cut)]:
                prod = x * y
                cur = out.get(i1 + i2)
                out[i1 + i2] = prod if cur is None else cur + prod
    return {tuple(i // s % (b + 1) for s, b in zip(strides, box)): v for i, v in out.items()}


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
