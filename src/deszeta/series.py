"""Truncated power series over exact scalars, and the generating functions
whose coefficients are twisted/desingularized Bernoulli data.

The series are sparse maps from exponent tuples, each capped per variable by
a box, to scalars with their own + and * (Fractions, CycloElements, or SPolys
in the auxiliary parameter c, whose c -> 1 limit collapse_tilde takes).  The
generating functions are read one variable at a time (_triangular_product),
over Q or Q(zeta_c) only, in integers from the first factor to the read-out:
every series of that chain holds integer numerators over one denominator, a
Q(zeta_c) coefficient as its numerators packed into one integer, and a
Fraction or CycloElement is built, with one gcd, only for a coefficient that
is read.  The c-parametrized product is taken at a rational c, over Q.
"""

import math
from collections.abc import Mapping
from fractions import Fraction
from operator import le

from .cyclotomic import (CycloElement, OrderMismatchError, TrivialRootError, _pack, _unpack,
                         twisted_bernoulli_row)
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


class _Packed(Mapping):
    """Coefficients stored as integers over one denominator ``den``, in
    divided powers: the integer at exponents e is the coefficient times
    den * prod_j e_j!.  Each is made a scalar, normalized once, when it is
    read.  Over Q (c is None) an integer is that numerator; over Q(zeta_c)
    it packs the numerators of 1, zeta, ..., zeta^(slots - 1), not reduced
    mod Phi_c, in signed slots of ``width`` bits (_pack), so a nonzero
    integer may still read as zero.

    The maps of one chain share a packing that _pack_chain sized for every
    value the chain reads, so a product of two of them (``chained``) is
    taken in integers; the map the chain returns is not chained."""

    __slots__ = ("ints", "c", "den", "width", "slots", "chained")

    def __init__(self, ints, c, den, width, slots, chained):
        self.ints, self.c, self.den = ints, c, den
        self.width, self.slots, self.chained = width, slots, chained

    def __getitem__(self, e):
        return self.read(e, self.ints[e])

    def __iter__(self):
        return iter(self.ints)

    def __len__(self):
        return len(self.ints)

    def like(self, ints, chained=True):
        """Other integers over this denominator and in this packing."""
        return _Packed(ints, self.c, self.den, self.width, self.slots, chained)

    def read(self, e, x, scale=1):
        """The integer x stored at e as a scalar times the integer
        ``scale``, normalized once."""
        den = self.den * math.prod(map(math.factorial, e))
        if self.c is None:
            return Fraction(x * scale, den)
        num = _unpack(x, self.width, self.slots)
        if scale != 1:
            num = [a * scale for a in num]
        return CycloElement._make(self.c, num, den)

    def times(self, other, cap):
        """The product of two chained maps truncated to ``cap``: a binomial
        convolution in integers."""
        return _Packed(_convolve(cap, self.ints, other.ints, binomial=True), self.c,
                       self.den * other.den, self.width, self.slots + other.slots - 1, True)


class TruncatedSeries:
    """Sparse multivariate power series truncated to a box: the exponent of
    variable k is at most box[k], and there are len(box) variables.

    The box is down-closed, so every coefficient a product keeps is exact.
    ``coeffs`` maps exponents to scalars; in the integer chain of
    _triangular_product it is a _Packed map, which makes each scalar when
    it is read.
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

    @classmethod
    def _of(cls, box, coeffs):
        """The series over ``box`` with the coefficient map ``coeffs``, unchecked."""
        series = object.__new__(cls)
        series.box, series.coeffs = box, coeffs
        return series

    def coefficient(self, exponents, scale=1):
        """Scalar coefficient of the monomial with the given exponents (0 if
        absent), times the integer ``scale``."""
        e, coeffs = tuple(exponents), self.coeffs
        if isinstance(coeffs, _Packed):
            x = coeffs.ints.get(e)
            return 0 if x is None else coeffs.read(e, x, scale)
        v = coeffs.get(e, 0)
        return v if scale == 1 else v * scale

    def __mul__(self, other):
        """The product of one-variable series (ValueError for other boxes),
        truncated to the cap.  Two series of the integer chain multiply in
        integers (_Packed.times); the series a caller builds multiply with
        their coefficients' own + and *."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        box = self.box
        if box != other.box:
            raise ValueError("series box mismatch")
        if len(box) != 1:
            raise ValueError("only one-variable series multiply")
        (cap,) = box
        left, right = self.coeffs, other.coeffs
        if getattr(left, "chained", False) and getattr(right, "chained", False):
            return TruncatedSeries._of(box, left.times(right, cap))
        return TruncatedSeries(box, _convolve(cap, left, right))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        # a _Packed map may hold a term that reads zero
        mine, theirs = ({e: v for e, v in s.coeffs.items() if v} for s in (self, other))
        return self.box == other.box and mine == theirs

    def __repr__(self):
        return "TruncatedSeries(box=%s, %d terms)" % (self.box, len(self.coeffs))


def _convolve(cap, left, right, binomial=False):
    """{(n,): sum of x * y} over the terms (i,): x of ``left`` and (j,): y
    of ``right`` with n = i + j <= cap, each product weighted by C(n, i)
    when ``binomial``; the zero sums are dropped."""
    right = sorted(right.items())
    out = {}
    for (i,), x in left.items():
        for (j,), y in right:
            n = i + j
            if n > cap:
                break
            xy = x * y * math.comb(n, i) if binomial else x * y
            out[n] = out[n] + xy if n in out else xy
    return {(n,): v for n, v in out.items() if v}


def _pack_chain(factors, caps, box):
    """(unit, factors): the coefficient maps of the chain's factors in
    divided powers, as chained _Packed maps in one packing wide enough for
    every value that _triangular_product reads, and the constant 1 in it."""
    c, forms = _integer_forms([{e: v * math.factorial(e[0]) for e, v in f.items()}
                               for f in factors])
    width = _chain_width(forms, caps, box) if c else 0
    return (_Packed({(0,): 1}, c, 1, width, 1, True),
            [_Packed({e: _pack(num, width) for e, num in nums.items()}, c, den, width,
                     _slots(nums), True)
             for den, nums in forms])


def _integer_forms(maps):
    """(c, [(den, {e: numerators}) per map]): each coefficient as a list of
    integer numerators over its map's one denominator den, one numerator for
    a rational and the phi(c) power-basis numerators for an element of
    Q(zeta_c).  c is None when every coefficient is rational; a coefficient
    that is neither raises TypeError."""
    c, forms = None, []
    for coeffs in maps:
        parts = {}
        for e, v in coeffs.items():
            if isinstance(v, CycloElement):
                if c is not None and c != v.c:
                    raise OrderMismatchError("mixed cyclotomic orders %d and %d" % (c, v.c))
                c = v.c
                parts[e] = (v.num, v.den)
            elif isinstance(v, (int, Fraction)):
                parts[e] = ((v.numerator,), v.denominator)
            else:
                raise TypeError("the chain takes rationals and CycloElements, not %s"
                                % type(v).__name__)
        den = math.lcm(*(d for _, d in parts.values()))
        forms.append((den, {e: [a * (den // d) for a in num] for e, (num, d) in parts.items()}))
    return c, forms


def _chain_width(forms, caps, box):
    """The slot width that holds every value the chain over the factors
    ``forms`` reads.  The slots are bounded per exponent of the series h: a
    product sums at most min(slots) products per pair of terms, weighted by
    C(n, i), and a re-expansion shifts terms and scales none."""
    slots, bound = 1, [1]
    for (_, nums), cap, edge in zip(forms, caps, box):
        f = [max(map(abs, nums.get((n,), [0]))) for n in range(cap + 1)]
        pairs = min(slots, _slots(nums))
        g = [pairs * sum(math.comb(n, i) * bound[i] * f[n - i]
                         for i in range(min(n + 1, len(bound))))
             for n in range(cap + 1)]
        bound = [max(g[k + m] for k in range(edge + 1)) for m in range(cap - edge + 1)]
        slots += _slots(nums) - 1
    # whole bytes, for cyclotomic._pack
    return max(bound).bit_length() // 8 * 8 + 8


def _slots(numerators):
    return max(map(len, numerators.values()), default=1)


def series_mul(a, b):
    """Product of two truncated series over the same scalar ring.  Kept by
    name for the benchmark's tracer (perfbench/tracing.py SPANS)."""
    return a * b


def compose_linear(f_coeffs, gamma, cap):
    """The univariate series f(gamma U) in U, truncated to degree ``cap``.

    f_coeffs[n] is the coefficient of y^n, zero beyond the list; gamma is
    taken as an exact rational.  The benchmark's tracer spans it by name.
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

    Over Q and Q(zeta_c) every series of the chain holds integers in one
    packing (_pack_chain), in divided powers: g = sum_n g_n U^n / n!, so a
    product is a binomial convolution and the coefficient of t^k in g is
    the shift sum_m g_{k+m} U^m / m! over k!.  The series of a prefix is
    held times the product of its factorials, which the last map, over
    prod_j k_j! at (k_j), takes back.  A coefficient is made a scalar, and
    normalized once, only when it is read.
    """
    if not len(factors) == len(gammas) == len(box):
        raise ValueError("factors, weights and box must have equal length")
    if not box:
        return TruncatedSeries((), {(): 1})  # the empty product
    caps = [sum(box[j:]) for j in range(len(box) + 1)]
    maps = [compose_linear(f, gamma, caps[j]).coeffs
            for j, (f, gamma) in enumerate(zip(factors, gammas))]
    unit, maps = _pack_chain(maps, caps, box)
    chain = [TruncatedSeries._of((cap,), f) for cap, f in zip(caps, maps)]
    level = {(): TruncatedSeries._of((caps[0],), unit)}
    for j, factor in enumerate(chain[:-1]):
        cap = caps[j + 1]
        next_level = {}
        for prefix, h in level.items():
            g = (h * factor).coeffs
            for k in range(box[j] + 1):
                next_level[prefix + (k,)] = TruncatedSeries._of((cap,), _reexpand(g, k, cap))
        level = next_level
    # the last variable: the coefficient of t^k in g is g_k, a constant
    table = {}
    for prefix, h in level.items():
        g = (h * chain[-1]).coeffs
        table.update((prefix + e, x) for e, x in g.ints.items())
    return TruncatedSeries._of(tuple(box), g.like(table, chained=False))


def _reexpand(g, k, cap):
    """The coefficient of t^k in g(t + U), a series in U capped at ``cap``:
    sum_m C(k + m, k) g_{k+m} U^m.  In divided powers it is the shift
    sum_m g_{k+m} U^m / m! over k!, and the chain holds it times k!."""
    ints = g.ints
    return g.like({(m,): ints[(k + m,)] for m in range(cap + 1) if (k + m,) in ints})


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
    factors = [[b / Fraction(math.factorial(n))
                for n, b in enumerate(twisted_bernoulli_row(xi, sum(box), order))]
               for xi in xis]
    return _triangular_product(factors, gammas, box)


def build_tilde_H(gammas, box, c):
    """Expansion of the c-parametrized product with factors
    sum_{m>=1} (1 - c^m) B_m y^{m-1} / m!, truncated to ``box``, at a
    rational c, through the integer chain over Q.  At an integer c it is the
    sum of build_H_r over all nontrivial root tuples of order c (exact-05)."""
    f = [(1 - c ** (n + 1)) * (bernoulli_number(n + 1) / Fraction(math.factorial(n + 1)))
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
    is the plain Fraction left in the limit.  Only callers build SPoly
    series; the name stays for the benchmark's tracer (perfbench/tracing.py).
    """
    sign = Fraction((-1) ** r)
    about_1 = [SPoly.variable(1, 0) + 1]

    def limit(poly):
        in_x = SPoly(1) + poly.evaluate(about_1)  # SPoly even where it is constant
        if any(e < r for (e,) in in_x.terms):
            raise ArithmeticError("coefficient does not vanish to order %d at c = 1" % r)
        return sign * in_x.terms.get((r,), 0)

    return TruncatedSeries(series.box, {e: limit(v) for e, v in series.coeffs.items()})
