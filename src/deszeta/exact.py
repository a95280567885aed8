"""Exact rational building blocks: Bernoulli numbers (from the tangent
numbers, in integers), binomials, Pochhammer symbols, the expansion of
products of linear forms, and the one exact polynomial type SPoly.

The Bernoulli convention throughout this package is the generating function
t/(e^t - 1), so B_1 = -1/2.  Switching to the other convention (B_1 = +1/2)
silently breaks every downstream value formula; do not change it.
"""

import math
import threading
from fractions import Fraction
from operator import add

__all__ = [
    "bernoulli_number",
    "bernoulli_polynomial",
    "binomial",
    "linear_form_product",
    "pochhammer",
    "SPoly",
    "check_index",
    "format_rational",
    "parse_rational",
]


class _BernoulliCache:
    """Growable table of Bernoulli numbers B_0, B_1, ... (B_1 = -1/2).  An
    extension, serialized, computes only the new entries, resuming the
    tangent-number triangle from its last column, and publishes the table as
    a new list, so reads are lock-free."""

    def __init__(self):
        self._table = [Fraction(1), Fraction(-1, 2)]
        self._edge = []  # the triangle's last column after each of its passes
        self._lock = threading.Lock()

    def get(self, n):
        if n < 0:
            raise ValueError("Bernoulli index must be non-negative")
        table = self._table
        if n < len(table):
            return table[n]
        with self._lock:
            if n >= len(self._table):
                self._table, self._edge = _bernoulli_extend(self._table, self._edge, n + 1)
            return self._table[n]


def _bernoulli_extend(table, edge, size):
    """(table grown to size entries, the new edge).  The tangent numbers T_k
    come in integers from the triangle of Brent and Harvey (2013): pass 1
    sets column j to (j-1)!, and pass k = 2, 3, ... sets column j >= k to
    (j-k) (column j-1) + (j-k+2) (column j), so T_top ends in column top.
    edge holds column top after each pass, which is all the new columns read
    of the old ones.  B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), and B_n = 0
    at odd n > 1."""
    top, new_top = len(edge), (size - 1) // 2
    table = table + [Fraction(0)] * (size - len(table))
    if new_top == top:
        return table, edge
    t = [math.factorial(j - 1) for j in range(top + 1, new_top + 1)]  # column j at t[j-top-1]
    new_edge = [t[-1]]
    for k in range(2, new_top + 1):
        left = edge[k - 1] if k <= top else 0  # column j - 1 after pass k; j = k needs none
        for i in range(max(0, k - top - 1), len(t)):
            j = top + 1 + i
            left = t[i] = (j - k) * left + (j - k + 2) * t[i]
        new_edge.append(t[-1])
    for k, tk in enumerate(t, top + 1):
        table[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * tk, 4 ** k * (4 ** k - 1))
    return table, new_edge


_CACHE = _BernoulliCache()


def bernoulli_number(n):
    """Return the exact Bernoulli number B_n as a Fraction."""
    return _CACHE.get(n)


def bernoulli_polynomial(n, x):
    """Return B_n(x) = sum_k C(n,k) B_k x^{n-k} exactly for rational x."""
    if n < 0:
        raise ValueError("Bernoulli polynomial degree must be non-negative")
    x = Fraction(x)
    return sum(
        Fraction(math.comb(n, k)) * bernoulli_number(k) * x ** (n - k)
        for k in range(n + 1)
    )


def binomial(n, k):
    """Binomial coefficient C(n, k); zero when k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def linear_form_product(r, starts, units=None):
    """Expansion of prod_{j in starts} (t_j + ... + t_{r-1}) in the r
    variables t_0..t_{r-1} (a start may repeat): map exponent -> integer
    coefficient.

    Exponents are summed packed, t_k as the digit of 2^(bits * (r-1-k)),
    with digits wide enough for any exponent, and decoded once; given
    ``units``, t_k as units[k], and the map is returned packed."""
    bits = len(starts).bit_length()
    packed, units = units is not None, units or [1 << bits * (r - 1 - k) for k in range(r)]
    out = {0: 1}
    for j in starts:
        nxt, steps = {}, units[j:]
        get = nxt.get
        for e, b in out.items():
            for u in steps:
                x = e + u
                nxt[x] = get(x, 0) + b
        out = nxt
    if packed:
        return out
    mask = (1 << bits) - 1
    digits = [[e >> bits * (r - 1 - k) & mask for e in out] for k in range(r)]
    return dict(zip(zip(*digits), out.values()))


def pochhammer(s, k):
    """Rising factorial (s)_k = s (s+1) ... (s+k-1), with (s)_0 = 1.

    Works for any scalar supporting + and * (complex, Fraction, polynomials).
    """
    if k < 0:
        raise ValueError("Pochhammer order must be non-negative")
    out = 1
    for i in range(k):
        out = out * (s + i)
    return out


class SPoly:
    """Small sparse polynomial with exact integer or rational coefficients.

    Its r variables print as s_1..s_r; the package also uses it with one
    variable for the deformation parameter c and for the polylog's z.
    Exponents may be negative (Laurent monomials); evaluate needs them
    non-negative.
    """

    __slots__ = ("r", "terms")

    def __init__(self, r, terms=None):
        self.r = r
        self.terms = {tuple(e): a for e, a in (terms or {}).items() if a}

    @classmethod
    def constant(cls, r, a):
        return cls(r, {(0,) * r: a})

    @classmethod
    def variable(cls, r, j):
        e = [0] * r
        e[j] = 1
        return cls(r, {tuple(e): 1})

    @classmethod
    def pochhammer_product(cls, r, l):
        """prod_j (s_j)_{l_j} as a polynomial."""
        out = cls.constant(r, 1)
        for j, lj in enumerate(l):
            out = out * pochhammer(cls.variable(r, j), lj)
        return out

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SPoly.constant(self.r, other)
        out = dict(self.terms)
        for e, a in other.terms.items():
            out[e] = out.get(e, 0) + a
        return SPoly(self.r, out)

    __radd__ = __add__

    def __neg__(self):
        return SPoly(self.r, {e: -a for e, a in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SPoly(self.r, {e: a * other for e, a in self.terms.items()})
        out = {}
        for e1, a1 in self.terms.items():
            for e2, a2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + a1 * a2
        return SPoly(self.r, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, SPoly) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def evaluate(self, point):
        """Value at the point; its coordinates may be numbers, field elements
        or SPolys, so evaluating at (s_j + n_j) re-expands the polynomial
        about n.  ValueError unless the point has one coordinate per
        variable and every exponent is non-negative."""
        if len(point) != self.r:
            raise ValueError("point needs %d coordinates, got %d" % (self.r, len(point)))
        out = 0
        powers = [[x] for x in point]  # powers[k][p - 1] is point[k] ** p
        for e, a in self.terms.items():
            term = a
            for x_powers, p in zip(powers, e):
                if p > 0:
                    while len(x_powers) < p:
                        x_powers.append(x_powers[-1] * x_powers[0])
                    term = term * x_powers[p - 1]
                elif p < 0:
                    raise ValueError("cannot evaluate a negative exponent")
            out = out + term
        return out

    def __repr__(self):
        items = sorted(self.terms.items(), reverse=True)
        if not items:
            return "0"
        parts = []
        for e, a in items:
            factors = [
                "s_%d" % (j + 1) + ("^%d" % p if p > 1 else "")
                for j, p in enumerate(e)
                if p
            ]
            if abs(a) != 1 or not factors:
                factors.insert(0, str(abs(a)))
            body = " ".join(factors)
            if not parts:
                parts.append(body if a > 0 else "-" + body)
            else:
                parts.append(("+ " if a > 0 else "- ") + body)
        return " ".join(parts)


def check_index(*indices):
    """Raise ValueError unless every index is non-negative."""
    if any(n < 0 for n in indices):
        raise ValueError("index must be non-negative")


def format_rational(q):
    """Serialize a rational as "p/q", omitting the denominator when it is 1."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def parse_rational(text):
    """Parse the "p/q" form produced by :func:`format_rational`."""
    return Fraction(text.strip().replace("−", "-"))
