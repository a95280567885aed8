"""Exact arithmetic in cyclotomic fields Q(zeta_c) and twisted Bernoulli numbers.

Elements are represented in the power basis 1, zeta, ..., zeta^(phi(c)-1)
as integer numerators over one denominator, reduced (without division) by
the monic c-th cyclotomic polynomial, so equality is structural.  All c-th
roots of unity (primitive or not) live inside the single field Q(zeta_c),
which is what the root-of-unity summation identities need.
"""

import cmath
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .exact import SPoly, binomial, check_index, format_rational, parse_rational

__all__ = [
    "RootOfUnity",
    "CycloElement",
    "OrderMismatchError",
    "TrivialRootError",
    "cyclotomic_polynomial",
    "twisted_bernoulli",
    "frobenius_euler",
    "negative_polylog",
    "root_sum_twisted",
]


class OrderMismatchError(ValueError):
    """Raised when combining elements of different cyclotomic fields."""


class TrivialRootError(ValueError):
    """Raised when an operation requires a root of unity different from 1."""


def _poly_trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_divmod(num, den):
    """Exact division with remainder of rational polynomials (dense lists)."""
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    inv_lead = Fraction(1) / den[-1]
    for i in range(len(num) - len(den), -1, -1):
        factor = num[i + len(den) - 1] * inv_lead
        q[i] = factor
        if factor:
            for j, d in enumerate(den):
                num[i + j] -= factor * d
    return q, _poly_trim(num)


_PHI_LOCK = threading.Lock()
_PHI_CACHE = {}


def cyclotomic_polynomial(c):
    """Monic c-th cyclotomic polynomial as a dense list of Fractions.

    Computed by exact division of x^c - 1 by the cyclotomic polynomials of
    the proper divisors of c; results are cached.
    """
    if c < 1:
        raise ValueError("order must be positive")
    with _PHI_LOCK:
        return _cyclotomic_locked(c)


def _cyclotomic_locked(c):
    if c in _PHI_CACHE:
        return _PHI_CACHE[c]
    num = [Fraction(-1)] + [Fraction(0)] * (c - 1) + [Fraction(1)]  # x^c - 1
    for d in range(1, c):
        if c % d == 0:
            num, rem = _poly_divmod(num, _cyclotomic_locked(d))
            assert not rem, "cyclotomic division must be exact"
    _PHI_CACHE[c] = num
    return num


_MODULUS = {}  # c -> (phi(c), nonzero (j, a_j) of Phi_c = x^phi(c) + sum a_j x^j)


def _modulus(c):
    if c not in _MODULUS:
        phi = cyclotomic_polynomial(c)
        _MODULUS[c] = (len(phi) - 1, tuple((j, int(a)) for j, a in enumerate(phi[:-1]) if a))
    return _MODULUS[c]


def _reduce(c, num):
    """Integer list ``num`` (overwritten) mod the monic Phi_c, as phi(c) ints;
    x^phi(c) = -sum a_j x^j folds each top term down without division."""
    deg, low = _modulus(c)
    for i in range(len(num) - 1, deg - 1, -1):
        top = num[i]
        if top:
            for j, a in low:
                num[i - deg + j] -= top * a
    return num[:deg] + [0] * (deg - len(num))


@dataclass(frozen=True)
class RootOfUnity:
    """The root of unity zeta_c^a = exp(2 pi i a / c), with 0 <= a < c."""

    c: int
    a: int

    def __post_init__(self):
        if self.c < 2:
            raise ValueError("order must be at least 2")
        object.__setattr__(self, "a", self.a % self.c)

    @property
    def nontrivial(self):
        return self.a != 0

    def inverse(self):
        return RootOfUnity(self.c, -self.a)

    def embed(self, order=None):
        """This root as a CycloElement of Q(zeta_order) (default: own order)."""
        order = order or self.c
        if order % self.c:
            raise OrderMismatchError("cannot embed order %d root in Q(zeta_%d)" % (self.c, order))
        return CycloElement.root_power(order, self.a * (order // self.c))

    def __complex__(self):
        return cmath.exp(2j * cmath.pi * self.a / self.c)


class CycloElement:
    """Element of Q(zeta_c): integer numerators ``num`` of the power basis
    over one denominator ``den``, in canonical form (den > 0, gcd 1)."""

    __slots__ = ("c", "num", "den")

    def __init__(self, c, coeffs):
        coeffs = [Fraction(x) for x in coeffs]
        den = math.lcm(*(a.denominator for a in coeffs))
        self._set(c, _reduce(c, [a.numerator * (den // a.denominator) for a in coeffs]), den)

    def _set(self, c, num, den):
        """Store num/den (den > 0, num reduced mod Phi_c) divided by the gcd."""
        g = math.gcd(den, *num)
        self.c, self.den = c, den // g
        self.num = tuple(num) if g == 1 else tuple([a // g for a in num])
        return self

    @classmethod
    def _make(cls, c, num, den):
        return object.__new__(cls)._set(c, num, den)

    def _scale(self, q):
        """This element times the int or Fraction q."""
        return CycloElement._make(self.c, [a * q.numerator for a in self.num],
                                  self.den * q.denominator)

    @property
    def coeffs(self):
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.num)

    @classmethod
    def root_power(cls, c, a):
        """zeta_c^a as a field element."""
        a %= c
        return cls(c, [0] * a + [1])

    @classmethod
    def from_rational(cls, c, q):
        return cls(c, [q])

    def _coerce(self, other):
        if isinstance(other, CycloElement):
            if other.c != self.c:
                raise OrderMismatchError(
                    "mixed cyclotomic orders %d and %d" % (self.c, other.c)
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycloElement.from_rational(self.c, other)
        return NotImplemented

    def _combine(self, other, sign):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f1, f2 = (1, sign) if self.den == other.den else (other.den, sign * self.den)
        num = [a * f1 + b * f2 for a, b in zip(self.num, other.num)]
        return CycloElement._make(self.c, num, self.den * f1)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return CycloElement._make(self.c, [-a for a in self.num], self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prod = [0] * (2 * len(self.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num, i):
                    prod[j] += a * b
        return CycloElement._make(self.c, _reduce(self.c, prod), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta_%d)" % self.c)
        phi = list(cyclotomic_polynomial(self.c))
        r0, r1 = phi, _poly_trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            s_new = list(s0)
            s_new += [Fraction(0)] * (len(q) + len(s1) - 1 - len(s_new))
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        s_new[i + j] -= qi * sj
            r0, r1 = r1, r
            s0, s1 = s1, _poly_trim(s_new)
        # r1 is a nonzero constant: gcd with the irreducible modulus
        inv_const = Fraction(1) / r1[0]
        return CycloElement(self.c, [x * inv_const for x in s1])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(1 / Fraction(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = CycloElement.from_rational(self.c, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElement.from_rational(self.c, other)
        if not isinstance(other, CycloElement):
            return NotImplemented
        return self.c == other.c and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.c, self.num, self.den))

    def __bool__(self):
        return any(self.num)

    @property
    def is_rational(self):
        return not any(self.num[1:])

    def as_rational(self):
        if not self.is_rational:
            raise ValueError("element is not rational: %r" % self)
        return Fraction(self.num[0], self.den)

    def __complex__(self):
        z = cmath.exp(2j * cmath.pi / self.c)
        out = 0j
        for a in reversed(self.coeffs):
            out = out * z + complex(a)
        return out

    def to_json(self):
        return {"c": self.c, "coeffs": [format_rational(a) for a in self.coeffs]}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["c"], [parse_rational(t) for t in obj["coeffs"]])

    def __repr__(self):
        return "CycloElement(c=%d, %s)" % (
            self.c,
            "[" + ", ".join(format_rational(a) for a in self.coeffs) + "]",
        )


def _require_nontrivial(xi):
    if not xi.nontrivial:
        raise TrivialRootError("root of unity must differ from 1")


_TB_LOCK = threading.Lock()
_TB_CACHE = {}


def twisted_bernoulli(n, xi, order=None):
    """Twisted Bernoulli number of 1/(1 - xi e^t) for a nontrivial root xi.

    Computed inside Q(zeta_order) (default: the root's own order) by the
    recurrence obtained from (1 - xi e^t) * H(t; xi) = 1.
    """
    _require_nontrivial(xi)
    check_index(n)
    order = order or xi.c
    key = (xi.c, xi.a, order)
    with _TB_LOCK:
        table = _TB_CACHE.get(key)
        if table is None:
            table = _TB_CACHE[key] = [(1 - xi.embed(order)).inverse()]
        if len(table) <= n:
            ratio = xi.embed(order) * table[0]  # z / (1 - z)
            while len(table) <= n:
                m = len(table)
                acc = sum(table[k] * binomial(m, k) for k in range(m))
                table.append(ratio * acc)
        return table[n]


def frobenius_euler(n, lam):
    """Frobenius-Euler number H_n(lambda) of (1 - lambda)/(e^t - lambda)."""
    if isinstance(lam, RootOfUnity):
        _require_nontrivial(lam)
        lam = lam.embed()
    if lam == 1:
        raise ValueError("Frobenius-Euler numbers require lambda != 1")
    check_index(n)
    inv = (lam - 1).inverse() if isinstance(lam, CycloElement) else Fraction(1) / (lam - 1)
    table = [lam * 0 + 1]  # H_0 = 1 in the right ring
    for m in range(1, n + 1):
        acc = sum(table[k] * binomial(m, k) for k in range(m))
        table.append(acc * inv)
    return table[n]


def negative_polylog(k, xi):
    """Li_{-k}(xi) computed exactly as (z d/dz)^k of z/(1-z) evaluated at xi.

    Serves as an oracle independent of the twisted Bernoulli recurrence.
    """
    _require_nontrivial(xi)
    check_index(k)
    # maintain N(z) with Li = N(z) / (1-z)^(k+1)
    z = num = SPoly.variable(1, 0)
    for step in range(1, k + 1):
        # z d/dz [N/(1-z)^step] = (z N' (1-z) + step z N) / (1-z)^(step+1)
        z_deriv = SPoly(1, {e: e[0] * a for e, a in num.terms.items()})  # z N'
        num = z_deriv - z_deriv * z + z * num * step
    root = xi.embed()
    return num.evaluate((root,)) * ((1 - root).inverse() ** (k + 1))


def root_sum_twisted(n, c):
    """Sum of twisted Bernoulli numbers over all nontrivial c-th roots.

    The result is provably rational; a non-rational outcome signals an
    arithmetic bug and raises.
    """
    if c < 2:
        raise ValueError("order must be at least 2")
    total = CycloElement.from_rational(c, 0)
    for a in range(1, c):
        total = total + twisted_bernoulli(n, RootOfUnity(c, a))
    if not total.is_rational:
        raise ArithmeticError("root sum failed to collapse to a rational")
    return total.as_rational()
