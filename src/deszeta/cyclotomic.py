"""Exact arithmetic in cyclotomic fields Q(zeta_c) and twisted Bernoulli numbers.

Elements are integer numerators over one denominator in the power basis
1, zeta, ..., zeta^(phi(c)-1), reduced here alone (x^c = 1, then the monic
integer Phi_c, without division), so equality is structural; long lists
multiply as one big-integer product of their packed (Kronecker) forms.
Inverses come from the Galois norm, 1/(1 - xi) for a root xi in closed form.
All c-th roots of unity (primitive or not) live inside the single field
Q(zeta_c), which is what the root-of-unity summation identities need.  The
twisted Bernoulli numbers of a root are kept as one row per (root, order),
which the table builders read whole (twisted_bernoulli_row);
twisted_bernoulli reads one index, as root_sum_twisted does.
"""

import math
import threading
from fractions import Fraction

from .exact import SPoly, binomial, check_index, format_rational, parse_rational

__all__ = [
    "RootOfUnity",
    "CycloElement",
    "OrderMismatchError",
    "TrivialRootError",
    "cyclotomic_polynomial",
    "twisted_bernoulli",
    "twisted_bernoulli_row",
    "frobenius_euler",
    "negative_polylog",
    "root_sum_twisted",
]


class OrderMismatchError(ValueError):
    """Raised when combining elements of different cyclotomic fields."""


class TrivialRootError(ValueError):
    """Raised when an operation requires a root of unity different from 1."""


_PHI_LOCK = threading.Lock()
_PHI_CACHE = {}  # c -> (Phi_c as a dense int list, its nonzero lower terms (j, a_j))


def cyclotomic_polynomial(c):
    """Monic c-th cyclotomic polynomial as a dense list of ints.

    Built as the Moebius product of the x^d - 1 over the divisors d of c,
    each factor one pass over the list; results are cached.
    """
    if c < 1:
        raise ValueError("order must be positive")
    with _PHI_LOCK:
        return list(_cyclotomic_locked(c)[0])


def _cyclotomic_locked(c):
    """Phi_c = prod_(d | c) (x^d - 1)^mu(c/d); the products first, so each division is exact."""
    if c not in _PHI_CACHE:
        primes = [p for p in range(2, c + 1) if c % p == 0 and all(p % q for q in range(2, p))]
        divisors = [(c, 1)]  # (d, mu(c/d)) for every squarefree c/d
        for p in primes:
            divisors += [(d // p, -mu) for d, mu in divisors]
        num = [1]
        for d, mu in sorted(divisors, key=lambda x: -x[1]):
            if mu > 0:  # times x^d - 1
                num = [b - a for a, b in zip(num + [0] * d, [0] * d + num)]
            else:  # divided by x^d - 1: q_k = q_(k-d) - num_k from the bottom
                q = [-a for a in num[:len(num) - d]]
                for k in range(d, len(q)):
                    q[k] += q[k - d]
                assert num[len(q):] == ([0] * d + q)[len(q):], "cyclotomic division must be exact"
                num = q
        _PHI_CACHE[c] = (num, tuple((j, a) for j, a in enumerate(num[:-1]) if a))
    return _PHI_CACHE[c]


def _reduce(c, num):
    """Integer list ``num`` mod Phi_c, as phi(c) ints (``num`` itself if it
    has phi(c)): x^c = 1 adds each entry i >= c onto entry i mod c, and the
    at most c - phi(c) top terms left are divided by the monic Phi_c, each
    folded down by x^deg = -sum a_j x^j (deg = phi(c))."""
    if c not in _PHI_CACHE:
        cyclotomic_polynomial(c)  # fills the cache
    phi, low = _PHI_CACHE[c]
    deg = len(phi) - 1
    if len(num) == deg:
        return num
    out = num[:c]
    for i in range(c, len(num)):
        out[i % c] += num[i]
    for i in range(len(out) - 1, deg - 1, -1):
        top = out[i]
        if top:
            for j, a in low:
                out[i - deg + j] -= top * a
    return out[:deg] + [0] * (deg - len(out))


# measured crossovers: lists this long multiply faster as one packed
# (Kronecker) product, and this many slots pack and unpack faster as bytes
_PACKED_PRODUCT_FROM = 12
_BYTES_FROM = 64


def _product(c, x, y):
    """Integer numerators x * y reduced mod Phi_c: schoolbook for short
    lists, and for long ones one big-integer product of the packed lists in
    slots wide enough for every input and every coefficient of the product
    (a zero list bounds the product by 0, not its other factor)."""
    if min(len(x), len(y)) < _PACKED_PRODUCT_FROM:
        prod = [0] * (len(x) + len(y) - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y, i):
                    prod[j] += a * b
    else:
        top_x, top_y = max(map(abs, x)), max(map(abs, y))
        bound = max(top_x * top_y * min(len(x), len(y)), top_x, top_y)
        width = bound.bit_length() // 8 * 8 + 8
        prod = _unpack(_pack(x, width) * _pack(y, width), width, len(x) + len(y) - 1)
    return _reduce(c, prod)


def _pack(num, width):
    """The integers ``num`` as one integer, entry i in the signed slot of
    ``width`` bits (a multiple of 8) at bit width * i; a product of two
    packed integers is the packed convolution of their lists while no slot
    overflows.  Linear time from _BYTES_FROM slots on."""
    if len(num) < _BYTES_FROM:
        return sum(a << (width * i) for i, a in enumerate(num))
    size, half = width // 8, 1 << (width - 1)
    data = b"".join([(a + half).to_bytes(size, "little") for a in num])
    return int.from_bytes(data, "little") - _bias(width, len(num))


def _unpack(x, width, slots):
    """The ``slots`` signed slot values of a packed integer (_pack).  Linear
    time from _BYTES_FROM slots on; below, each slot is shifted off."""
    half = 1 << (width - 1)
    if slots < _BYTES_FROM:
        mask, out = (1 << width) - 1, []
        for _ in range(slots):
            low = x & mask
            if low >= half:
                low -= 1 << width
            out.append(low)
            x = (x - low) >> width
        return out
    size = width // 8
    data = (x + _bias(width, slots)).to_bytes(size * slots, "little")
    return [int.from_bytes(data[i:i + size], "little") - half
            for i in range(0, size * slots, size)]


def _bias(width, slots):
    """2^(width - 1) in each of ``slots`` slots: added to a packed integer,
    it makes every slot value non-negative."""
    return int.from_bytes((1 << (width - 1)).to_bytes(width // 8, "little") * slots, "little")


class RootOfUnity:
    """The root of unity zeta_c^a = exp(2 pi i a / c), with 0 <= a < c;
    immutable and hashable."""

    __slots__ = ("c", "a")

    def __init__(self, c, a):
        if c < 2:
            raise ValueError("order must be at least 2")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a % c)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return RootOfUnity, (self.c, self.a)

    def __repr__(self):
        return "RootOfUnity(c=%r, a=%r)" % (self.c, self.a)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.c, self.a) == (other.c, other.a)

    def __hash__(self):
        return hash((self.c, self.a))

    @property
    def nontrivial(self):
        return self.a != 0

    def inverse(self):
        return RootOfUnity(self.c, -self.a)

    def _exponent_in(self, order):
        """The b with zeta_c^a = zeta_order^b; OrderMismatchError unless c
        divides order."""
        if order % self.c:
            raise OrderMismatchError("cannot embed order %d root in Q(zeta_%d)" % (self.c, order))
        return self.a * (order // self.c)

    def embed(self, order=None):
        """This root as a CycloElement of Q(zeta_order) (default: own order)."""
        order = order or self.c
        return CycloElement.root_power(order, self._exponent_in(order))


class CycloElement:
    """Element of Q(zeta_c): integer numerators ``num`` of the power basis
    over one denominator ``den``, in canonical form (den > 0, gcd 1)."""

    __slots__ = ("c", "num", "den")

    def __init__(self, c, coeffs):
        coeffs = [Fraction(x) for x in coeffs]
        den = math.lcm(*(a.denominator for a in coeffs))
        self._set(c, [a.numerator * (den // a.denominator) for a in coeffs], den)

    def _set(self, c, num, den):
        """Store num/den (den > 0) reduced mod Phi_c and divided by the gcd."""
        num = _reduce(c, num)
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
        return cls._make(c, [0] * (a % c) + [1], 1)

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
        return CycloElement._make(self.c, _product(self.c, self.num, other.num),
                                  self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse: the product of the other Galois conjugates
        (zeta -> zeta^k, k a unit mod c) over the rational norm."""
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta_%d)" % self.c)
        c, rest = self.c, [1]
        terms = [(j, a) for j, a in enumerate(self.num) if a]
        for k in range(2, c):
            if math.gcd(k, c) == 1:
                conj = [0] * c
                for j, a in terms:
                    conj[j * k % c] += a
                rest = _product(c, rest, _reduce(c, conj))
        norm = _product(c, self.num, rest)[0]  # rational, so only the constant term
        sign = 1 if norm > 0 else -1
        return CycloElement._make(c, [sign * self.den * a for a in rest], sign * norm)

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


def _inverse_one_minus(xi, order=None):
    """1/(1 - xi) in Q(zeta_order) (default: xi's own order) for a nontrivial
    root xi: -(1/m) sum_{k<m} k xi^k, valid whenever xi^m = 1 (here m = xi.c).
    OrderMismatchError unless xi.c divides order."""
    order = order or xi.c
    step = xi._exponent_in(order)
    num = [0] * order
    for k in range(1, xi.c):
        num[k * step % order] -= k
    return CycloElement._make(order, num, xi.c)


_TB_LOCK = threading.Lock()
_TB_CACHE = {}  # (xi.c, xi.a, order) -> the row [B_0(xi), B_1(xi), ...], grown on demand


def twisted_bernoulli(n, xi, order=None):
    """Twisted Bernoulli number of 1/(1 - xi e^t) for a nontrivial root xi.

    Computed inside Q(zeta_order) (default: the root's own order) by the
    recurrence obtained from (1 - xi e^t) * H(t; xi) = 1, and kept in the
    root's row (twisted_bernoulli_row).
    """
    _require_nontrivial(xi)
    check_index(n)
    order = order or xi.c
    key = (xi.c, xi.a, order)
    with _TB_LOCK:
        table = _TB_CACHE.get(key)
        if table is None:
            table = _TB_CACHE[key] = [_inverse_one_minus(xi, order)]
        if len(table) <= n:
            ratio = xi.embed(order) * table[0]  # z / (1 - z)
            while len(table) <= n:
                # sum_k C(m, k) table[k] as integer numerators over one lcm
                m, den = len(table), math.lcm(*(b.den for b in table))
                acc = [0] * len(ratio.num)
                for k, b in enumerate(table):
                    f = binomial(m, k) * (den // b.den)
                    acc = [x + f * y for x, y in zip(acc, b.num)]
                table.append(ratio * CycloElement._make(order, acc, den))
        return table[n]


def twisted_bernoulli_row(xi, top, order=None):
    """[B_0(xi), ..., B_top(xi)] of twisted_bernoulli, copied from the
    cached row, which is read without the lock once it is long enough."""
    row = _TB_CACHE.get((xi.c, xi.a, order or xi.c))
    if row is None or not 0 <= top < len(row):
        twisted_bernoulli(top, xi, order)  # validates, and grows the row
        row = _TB_CACHE[(xi.c, xi.a, order or xi.c)]
    return row[:top + 1]


def frobenius_euler(n, lam):
    """Frobenius-Euler number H_n(lambda) of (1 - lambda)/(e^t - lambda)."""
    if isinstance(lam, RootOfUnity):
        _require_nontrivial(lam)
        inv = -_inverse_one_minus(lam)  # 1/(lam - 1)
        lam = lam.embed()
    elif lam == 1:
        raise ValueError("Frobenius-Euler numbers require lambda != 1")
    else:
        inv = Fraction(1) / (lam - 1)
    check_index(n)
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
    return num.evaluate((xi.embed(),)) * _inverse_one_minus(xi) ** (k + 1)


def root_sum_twisted(n, c):
    """Sum of twisted Bernoulli numbers over all nontrivial c-th roots.

    The numerators are added over one lcm and normalized once.  The result
    is provably rational; a non-rational outcome signals an arithmetic bug
    and raises.
    """
    if c < 2:
        raise ValueError("order must be at least 2")
    check_index(n)
    values = [twisted_bernoulli(n, RootOfUnity(c, a)) for a in range(1, c)]
    den = math.lcm(*(b.den for b in values))
    total = [sum(x) for x in zip(*([a * (den // b.den) for a in b.num] for b in values))]
    if any(total[1:]):
        raise ArithmeticError("root sum failed to collapse to a rational")
    return Fraction(total[0], den)
