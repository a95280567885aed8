"""Coefficient tables of the desingularizing finite combination.

The Laurent polynomial G((u_j), (v_j)) = prod_j (1 - (u_j v_j + ... + u_r v_r)
(v_j^{-1} - v_{j-1}^{-1})) (with the v_0^{-1} term absent from the first
factor) expands into integer coefficients a_{l,m}; the combination
sum a_{l,m} prod_j (s_j)_{l_j} zeta_r((s_j + m_j); (1); (gamma_j)) is entire.
G is multiplied out over packed monomials: u^l v^m is one integer whose
balanced base-(2r+1) digits are its 2r exponents, m_1 most significant and
l_r least, so a product of monomials is one integer addition and integer
order is the table's (m, l) order.  CoeffTable keeps those packed monomials:
its tuple terms are decoded only when read, and to_json_text, the one JSON
writer, formats each distinct half once from shared digit-group texts.  The
subset-sum construction of the same table (expand_H), summed over the packed
monomials of exact.linear_form_product, is kept to cross-check the product.

ShiftedCombination.terms is the single evaluator of the combination: both
ShiftedCombination.evaluate and the numeric desing2 sum over it.  It reads
each coefficient about the nearest integer point n from an integer Taylor
table built once per combination, so a point costs a few integer products
and one floating-point sum, and no SPoly arithmetic.  The table's integers
at n, with the powers each monomial multiplies in, are read once per centre
n and kept for the last 256 centres (ShiftedCombination._at).
"""

import functools
from itertools import accumulate, chain, combinations, product, repeat
from operator import add, itemgetter, mul, sub

from .exact import SPoly, binomial, linear_form_product

__all__ = [
    "CoeffTable",
    "ShiftedCombination",
    "expand_G",
    "expand_H",
    "combination",
    "weight_check",
]


class CoeffTable:
    """Table of the monomials a u^l v^m of the expanded combination, a != 0,
    in (m, l) order.  It keeps them packed (see the module docstring): the
    sorted monomials and, in step, their integer coefficients.  ``terms``
    decodes them to (a, l, m) tuples on first read, and to_json_text writes
    the JSON from the packed form."""

    __slots__ = ("r", "_monomials", "_coeffs", "_terms")

    def __init__(self, r, terms):
        """The table of the terms (a, l, m), in any order; ValueError unless
        every l and m is r exponents of size at most r."""
        halves, size = _Memo(functools.partial(_packed_half, r)), (2 * r + 1) ** r
        packed = sorted(((halves[tuple(m)] * size + halves[tuple(l)], int(a))
                         for a, l, m in terms if a), key=itemgetter(0))
        self._set(r, [e for e, _ in packed], [a for _, a in packed])

    @classmethod
    def _packed(cls, r, monomials, coeffs):
        """The table of sorted packed monomials and their nonzero coefficients."""
        return object.__new__(cls)._set(r, monomials, coeffs)

    def _set(self, r, monomials, coeffs):
        self.r, self._monomials, self._coeffs, self._terms = r, monomials, coeffs, None
        return self

    @property
    def terms(self):
        """The (a, l, m) tuples, decoded on first read; equal exponent
        vectors share one tuple."""
        if self._terms is None:
            half, offset = self._halves()
            digits = _Memo(lambda x: _exponents(x, 2 * self.r + 1, self.r))
            self._terms = [(a, digits[l], digits[m]) for a, (m, l) in zip(
                self._coeffs, (divmod(e + offset, half) for e in self._monomials))]
        return self._terms

    def _halves(self):
        """(base^r, offset): divmod(e + offset, base^r) splits a packed
        monomial e into its halves m and l, each in offset form, where the
        digit d of the base stands for the exponent d - r."""
        base = 2 * self.r + 1
        return base ** self.r, base ** (2 * self.r) // 2

    def __eq__(self, other):
        return (
            isinstance(other, CoeffTable)
            and self.r == other.r
            and self._monomials == other._monomials
            and self._coeffs == other._coeffs
        )

    def __len__(self):
        return len(self._monomials)

    def to_json(self):
        return {
            "r": self.r,
            "terms": [
                {"a": a, "l": list(l), "m": list(m)} for a, l, m in self.terms
            ],
        }

    def to_json_text(self):
        """The text of json.dumps(self.to_json()), written from the packed
        monomials with no tuple table: the text of each distinct half is
        built once, from the texts of its high and low digit groups
        (_group_text), and the body is one % format."""
        (half, offset), base, n = self._halves(), 2 * self.r + 1, self.r // 2
        high, low, size = _group_text(base, self.r - n), _group_text(base, n), base ** n
        texts = _Memo(lambda x: "[%s]" % (high[x // size] + low[x % size])[:-2])
        args = []
        for a, e in zip(self._coeffs, self._monomials):
            m, l = divmod(e + offset, half)
            args += (a, texts[l], texts[m])
        body = ", ".join(['{"a": %d, "l": %s, "m": %s}'] * len(self)) % tuple(args)
        return '{"r": %d, "terms": [%s]}' % (self.r, body)

    @classmethod
    def from_json(cls, obj):
        return cls(obj["r"], [(t["a"], t["l"], t["m"]) for t in obj["terms"]])


def expand_G(r):
    """Coefficient table of the product form of the generator polynomial.

    Factors and partial products are dicts {packed monomial: integer
    coefficient} (see the module docstring).  Each factor moves an exponent
    by at most 1, so every exponent that arises has |exponent| <= r and
    fits one balanced digit of base 2r + 1."""
    if r < 1:
        raise ValueError("r must be positive")
    u, v = _units(r)
    poly = {0: 1}
    for j in range(r):
        # 1 - sum_k (u_k v_k) v_j^{-1} (+ sum_k (u_k v_k) v_{j-1}^{-1} for j > 0)
        factor = [(0, 1)]
        for k in range(j, r):
            factor.append((u[k] + v[k] - v[j], -1))
            if j > 0:
                factor.append((u[k] + v[k] - v[j - 1], 1))
        out = {}
        get = out.get
        for e1, a1 in poly.items():
            for e2, a2 in factor:
                e = e1 + e2
                out[e] = get(e, 0) + a1 * a2
        poly = {e: a for e, a in out.items() if a}
    monomials = sorted(poly)  # integer order is (m, l) order
    return CoeffTable._packed(r, monomials, [poly[e] for e in monomials])


class _Memo(dict):
    """{x: make(x)}, each value made on first use."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, x):
        value = self[x] = self.make(x)
        return value


def _packed_half(r, x):
    """The balanced base-(2r + 1) value of the r exponents x, the first most
    significant; ValueError unless each is of size at most r."""
    if len(x) != r or max(map(abs, x)) > r:
        raise ValueError("exponents must be %d integers of size at most %d" % (r, r))
    value = 0
    for d in x:
        value = value * (2 * r + 1) + d
    return value


def _exponents(x, base, n):
    """The n exponents of x in offset form, where the base-``base`` digit d
    stands for d - base // 2, most significant first."""
    top, digits = base // 2, [0] * n
    for i in range(n - 1, -1, -1):
        x, d = divmod(x, base)
        digits[i] = d - top
    return tuple(digits)


@functools.cache
def _group_text(base, n):
    """{x: the exponents of the n-digit group x in offset form as the text
    "e_1, ..., e_n, "}: one table per base and n, each text built on first
    use."""
    return _Memo(lambda x: "".join(["%d, " % d for d in _exponents(x, base, n)]))


def _subsets(items):
    return chain.from_iterable(combinations(items, n) for n in range(len(items) + 1))


def expand_H(r):
    """Subset-sum construction of the same coefficient table, built from the
    signed sums over J and K with the linear-form expansions of
    exact.linear_form_product, summed over packed monomials as expand_G's
    are; exists to cross-check expand_G."""
    if r < 1:
        raise ValueError("r must be positive")
    u, v = _units(r)
    uv = list(map(add, u, v))  # t_k raises both l_k and m_k
    terms = {}
    get = terms.get
    for J in _subsets(range(r)):
        bJ = linear_form_product(r, J, uv).items()
        for K in _subsets([j for j in J if j != 0]):
            # m_j falls by one for j in J, K moving it to m_(j-1)
            sign = (-1) ** (len(J) - len(K))
            shift = sum(v[j] for j in J) + sum(v[j - 1] - v[j] for j in K)
            for e, b in bJ:
                e -= shift
                terms[e] = get(e, 0) + sign * b
    monomials = sorted(e for e, a in terms.items() if a)
    return CoeffTable._packed(r, monomials, [terms[e] for e in monomials])


def _units(r):
    """(u, v): the packed monomials u_k and v_k, the digits of l_k and m_k."""
    base = 2 * r + 1
    return [base ** (r - 1 - k) for k in range(r)], [base ** (2 * r - 1 - k) for k in range(r)]


def weight_check(table):
    """True iff every term of the table has v-exponents summing to zero;
    each distinct shift m is decoded once, from the packed monomials."""
    half, offset = table._halves()
    shifts = {(e + offset) // half for e in table._monomials}
    return all(sum(_exponents(m, 2 * table.r + 1, table.r)) == 0 for m in shifts)


class ShiftedCombination:
    """The finite shifted-zeta combination determined by a coefficient table."""

    def __init__(self, table):
        self.table = table
        self.r = table.r
        # the Pochhammer products of all terms sharing a shift, collected
        # into one polynomial coefficient per shift, in shift order.  A
        # monomial whose sum cancels is dropped at once, as SPoly addition
        # drops it, so each group's monomials keep the order of summing the
        # terms' SPolys one by one (desing2 sums them in that order).
        poch = {}
        out = {}
        for a, l, m in table.terms:
            p = poch.get(l)
            if p is None:
                p = poch[l] = SPoly.pochhammer_product(self.r, l).terms
            acc = out.setdefault(m, {})
            for e, c in p.items():
                total = acc.get(e, 0) + a * c
                if total:
                    acc[e] = total
                else:
                    del acc[e]
        self._groups = {m: SPoly(self.r, out[m]) for m in sorted(out) if out[m]}

    @functools.cached_property
    def _taylor(self):
        """(every n^d read, [(m, [(e, a, index of d)])], {e: the indices j r +
        e_j - 1 of its powers x_j^e_j, e_j > 0}): the groups' Taylor tables,
        poly(n + x) = sum_e T_e(n) x^e with T_e(n) = sum of its a n^d, in the
        order poly.evaluate at (x_j + n_j) adds them.  Built on first use: at
        large r they cost far more than the groups."""
        exponents, tables = {}, []
        for m, poly in self._groups.items():
            terms = list(poly.terms.items())
            if len(terms) > 1 and not any(terms[0][0]):
                terms[:2] = terms[1::-1]  # evaluate adds a leading constant after the next term
            tables.append((m, [
                (e, functools.reduce(mul, map(binomial, k, e), c),
                 exponents.setdefault(tuple(map(sub, k, e)), len(exponents)))
                for k, c in terms for e in product(*[range(kj, -1, -1) for kj in k])]))
        picks = {e: tuple(j * self.r + p - 1 for j, p in enumerate(e) if p)
                 for _, table in tables for e, _, _ in table}
        return list(exponents), tables, picks

    def groups(self):
        """Map shift vector m -> polynomial coefficient in (s_j), in shift
        order; a copy, so callers cannot change the combination."""
        return dict(self._groups)

    def terms(self, s):
        """Yield (coefficient at s, shifted argument) for each shift, in
        shift order.

        Each coefficient is expanded about the nearest integer point n, in
        integers from its Taylor table (_about, kept per centre by _at), and
        evaluated at s - n (exact in floating point): expanded about 0, its
        monomials cancel near the integer points where the shifted terms are
        singular.  ValueError unless s has r coordinates.
        """
        if len(s) != self.r:
            raise ValueError("point needs %d coordinates, got %d" % (self.r, len(s)))
        n = tuple(round(complex(sj).real) for sj in s)
        # x_1, ..., x_1^r, x_2, ..., x_r^r, x_j^p = x_j^(p-1) x_j (no exponent exceeds r)
        powers = [x for sj, nj in zip(s, n) for x in accumulate(repeat(sj - nj, self.r), mul)]
        for m, values, picks in self._at(n):
            c = 0
            for a, indices in zip(values, picks):
                for i in indices:
                    a = a * powers[i]
                c = c + a
            yield complex(c), tuple(map(add, s, m))

    @functools.lru_cache(maxsize=256)
    def _at(self, n):
        """[(m, its T_e(n), their power indices)] of _about(n), for the last 256 centres n."""
        picks = self._taylor[2]
        return [(m, tuple(c.values()), tuple(map(picks.__getitem__, c))) for m, c in self._about(n)]

    def _about(self, n):
        """Yield (m, {e: T_e(n)}) per group at the integer point n, summed
        as poly.evaluate sums it: a monomial whose sum cancels is dropped, and
        appended when it comes back, so the order matches too."""
        exponents, tables, _ = self._taylor
        values = [functools.reduce(mul, map(pow, n, d), 1) for d in exponents]
        for m, table in tables:
            coefficients = {}
            for e, a, i in table:
                total = coefficients.get(e, 0) + a * values[i]
                if total:
                    coefficients[e] = total
                else:
                    coefficients.pop(e, None)
            yield m, coefficients

    def evaluate(self, s, zeta_fn):
        """Evaluate the combination at the complex point s; zeta_fn maps a
        shifted argument tuple to a zeta value."""
        total = 0
        for c, shifted in self.terms(s):
            total = total + c * zeta_fn(shifted)
        return total

    def to_tex(self):
        """Human-readable grouped form, one shifted zeta per line."""
        lines = []
        for m, poly in self._groups.items():
            args = ", ".join(
                "s_%d%s" % (j + 1, "" if mj == 0 else "%+d" % mj)
                for j, mj in enumerate(m)
            )
            lines.append(
                r"\left(%s\right)\,\zeta_%d(%s;(1);(\gamma_j))" % (poly, self.r, args)
            )
        return "\n + ".join(lines)


@functools.cache
def combination(r):
    """The desingularizing combination for depth r, built once per r."""
    return ShiftedCombination(expand_G(r))
