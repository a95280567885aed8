"""Coefficient tables of the desingularizing finite combination.

The Laurent polynomial G((u_j), (v_j)) = prod_j (1 - (u_j v_j + ... + u_r v_r)
(v_j^{-1} - v_{j-1}^{-1})) (with the v_0^{-1} term absent from the first
factor) expands into integer coefficients a_{l,m}; the combination
sum a_{l,m} prod_j (s_j)_{l_j} zeta_r((s_j + m_j); (1); (gamma_j)) is entire.
G is multiplied out over packed monomials: u^l v^m is one integer whose
balanced base-(2r+1) digits are its 2r exponents, m_1 most significant and
l_r least, so a product of monomials is one integer addition and integer
order is the table's (m, l) order.  The subset-sum construction of the same
table over exact.linear_form_product (tuple keys) is kept as an independent
cross-check of the product form.

ShiftedCombination.terms is the single evaluator of the combination: both
ShiftedCombination.evaluate and the numeric desing2 sum over it.
"""

import functools
from itertools import chain, combinations

from .exact import SPoly, linear_form_product

__all__ = [
    "CoeffTable",
    "ShiftedCombination",
    "expand_G",
    "expand_H",
    "combination",
    "weight_check",
]


class CoeffTable:
    """Sorted table of (a, l, m) monomials of the expanded combination."""

    __slots__ = ("r", "terms")

    def __init__(self, r, terms):
        # deterministic order: lexicographic in (m, l)
        self.terms = sorted(
            ((int(a), tuple(l), tuple(m)) for a, l, m in terms if a),
            key=lambda t: (t[2], t[1]),
        )
        self.r = r

    @classmethod
    def _sorted(cls, r, terms):
        """A table of terms (a, l, m) already in table order, a != 0."""
        table = object.__new__(cls)
        table.r, table.terms = r, terms
        return table

    def __eq__(self, other):
        return (
            isinstance(other, CoeffTable)
            and self.r == other.r
            and self.terms == other.terms
        )

    def __len__(self):
        return len(self.terms)

    def to_json(self):
        return {
            "r": self.r,
            "terms": [
                {"a": a, "l": list(l), "m": list(m)} for a, l, m in self.terms
            ],
        }

    def to_json_text(self):
        """The text of json.dumps(self.to_json()), written without building
        the dicts: each distinct exponent vector is formatted once."""
        vectors = {}

        def vector(e):
            text = vectors.get(e)
            if text is None:
                text = vectors[e] = "[%s]" % ", ".join(map(str, e))
            return text

        return '{"r": %d, "terms": [%s]}' % (self.r, ", ".join(
            '{"a": %d, "l": %s, "m": %s}' % (a, vector(l), vector(m))
            for a, l, m in self.terms
        ))

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
    base = 2 * r + 1
    u = [base ** (r - 1 - k) for k in range(r)]  # the digit of l_k
    v = [base ** (2 * r - 1 - k) for k in range(r)]  # the digit of m_k
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
    # integer order is (m, l) order; each distinct half is decoded once
    half = base ** r
    offset = half // 2
    digits = _Digits(base, r)
    terms = []
    for e in sorted(poly):
        m, l = divmod(e + offset, half)
        terms.append((poly[e], digits[l - offset], digits[m]))
    return CoeffTable._sorted(r, terms)


class _Digits(dict):
    """{x: the n balanced base-`base` digits of x, most significant first},
    each decoded on first use, so equal exponent vectors share one tuple."""

    def __init__(self, base, n):
        super().__init__()
        self.base, self.n = base, n

    def __missing__(self, x):
        key, base, top = x, self.base, self.base // 2
        digits = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            x, d = divmod(x + top, base)
            digits[i] = d - top
        value = self[key] = tuple(digits)
        return value


def _subsets(items):
    return chain.from_iterable(combinations(items, n) for n in range(len(items) + 1))


def expand_H(r):
    """Subset-sum construction of the same coefficient table, built from the
    signed sums over J and K with the linear-form expansions of
    exact.linear_form_product; exists to cross-check expand_G."""
    if r < 1:
        raise ValueError("r must be positive")
    terms = {}
    for J in _subsets(range(r)):
        bJ = linear_form_product(r, J)
        for K in _subsets([j for j in J if j != 0]):
            K = set(K)
            sign = (-1) ** (len(J) - len(K))
            for l, b in bJ.items():
                m = list(l)
                for j in J:
                    if j not in K:
                        m[j] -= 1
                for j in K:
                    m[j - 1] -= 1
                key = (l, tuple(m))
                terms[key] = terms.get(key, 0) + sign * b
    return CoeffTable(r, [(a, l, m) for (l, m), a in terms.items()])


def weight_check(table):
    """True iff every term of the table has v-exponents summing to zero."""
    return all(sum(m) == 0 for _, _, m in table.terms)


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
        self._last = (None, None)  # (n, [(m, coefficient re-expanded about n)])

    def groups(self):
        """Map shift vector m -> polynomial coefficient in (s_j), in shift
        order; a copy, so callers cannot change the combination."""
        return dict(self._groups)

    def terms(self, s):
        """Yield (coefficient at s, shifted argument) for each shift, in
        shift order.

        Each coefficient is re-expanded exactly about the nearest integer
        point n and evaluated at s - n (exact in floating point): expanded
        about 0, its monomials cancel near the integer points where the
        shifted terms are singular.  ValueError unless s has r coordinates.
        """
        n = tuple(round(complex(sj).real) for sj in s)
        offset = [sj - nj for sj, nj in zip(s, n)]
        for m, poly in self._expanded_about(n):
            c = complex(poly.evaluate(offset))
            yield c, tuple(sj + mj for sj, mj in zip(s, m))

    def _expanded_about(self, n):
        """The grouped coefficients re-expanded exactly about the integer
        point n, in shift order.  The last one is kept, so the nodes of the
        circle desing2 averages over around one point share it."""
        last_n, expanded = self._last
        if last_n != n:
            about_n = [SPoly.variable(len(n), j) + nj for j, nj in enumerate(n)]
            expanded = [(m, poly.evaluate(about_n)) for m, poly in self._groups.items()]
            self._last = (n, expanded)
        return expanded

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
