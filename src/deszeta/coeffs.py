"""Coefficient tables of the desingularizing finite combination.

The Laurent polynomial G((u_j), (v_j)) = prod_j (1 - (u_j v_j + ... + u_r v_r)
(v_j^{-1} - v_{j-1}^{-1})) (with the v_0^{-1} term absent from the first
factor) expands into integer coefficients a_{l,m}; the combination
sum a_{l,m} prod_j (s_j)_{l_j} zeta_r((s_j + m_j); (1); (gamma_j)) is entire.
The subset-sum construction of the same table is kept as an independent
cross-check of the product form.
"""

from itertools import chain, combinations

__all__ = [
    "UVLaurentPoly",
    "CoeffTable",
    "SPoly",
    "ShiftedCombination",
    "expand_G",
    "expand_H",
    "combination",
    "weight_check",
]


class UVLaurentPoly:
    """Finitely supported map (u-exponents, v-exponents) -> integer.

    u-exponents are non-negative; v-exponents may be any integers.
    """

    __slots__ = ("r", "terms")

    def __init__(self, r, terms=None):
        self.r = r
        self.terms = {}
        if terms:
            for key, a in terms.items():
                if a:
                    self.terms[key] = a

    @classmethod
    def constant(cls, r, a=1):
        zero = (0,) * r
        return cls(r, {(zero, zero): a})

    @classmethod
    def monomial(cls, r, l, m, a=1):
        return cls(r, {(tuple(l), tuple(m)): a})

    def __add__(self, other):
        out = dict(self.terms)
        for key, a in other.terms.items():
            s = out.get(key, 0) + a
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return UVLaurentPoly(self.r, out)

    def __neg__(self):
        return UVLaurentPoly(self.r, {k: -a for k, a in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (l1, m1), a1 in self.terms.items():
            for (l2, m2), a2 in other.terms.items():
                key = (
                    tuple(x + y for x, y in zip(l1, l2)),
                    tuple(x + y for x, y in zip(m1, m2)),
                )
                s = out.get(key, 0) + a1 * a2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return UVLaurentPoly(self.r, out)

    def __eq__(self, other):
        return isinstance(other, UVLaurentPoly) and self.terms == other.terms


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
    def from_poly(cls, poly):
        return cls(poly.r, [(a, l, m) for (l, m), a in poly.terms.items()])

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

    @classmethod
    def from_json(cls, obj):
        return cls(obj["r"], [(t["a"], t["l"], t["m"]) for t in obj["terms"]])


class SPoly:
    """Small integer-coefficient polynomial in the variables s_1..s_r."""

    __slots__ = ("r", "terms")

    def __init__(self, r, terms=None):
        self.r = r
        self.terms = {}
        if terms:
            for e, a in terms.items():
                if a:
                    self.terms[tuple(e)] = a

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
            for i in range(lj):
                out = out * (cls.variable(r, j) + cls.constant(r, i))
        return out

    def __add__(self, other):
        if isinstance(other, int):
            other = SPoly.constant(self.r, other)
        out = dict(self.terms)
        for e, a in other.terms.items():
            s = out.get(e, 0) + a
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return SPoly(self.r, out)

    __radd__ = __add__

    def __neg__(self):
        return SPoly(self.r, {e: -a for e, a in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = SPoly.constant(self.r, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return SPoly(self.r, {e: a * other for e, a in self.terms.items()})
        out = {}
        for e1, a1 in self.terms.items():
            for e2, a2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e, 0) + a1 * a2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return SPoly(self.r, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, SPoly) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def evaluate(self, point):
        """Value at the point; its coordinates may be numbers or SPolys, so
        evaluating at (s_j + n_j) re-expands the polynomial about n."""
        out = 0
        for e, a in self.terms.items():
            term = a
            for x, p in zip(point, e):
                for _ in range(p):
                    term = term * x
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


def expand_G(r):
    """Coefficient table of the product form of the generator polynomial."""
    if r < 1:
        raise ValueError("r must be positive")
    poly = UVLaurentPoly.constant(r)
    for j in range(r):
        factor = UVLaurentPoly.constant(r)
        for k in range(j, r):
            ek = [0] * r
            ek[k] = 1
            # -(u_k v_k) v_j^{-1}
            m = list(ek)
            m[j] -= 1
            factor = factor - UVLaurentPoly.monomial(r, ek, m)
            if j > 0:
                # +(u_k v_k) v_{j-1}^{-1}
                m2 = list(ek)
                m2[j - 1] -= 1
                factor = factor + UVLaurentPoly.monomial(r, ek, m2)
        poly = poly * factor
    return CoeffTable.from_poly(poly)


def _subsets(items):
    return chain.from_iterable(combinations(items, n) for n in range(len(items) + 1))


def _linear_form_product(r, J):
    """Expansion of prod_{j in J} (t_j + ... + t_r): map exponent -> integer."""
    out = {(0,) * r: 1}
    for j in J:
        nxt = {}
        for e, b in out.items():
            for k in range(j, r):
                e2 = list(e)
                e2[k] += 1
                key = tuple(e2)
                nxt[key] = nxt.get(key, 0) + b
        out = nxt
    return out


def expand_H(r):
    """Subset-sum construction of the same coefficient table, built from the
    signed sums over J and K with the linear-form expansions; exists to
    cross-check expand_G."""
    if r < 1:
        raise ValueError("r must be positive")
    terms = {}
    for J in _subsets(range(r)):
        bJ = _linear_form_product(r, J)
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
    return CoeffTable.from_poly(UVLaurentPoly(r, terms))


def weight_check(table):
    """True iff every term of the table has v-exponents summing to zero."""
    return all(sum(m) == 0 for _, _, m in table.terms)


class ShiftedCombination:
    """The finite shifted-zeta combination determined by a coefficient table."""

    def __init__(self, table):
        self.table = table
        self.r = table.r

    def groups(self):
        """Map shift vector m -> polynomial coefficient in (s_j), obtained by
        collecting the Pochhammer products of all terms sharing the shift."""
        out = {}
        for a, l, m in self.table.terms:
            poly = SPoly.pochhammer_product(self.r, l) * a
            out[m] = out.get(m, SPoly(self.r)) + poly
        return {m: p for m, p in out.items() if p}

    def evaluate(self, s, zeta_fn):
        """Evaluate the combination at the complex point s; zeta_fn maps a
        shifted argument tuple to a zeta value."""
        total = 0
        for m, poly in sorted(self.groups().items()):
            shifted = tuple(sj + mj for sj, mj in zip(s, m))
            total = total + complex(poly.evaluate(s)) * zeta_fn(shifted)
        return total

    def to_tex(self):
        """Human-readable grouped form, one shifted zeta per line."""
        lines = []
        for m, poly in sorted(self.groups().items()):
            args = ", ".join(
                "s_%d%s" % (j + 1, "" if mj == 0 else "%+d" % mj)
                for j, mj in enumerate(m)
            )
            lines.append(
                r"\left(%s\right)\,\zeta_%d(%s;(1);(\gamma_j))" % (poly, self.r, args)
            )
        return "\n + ".join(lines)


def combination(r):
    """The desingularizing combination for depth r."""
    return ShiftedCombination(expand_G(r))
