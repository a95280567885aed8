"""Coefficient tables of the desingularizing finite combination.

The Laurent polynomial G((u_j), (v_j)) = prod_j (1 - (u_j v_j + ... + u_r v_r)
(v_j^{-1} - v_{j-1}^{-1})) (with the v_0^{-1} term absent from the first
factor) expands into integer coefficients a_{l,m}; the combination
sum a_{l,m} prod_j (s_j)_{l_j} zeta_r((s_j + m_j); (1); (gamma_j)) is entire.
G is multiplied out as an SPoly (the package's one exact polynomial type,
defined in deszeta.exact) in the 2r variables u_1..u_r, v_1..v_r, its
Laurent v-exponents being negative exponents.  The subset-sum construction
of the same table over exact.linear_form_product is kept as an independent
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


def expand_G(r):
    """Coefficient table of the product form of the generator polynomial."""
    if r < 1:
        raise ValueError("r must be positive")
    poly = SPoly.constant(2 * r, 1)
    for j in range(r):
        factor = SPoly.constant(2 * r, 1)
        for k in range(j, r):
            # -(u_k v_k) v_j^{-1}
            factor = factor - _uv_monomial(r, k, j)
            if j > 0:
                # +(u_k v_k) v_{j-1}^{-1}
                factor = factor + _uv_monomial(r, k, j - 1)
        poly = poly * factor
    # pop each product term while splitting its key into (l, m), so that the
    # product's keys are freed as the table's are built
    terms = poly.terms

    def drain():
        while terms:
            e, a = terms.popitem()
            yield a, e[:r], e[r:]

    return CoeffTable(r, drain())


def _uv_monomial(r, k, j):
    """u_k v_k v_j^{-1} as an SPoly in u_1..u_r, v_1..v_r."""
    e = [0] * (2 * r)
    e[k] = 1
    e[r + k] += 1
    e[r + j] -= 1
    return SPoly(2 * r, {tuple(e): 1})


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
        # into one polynomial coefficient per shift, in shift order
        out = {}
        for a, l, m in table.terms:
            poly = SPoly.pochhammer_product(self.r, l) * a
            out[m] = out.get(m, SPoly(self.r)) + poly
        self._groups = {m: out[m] for m in sorted(out) if out[m]}
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
