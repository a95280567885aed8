"""Independent reference values for the numeric workloads.

Nothing here imports the package under test.  Two references:

* ``grid_value`` -- the exact desingularized double zeta at (-k, -l) with
  rational weights, from the Bernoulli closed form
  (-1)^{k+l} sum_nu C(l,nu) B_{k+nu+1} B_{l-nu+1} g1^{k+nu} g2^{l-nu},
  computed in ``fractions``.
* ``desing2_mp`` -- the three-term combination of weighted double zetas
  evaluated with mpmath at 30+ digits.  Each double zeta
  sum_{m,n>=1} (m g1)^{-s1} (m g1 + n g2)^{-s2} is split into a Hurwitz
  head m <= M and a tail: the inner Hurwitz zeta is replaced by its
  Euler-Maclaurin expansion in x = 1 + beta m (beta = g1/g2), and m^{-s1}
  is expanded binomially around y = m + 1/beta, so every tail piece is a
  single Hurwitz value zeta(u, M + 1 + 1/beta).  The truncation of both
  expansions is estimated and checked, because an asymptotic expansion
  that is cut too late loses digits silently.
"""

import math
from fractions import Fraction

import mpmath

HEAD_M = (40, 80, 160)  # Hurwitz head lengths tried in turn; the tails expand in 1/(M+1)
EM_ORDER = 12  # least Euler-Maclaurin correction order of the inner expansion
BINOM_TERMS = 40  # binomial terms in the outer re-expansion
BASE_DPS = 30
TRUNC_LIMIT = 1e-15  # largest accepted truncation estimate, relative to max(1, |value|)

# desing2 = sum_i coeff_i(s1, s2) * zeta_2(s1 + m1_i, s2 + m2_i)
DESING2_TERMS = (
    (lambda s1, s2: (s1 - 1) * (s2 - 1), (0, 0)),
    (lambda s1, s2: s2 * (s2 + 1 - s1), (-1, 1)),
    (lambda s1, s2: -s2 * (s2 + 1), (-2, 2)),
)


class TruncationError(ArithmeticError):
    """The reference evaluator could not certify its own truncation."""


_BERN = [Fraction(1)]


def bernoulli(n):
    """B_n with B_1 = -1/2, from sum_{k<=m} C(m+1, k) B_k = 0."""
    while len(_BERN) <= n:
        m = len(_BERN)
        _BERN.append(-sum(math.comb(m + 1, k) * _BERN[k] for k in range(m)) / (m + 1))
    return _BERN[n]


def grid_value(k, l, g1, g2):
    """Exact desingularized double zeta at (-k, -l) with weights (g1, g2)."""
    g1, g2 = Fraction(g1), Fraction(g2)
    total = sum(
        math.comb(l, nu) * bernoulli(k + nu + 1) * bernoulli(l - nu + 1)
        * g1 ** (k + nu) * g2 ** (l - nu)
        for nu in range(l + 1)
    )
    return (-1) ** (k + l) * total


def _hurwitz_abs(u, a, scale):
    """scale * zeta(u, a), to an absolute error near 10^-dps.

    mpmath's Hurwitz zeta is accurate to an absolute (not relative) error
    of about 10^-dps, so the working precision grows with |scale|.
    """
    extra = max(0, int(mpmath.log10(abs(scale))) + 1) if scale else 0
    with mpmath.extradps(extra):
        return scale * mpmath.zeta(u, a)


def _double_zeta_mp(s1, s2, g1, g2, M):
    """Weighted double zeta at one point with a head of length M; returns
    (value, truncation estimate)."""
    beta = g1 / g2
    head = mpmath.mpf(0)
    for m in range(1, M + 1):
        head += _hurwitz_abs(s2, 1 + beta * m, (m * g1) ** (-s1))
    head *= g2 ** (-s2)

    # inner expansion zeta(s2, x) ~ sum_w c_w x^{-w}, w = s2 - 1 + delta;
    # the omitted remainder is summed against m^{-s1}, so its decay must
    # beat the growth of the head when Re(s1 + s2) is far below zero
    order = max(EM_ORDER, int(math.ceil((30 - float(mpmath.re(s1 + s2))) / 2)))
    branches = [(0, 1 / (s2 - 1)), (1, mpmath.mpf(1) / 2)]
    poch = s2
    for k in range(1, order + 2):
        if k > 1:
            poch *= (s2 + 2 * k - 3) * (s2 + 2 * k - 2)
        c = mpmath.mpf(bernoulli(2 * k).numerator) / bernoulli(2 * k).denominator
        c = c / mpmath.factorial(2 * k) * poch
        branches.append((2 * k, c))
    omitted = branches.pop()  # first omitted Euler-Maclaurin term

    # outer expansion m^{-s1} = y^{-s1} sum_j C(-s1, j) (-1/(beta y))^j
    binom = [mpmath.mpf(1)]
    for j in range(1, BINOM_TERMS + 2):
        binom.append(binom[-1] * (-s1 - j + 1) / j * (-1 / beta))

    pref = g1 ** (-s1) * g2 ** (-s2)
    groups = {}
    for delta, c in branches:
        cw = pref * c * beta ** (-(s2 - 1 + delta))
        for j in range(BINOM_TERMS + 1):
            groups[delta + j] = groups.get(delta + j, 0) + cw * binom[j]

    # sum_{m > M} y^{-u} over y = m + 1/beta is zeta(u, y0); bounded by the
    # integral comparison when Re u > 1
    y0 = M + 1 + 1 / beta

    def tail_sum_bound(coeff, u):
        ur = mpmath.re(u)
        if ur <= 1:
            return mpmath.inf
        return abs(coeff) * y0 ** (1 - ur) / (ur - 1) * (1 + (ur - 1) / y0)

    base = s1 + s2 - 1
    negligible = mpmath.mpf(10) ** (-mpmath.mp.dps)
    tail = mpmath.mpf(0)
    skipped = mpmath.mpf(0)
    for p in sorted(groups):
        bound = tail_sum_bound(groups[p], base + p)
        if bound < negligible:
            skipped += bound
        else:
            tail += _hurwitz_abs(base + p, y0, groups[p])

    delta_k, c_k = omitted
    trunc = 2 * tail_sum_bound(pref * c_k * beta ** (-(s2 - 1 + delta_k)), base + delta_k)
    for delta, c in branches:
        cw = pref * c * beta ** (-(s2 - 1 + delta))
        trunc += tail_sum_bound(cw * binom[BINOM_TERMS + 1], base + delta + BINOM_TERMS + 1)
    return head + tail, trunc + skipped


def desing2_mp(s1, s2, g1=1, g2=1, extra_digits=0):
    """Reference desingularized double zeta at a point off the singular
    hyperplanes of every shifted term; returns a Python complex.

    ``extra_digits`` covers cancellation between the terms near a singular
    hyperplane; digits lost in the head/tail split are added here.
    """
    for M in HEAD_M:
        # head and tail each grow like M^{1 - Re(s1+s2)} and cancel
        loss = max(0.0, 1 - (complex(s1) + complex(s2)).real) * math.log10(M + 2)
        with mpmath.workdps(BASE_DPS + int(math.ceil(loss)) + int(extra_digits)):
            s1m, s2m = mpmath.mpmathify(complex(s1)), mpmath.mpmathify(complex(s2))
            g1m, g2m = mpmath.mpmathify(Fraction(g1)), mpmath.mpmathify(Fraction(g2))
            total = mpmath.mpf(0)
            trunc = mpmath.mpf(0)
            for coeff_fn, (m1, m2) in DESING2_TERMS:
                c = coeff_fn(s1m, s2m)
                z, err = _double_zeta_mp(s1m + m1, s2m + m2, g1m, g2m, M)
                total += c * z
                trunc += abs(c) * err
            if trunc < TRUNC_LIMIT * max(1, abs(total)):
                return complex(total)
    raise TruncationError("reference truncation %s too large at (%s, %s)"
                         % (mpmath.nstr(trunc, 3), s1, s2))


def double_zeta_nsum(s1, s2, g1=1, g2=1):
    """The weighted double sum by mpmath.nsum over m, with the inner sum over
    n as one Hurwitz value; convergent region only.

    Validates the head/tail split of ``desing2_mp``; never used in timed runs.
    """
    with mpmath.workdps(BASE_DPS):
        s1m, s2m = mpmath.mpmathify(complex(s1)), mpmath.mpmathify(complex(s2))
        g1m, g2m = mpmath.mpmathify(Fraction(g1)), mpmath.mpmathify(Fraction(g2))
        return complex(mpmath.nsum(
            lambda m: (m * g1m) ** (-s1m) * g2m ** (-s2m) * mpmath.zeta(s2m, 1 + g1m / g2m * m),
            [1, mpmath.inf],
        ))


def double_zeta_reference(s1, s2, g1=1, g2=1):
    """One weighted double zeta from the head/tail reference (validation)."""
    with mpmath.workdps(BASE_DPS):
        s1m, s2m = mpmath.mpmathify(complex(s1)), mpmath.mpmathify(complex(s2))
        g1m, g2m = mpmath.mpmathify(Fraction(g1)), mpmath.mpmathify(Fraction(g2))
        value, err = _double_zeta_mp(s1m, s2m, g1m, g2m, HEAD_M[0])
        return complex(value), float(err)
