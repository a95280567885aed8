"""Floating-point analytic machinery for the desingularized double zeta.

Continuation strategy: everything is built on a single Euler-Maclaurin
Hurwitz-zeta kernel.  The double zeta is reduced to an outer sum of Hurwitz
values; its tail is accelerated by substituting the asymptotic expansion of
the inner Hurwitz zeta in powers of beta m (beta = gamma1/gamma2), which
turns the tail into a finite combination of single Hurwitz values
zeta(s1 + s2 - 1 + p, M + 1).  At s2 = -n exactly the same expansion is
finite and exact (the inner zeta is a Bernoulli polynomial), so it is summed
with no head, over single zetas zeta(s1 - n - 1 + p), and desing2's three
terms there combine into one such sum.  At other points on (or near) the
singular hyperplanes of the terms' routes, the entire combination is
recovered as its mean over a small circle of six nodes around the point
(Cauchy's integral formula, summed by the trapezoid rule).

All arithmetic is double precision; tolerances below are set for it.
"""

import bisect
import cmath
import collections
import functools
import itertools
import math
import sys
from fractions import Fraction

from .coeffs import combination
from .exact import bernoulli_number, bernoulli_polynomial

__all__ = [
    "EvalResult",
    "SingularityReport",
    "SingularPointError",
    "ContinuationReachError",
    "ToleranceError",
    "hurwitz_zeta",
    "riemann_zeta",
    "double_zeta",
    "double_zeta_direct",
    "desing1",
    "desing2",
    "singularity_distance",
]

_GOLDEN = (1 + math.sqrt(5)) / 2

_TAIL_K = 10  # Euler-Maclaurin orders of the double-zeta tail
_REACH = -14  # the tail reaches Re(s1+s2) above this (and its deepest hyperplane)
_S2_REACH = -(2 * _TAIL_K + 1)  # and Re s2 above this, where its last remainder bound exists
_SPAN0 = (2 * _TAIL_K + 2) / (2 * math.pi) + 1  # least |beta| M of the double-zeta head at s2 = 0
_HEAD_MAX = 1000  # longest double-zeta head at s2 = 0; weights needing more are refused
_REACH_REFUSAL = "Re(s1+s2)=%%g and Re s2=%%g beyond continuation reach: the tail " \
    "reaches Re(s1+s2) > %d and Re s2 > %d" % (_REACH, _S2_REACH)
_CIRCLE_NODES = 6  # nodes of desing2's circle mean near the singular hyperplanes
_CIRCLE_RADIUS = 1.0 / 1024  # its radius in the shift w of s + w (1, 1/_GOLDEN)
_HURWITZ_N_MAX = 512  # longest Hurwitz partial sum; no convergence by then is refused
_TAIL_BUDGET = 1e-5  # share of tol that one omitted piece of the double-zeta tail may take
_SHIFT_MAX = 16  # largest numerator and denominator of a weight ratio whose head is recurred
# the Hurwitz kernel's ladder of partial-sum lengths N as (low, N) rungs, adding n in [low, N):
# from N = 0 where Re s < 0.5, otherwise from the first N > |s|/2 (one tuple per start)
_LADDER = (16, 32, 64, 128, 256, _HURWITZ_N_MAX)
_RUNGS = [tuple(zip((0, *_LADDER[i:]), _LADDER[i:])) for i in range(len(_LADDER))]
_RUNGS_FROM_0 = tuple(zip((0, 0, 2, 4, 8, *_LADDER), (0, 2, 4, 8, *_LADDER)))


class EvalResult(collections.namedtuple("EvalResult", "value err_estimate method")):
    """A numeric value, its error estimate and the route that gave it."""

    __slots__ = ()

    def to_json(self):
        return {
            "value": {"re": self.value.real, "im": self.value.imag},
            "err_estimate": self.err_estimate,
            "method": self.method,
        }


class SingularityReport(collections.namedtuple("SingularityReport", "hyperplane distance")):
    """The nearest singular hyperplane of a point and its distance."""

    __slots__ = ()


class SingularPointError(ValueError):
    """The query point is (numerically) on a singular hyperplane."""

    def __init__(self, report):
        super().__init__(
            "point lies on singular hyperplane %s (distance %g)"
            % (report.hyperplane, report.distance)
        )
        self.report = report


class ContinuationReachError(ValueError):
    """The truncated continuation cannot reach the requested point."""


class ToleranceError(ArithmeticError):
    """The requested tolerance could not be met."""


_EM_TABLE = {}  # {k: (B_{2k}/(2k)! as a float, 2k - 1, 2k)}, order k's constants


def _em_order(k):
    """Make order k's entry of _EM_TABLE, read where a subscription misses."""
    value = _EM_TABLE[k] = (float(bernoulli_number(2 * k)) / math.factorial(2 * k), 2 * k - 1, 2 * k)
    return value


def _em_coefficients(s):
    """Yield B_{2k}/(2k)! (s)_{2k-1} for k = 1, 2, ..., multiplying the factors
    (s)(s+1)(s+2)... in from the left, one at a time, as the kernel does."""
    poch = s
    for k in itertools.count(1):
        b, odd, even = _EM_TABLE[k] if k in _EM_TABLE else _em_order(k)
        yield b * poch
        poch = poch * (s + odd) * (s + even)


def _check_inputs(tol, args, weights=()):
    """Raise ValueError for a non-finite argument or weight, for a tol that
    is not a positive number (tol None: nothing to check), or for a weight
    whose real part is not positive."""
    for v in args + weights:
        if not cmath.isfinite(v):
            raise ValueError("arguments and weights must be finite")
    if tol is not None and not tol > 0:
        raise ValueError("tol must be a positive number")
    for g in weights:
        if g.real <= 0:
            raise ValueError("weights must have positive real part")


@functools.lru_cache(maxsize=256)
def hurwitz_zeta(s, a, tol=1e-14):
    """Hurwitz zeta continued in s by Euler-Maclaurin summation.

    Partial sum to N, boundary terms, and Bernoulli corrections, from one
    complex power x^-s per N (x = a + N; each correction's power is the
    last one's times x^-2, its constants read from _EM_TABLE), the partial
    sum carried from one N to the next; N and the correction order are
    raised until the first omitted correction is below tol.  At s = -n and
    real a the value is -B_{n+1}(a)/(n+1).  Requires finite s != 1, finite
    a with Re a > 0, and tol > 0.  Raises ContinuationReachError on
    overflow, on underflow (a tiny a), and where the corrections still
    fail to converge at the longest partial sum (|Im s| > ~2000).  The
    last 256 distinct (s, a, tol) are cached (a pure function of the
    three), so the shifted double zetas of a desing2 combination, which
    share s1 + s2, evaluate each shared value once.
    """
    s = complex(s)
    a = complex(a)
    if tol is None or not (cmath.isfinite(s) and cmath.isfinite(a) and tol > 0):
        _check_inputs(tol, (s, a))  # only where a check fails: the same refusals, less per call
    if s == 1:
        raise SingularPointError(SingularityReport("s=1", 0.0))
    if a.real <= 0:
        raise ValueError("Hurwitz zeta requires Re a > 0")
    try:
        return _hurwitz_kernel(s, a, tol)
    except OverflowError:
        raise ContinuationReachError("Hurwitz zeta overflows double precision at s=%s" % s) from None
    except ZeroDivisionError:  # 1 / 0 in a complex power by an integer: a power of a tiny offset
        raise ContinuationReachError(
            "Hurwitz zeta underflows double precision at s=%s, offset a=%s" % (s, a)) from None


def _hurwitz_kernel(s, a, tol):
    if s.imag == 0 and a.imag == 0 and s.real == round(s.real) and s.real <= 0:
        # exactly integral non-positive s: the value is a Bernoulli polynomial
        # in exact rational arithmetic
        n = int(-s.real)
        out = float(-Fraction(bernoulli_polynomial(n + 1, Fraction(a.real)), n + 1))
        return EvalResult(complex(out), abs(out) * 2e-16 + 1e-300, "bernoulli_polynomial")

    if s.real < 0.5:
        # For Re s < 0 the partial sum grows like (a+N)^{1-Re s}, so a large
        # N destroys the final cancellation in double precision; start from
        # N = 0 and only grow N if the correction series fails to converge.
        rungs = _RUNGS_FROM_0
    else:
        rungs = _RUNGS[min(5, bisect.bisect_right(_LADDER, abs(s) / 2))]  # N > |s|/2
    neg, table = -s, _EM_TABLE
    partial = 0  # the partial sum over n < N, carried up the ladder
    for low, N in rungs:
        for n in range(low, N):
            partial += (a + n) ** neg
        x = a + N
        xs = x ** neg
        power = x * xs  # x^(1-s), then x^(1-s-2k) at correction k
        total = partial + power / (s - 1) + 0.5 * xs
        x_2 = x ** -2
        poch = s  # the rising factorial (s)_(2k-1)
        prev = err = math.inf
        for k in range(1, 40):
            try:
                b, odd, even = table[k]
            except KeyError:  # a plain dict, not __missing__: CPython specialises its subscription
                b, odd, even = _em_order(k)
            power *= x_2
            term = b * poch * power
            mag = abs(term)
            if mag > prev:
                err = mag  # asymptotic series started diverging
                break
            total += term
            if mag < tol or mag < tol * abs(total):  # mag < tol max(1, |total|)
                return EvalResult(total, mag, "euler_maclaurin")
            prev = mag
            poch = poch * (s + odd) * (s + even)
        if not cmath.isfinite(power):  # the powers grow with k where |x| < 1
            raise OverflowError
    if math.isinf(err):  # no correction was small, and none grew
        raise ContinuationReachError(
            "Hurwitz zeta does not converge at s=%s with N <= %d" % (s, _HURWITZ_N_MAX))
    return EvalResult(total, err, "euler_maclaurin")


def riemann_zeta(s):
    """Riemann zeta via the Hurwitz kernel at a = 1 (tol 1e-14)."""
    return hurwitz_zeta(s, 1.0, 1e-14)


def singularity_distance(s1, s2):
    """Distance of (s1, s2) to the singular locus of double_zeta's route:
    s2 = 1 and s1 + s2 in {2, 1, 0, -2, -4, ...}, down to the tail's reach
    _REACH, or at s2 exactly -n to the last pole 1 - n of its zeta(s1 - i)."""
    distance, level = _nearest_singularity(complex(s1), complex(s2))
    return SingularityReport("s2=1" if level is None else "s1+s2=%d" % level, distance)


def _nearest_singularity(s1, s2):
    """(distance, v) of singularity_distance, v the level of s1 + s2 = v or None for s2 = 1."""
    n = _is_nonpositive_int(s2)
    bottom = _REACH if n is None else 1 - n
    best, level = abs(s2 - 1), None
    w = s1 + s2
    # the even level in [bottom, 0] nearest w, the higher one on a tie; 1 again if none
    r = min(0.5, max(bottom, w.real))
    for v in (2, 1, max(bottom, 2 * math.floor((r + 1) / 2))):
        d = abs(w - v) / math.sqrt(2)
        if d < best:
            best, level = d, v
    return best, level


def _is_nonpositive_int(z):
    n = round(z.real)
    return -n if n <= 0 and z == n else None


def double_zeta(s1, s2, gamma1=1.0, gamma2=1.0, tol=1e-10):
    """Generalized Euler-Zagier double zeta, analytically continued.

    A Hurwitz head of about ((|s2| + 22) / (2 pi) + 1) / |gamma1/gamma2|
    terms meets the Euler-Maclaurin tail of order K = _TAIL_K, truncated at
    the first order whose remainder, bounded over every m beyond the head,
    is below _TAIL_BUDGET * tol (a looser tol asks for fewer Hurwitz
    values).  The head takes one kernel evaluation per residue class of a
    rational weight ratio, one per term otherwise.  At s2 exactly -n the
    tail's expansion is exact for every m: there is no head, and the value is a
    finite sum of single zetas, finite off that line's own poles.  On the
    singular hyperplanes (singularity_distance) the point raises
    SingularPointError.  A weight ratio needing over _HEAD_MAX head terms
    even at s2 = 0 (a large |s2| alone is summed; s2 = -n has no head), a
    sum overflowing double precision, a power of the weights underflowing
    it and a point off s2 = -n beyond the tail's reach (Re(s1+s2) > _REACH
    and Re s2 > -(2K + 1)), on a deep hyperplane too, raise
    ContinuationReachError; both are ValueErrors.  The kernel is asked for
    each Hurwitz value at min(tol / 100, 1e-15).
    """
    s1 = complex(s1)
    s2 = complex(s2)
    g1 = complex(gamma1)
    g2 = complex(gamma2)
    _check_inputs(tol, (s1, s2), (g1, g2))
    if _nearest_singularity(s1, s2)[0] < 1e-9:
        raise SingularPointError(singularity_distance(s1, s2))

    if _is_nonpositive_int(s2) is None and not ((s1 + s2).real > _REACH and s2.real > _S2_REACH):
        raise ContinuationReachError(_REACH_REFUSAL % ((s1 + s2).real, s2.real))
    return _in_double_precision(s2, g1, g2, _double_zeta_tail, s1, s2, g1, g2, tol)


def _in_double_precision(s2, g1, g2, route, *args):
    """route(*args); a sum or weight power beyond double precision raises ContinuationReachError."""
    try:
        result = route(*args)
        # a product that overflowed without a ** leaves inf or nan behind
        if not (cmath.isfinite(result.value) and math.isfinite(result.err_estimate)):
            raise OverflowError
        return result
    except OverflowError:
        raise ContinuationReachError(
            "double-zeta head or tail overflows double precision at Re s2=%g with weight ratio "
            "|gamma1/gamma2|=%g" % (s2.real, abs(g1 / g2))
        ) from None
    except ZeroDivisionError:  # a complex power by an integer: 1 / (a power that underflowed)
        raise ContinuationReachError(
            "a weight power underflows double precision at |gamma1|=%g, |gamma2|=%g "
            "(weight ratio |gamma1/gamma2|=%g)" % (abs(g1), abs(g2), abs(g1 / g2))
        ) from None


def _nonzero(power):
    """power; ZeroDivisionError where a weight power underflowed to 0 (by an integer: nan)."""
    if power == 0:
        raise ZeroDivisionError
    return power


def _double_zeta_tail(s1, s2, g1, g2, tol):
    """Hurwitz head m <= M (_head_values: a kernel evaluation per residue
    class of a rational weight ratio, per m otherwise) plus the tail m > M.

    With x = beta m, zeta(s2, 1 + x) ~ x^(1-s2)/(s2-1) - x^(-s2)/2 +
    sum_k c_k x^(1-s2-2k), c_k = B_2k/(2k)! (s2)_(2k-1), so the tail is
    pref sum_p coef_p beta^(1-s2-p) zeta(s1+s2-1+p, M+1) over p = 0, 1, 2,
    4, ..., 2K (the weighted Akiyama-Egami-Tanigawa formula).  Order k is
    omitted, and the expansion stops, at the first k where sigma =
    Re(s1+s2-1+2k) > 1, w = s2+2k-1 has Re w > 0 and the remainder bound
    |c_k pref beta^(1-s2-2k)| (M+1)^-sigma (1 + (M+1)/(sigma-1)) |w|/Re w,
    summed over every m > M, is at most _TAIL_BUDGET * tol; at k = K+1 the
    bound is added whatever its size.  The factor |w|/Re w is the
    Euler-Maclaurin remainder bound on the real axis x > 0; for a complex
    weight ratio beta it is not proven.  At s2 exactly -n the expansion
    equals -B_{n+1}(1+x)/(n+1) for every x > 0, so there is no head
    (M = 0) and it stops at p = n + 1, beyond which every c_k is zero.
    Every Hurwitz value is asked for at min(tol / 100, 1e-15), and a pref
    that underflowed to 0 raises ZeroDivisionError at the end (_nonzero)."""
    n, beta, kernel_tol = _is_nonpositive_int(s2), g1 / g2, min(tol * 1e-2, 1e-15)
    if n is None:
        # Head length: the asymptotic expansion of the inner zeta must be
        # valid at x = beta m for every m > M, |beta| M >= (|s2| + 2K + 2)
        # / (2 pi) + 1.  Keep M as small as that allows: the rounding-noise
        # floor of the head/tail cancellation grows like a power of M, and
        # it dominates the error at deeply negative weights.
        if abs(beta) * _HEAD_MAX < _SPAN0:  # _SPAN0: that bound at s2 = 0
            raise ContinuationReachError(
                "double-zeta head longer than %d terms even at s2 = 0: weight "
                "ratio |gamma1/gamma2|=%g too small" % (_HEAD_MAX, abs(beta))
            )
        M = max(8, int(math.ceil((_SPAN0 + abs(s2) / (2 * math.pi)) / abs(beta))))
        top = 2 * _TAIL_K + 2
    else:
        s2, M, top = complex(-n), 0, n + 1
    neg1, g2_s2 = -s1, g2 ** (-s2)
    pref = g1 ** neg1 * g2_s2

    head = 0j
    err = 0.0
    for m, value, value_err in _head_values(s2, beta, M, kernel_tol):
        weight = (m * g1) ** neg1 * g2_s2
        head += weight * value
        err += abs(weight) * value_err

    base, one_s2, a = s1 + s2 - 1, 1 - s2, M + 1
    budget = _TAIL_BUDGET * tol
    tail = 0j
    orders = (0, 1, *range(2, top + 1, 2))
    coefs = itertools.chain((1 / (s2 - 1), -0.5), _em_coefficients(s2))
    for p, c in zip(orders, coefs):
        power = beta ** (one_s2 - p)  # each order's own power: none passes an underflow
        if not cmath.isfinite(power):
            raise OverflowError
        coeff = c * power
        scale = abs(pref * coeff)
        sigma = base.real + p
        w = s2 + p - 1
        if p > 1 and sigma > 1 and w.real > 0:
            bound = scale * a ** -sigma * (1 + a / (sigma - 1)) * abs(w) / w.real
            if bound <= budget or p > 2 * _TAIL_K:
                err += bound
                break
        value, value_err, _ = hurwitz_zeta(base + p, a, kernel_tol)
        tail += coeff * value
        err += scale * value_err
    return EvalResult(head + _nonzero(pref) * tail, err, "euler_maclaurin")


def _head_values(s2, beta, M, tol):
    """Yield (m, zeta(s2, 1 + beta m), its error estimate) for m = 1..M.

    A real beta within 4 ulps of p/q, q < M and p <= _SHIFT_MAX, takes one
    kernel evaluation per residue class of m mod q; the class's other
    offsets lie p apart and follow by zeta(s, a + 1) = zeta(s, a) - a^-s,
    forward from its smallest where Re s2 < 1 (the values grow with a
    there, so nothing cancels; each is yielded at once), backward from its
    largest otherwise (held, then yielded from m = 1).  The sums carry
    TwoSum compensation; the estimate is the class start's plus u times
    the sum of |a^-s2| applied so far.  Any other beta runs the same loop
    with q = M + 1: every m is its own class, one kernel evaluation each.
    """
    p, q = _weight_ratio(beta.real)
    if beta.imag or q >= M or p > _SHIFT_MAX or abs(beta.real - p / q) > 4 * math.ulp(beta.real):
        q = M + 1
    sign = -1 if s2.real < 1 else 1  # forward subtracts the powers, backward adds them
    neg = -s2
    classes = [None] * q  # (offset, value, compensation, error) per class
    found = []  # backward values, held from m = M down
    for m in range(1, M + 1) if sign < 0 else range(M, 0, -1):
        state = classes[m % q]
        if state is None:
            a, comp = 1 + beta * m, 0j
            value, err, _ = hurwitz_zeta(s2, a, tol)
        else:
            a, value, comp, err = state
            low = a if sign < 0 else a - p  # the lowest offset of this step
            for i in range(p):
                t = sign * (low + i) ** neg
                total = value + t  # TwoSum: exact in each component
                back = total - value
                comp += (value - (total - back)) + (t - back)
                value = total
                err += abs(t) * 2.0**-53  # u, the unit roundoff
            a = low + p if sign < 0 else low
        classes[m % q] = a, value, comp, err
        if sign < 0:
            yield m, value + comp, err
        else:
            found.append((m, value + comp, err))
    yield from reversed(found)


@functools.lru_cache(maxsize=64)
def _weight_ratio(beta):
    """The fraction p/q nearest the real beta with q <= _SHIFT_MAX, once per beta."""
    return Fraction(beta).limit_denominator(_SHIFT_MAX).as_integer_ratio()


def double_zeta_direct(s1, s2, gamma1=1.0, gamma2=1.0):
    """Brute-force double sum in the absolutely convergent region.

    Independent oracle: inner sums are truncated with an integral-bracket
    midpoint tail, never touching the Euler-Maclaurin machinery.  The outer
    sum stops once the integral bound on its dropped tail is below 1e-13 of
    the sum.  The tail past N lies in [int_{N+1} f + f(N+1)/2, int_{N+1/2} f],
    below the midpoint, for convex decreasing f (real s2 and weights): the
    estimate adds the distance to the far end times |(m gamma1)^-s1|.
    """
    m_max, n_tail = 2000, 400  # most outer terms summed, inner terms before the bracket
    s1 = complex(s1)
    s2 = complex(s2)
    g1 = complex(gamma1)
    g2 = complex(gamma2)
    if s2.real <= 1 or (s1 + s2).real <= 2:
        raise ValueError("direct summation requires the convergent region")
    w = (s1 + s2).real - 1  # outer terms decay like m^-w, w > 1: an integral bounds their tail
    total, brackets = 0j, 0.0  # the sum, and its brackets' weighted error bounds
    for m in range(1, m_max + 1):
        inner = 0j
        base = m * g1
        for n in range(1, n_tail + 1):
            inner += (base + n * g2) ** (-s2)
        # bracket sum_{n > n_tail} f(n) between the two integrals and take the midpoint
        edge = base + n_tail * g2
        upper = edge ** (1 - s2) / ((s2 - 1) * g2)
        lower = (edge + g2) ** (1 - s2) / ((s2 - 1) * g2)
        inner += (upper + lower) / 2
        weight = base ** (-s1)
        term = weight * inner
        total += term
        brackets += abs(weight * (upper - lower - lower * (s2 - 1) * g2 / (edge + g2))) / 2
        err = abs(term) * m / (w - 1)
        if err <= 1e-13 * abs(total):
            break
    return EvalResult(total, err + brackets, "direct_sum")


def _naming_point(exc, *s):
    """A ContinuationReachError naming the point s the caller asked for in
    front of the refusal exc from beneath, which is raised as its cause."""
    point = ", ".join(str(z).strip("()") for z in s)
    return ContinuationReachError("cannot reach s=(%s): %s" % (point, exc))


def desing1(s, gamma=1.0):
    """Desingularized single zeta with weight gamma: (1 - s) gamma^{-s}
    zeta(s), entire; -1/gamma, its value to double precision, where 1/(s - 1)
    overflows.  The estimate is the kernel's, scaled, plus u |value| (8 + |s log
    gamma|), u = 2^-53, for gamma^{-s} and the two complex products (u |value|
    for -1/gamma), but not the kernel's rounding at Re s < 0 (ROADMAP 1(d):
    (-3.3, 1.5) is off by 2.6e-13 at 5e-14).  A weight power gamma^{-s} (or
    value) beyond double precision raises ContinuationReachError."""
    s = complex(s)
    g = complex(gamma)
    _check_inputs(None, (s,), (g,))
    try:
        if abs(s - 1) < 1 / sys.float_info.max:
            value = -1.0 / g
            result = EvalResult(value, abs(value) * 2.0**-53, "polynomial_reduction")
        else:
            value, err, method = riemann_zeta(s)
            w = _nonzero(g ** (-s))  # applied last: (1 - s) w alone can underflow near s = 1
            value = (1 - s) * value * w
            rounding = abs(value) * (8 + abs(s * cmath.log(g))) * 2.0**-53
            result = EvalResult(value, abs(1 - s) * err * abs(w) + rounding, method)
        # a product that overflowed without a ** leaves inf or nan behind
        if not (cmath.isfinite(result.value) and math.isfinite(result.err_estimate)):
            raise OverflowError
    except (OverflowError, ZeroDivisionError):  # 1 / (an integer power that underflowed)
        exc = ContinuationReachError(
            "the weight power gamma^-s leaves double precision at |gamma|=%g" % abs(g))
        raise _naming_point(exc, s) from exc
    except ContinuationReachError as exc:
        raise _naming_point(exc, s) from exc
    return result


def _desing2_combination(s1, s2, g1, g2, tol):
    """The combination, each term summed as double_zeta sums it; None where
    a shift is within 1e-6 of its locus or beyond the tail's reach.  The
    shifts keep s1 + s2, so hurwitz_zeta's cache shares their values."""
    terms = list(combination(2).terms((s1, s2)))
    for _, (a1, a2) in terms:  # within the tail's reach, as in double_zeta, and off the loci
        if not ((a1 + a2).real > _REACH and a2.real > _S2_REACH
                and _nearest_singularity(a1, a2)[0] >= 1e-6):
            return None
    total, err = 0j, 0.0
    for c, (a1, a2) in terms:
        z = _in_double_precision(a2, g1, g2, _double_zeta_tail, a1, a2, g1, g2, tol)
        total += c * z.value
        err += abs(c) * z.err_estimate
    return EvalResult(total, err, "euler_maclaurin")


def desing2(s1, s2, gamma1=1.0, gamma2=1.0, tol=1e-9):
    """Desingularized double zeta via the entire three-term combination.

    Where s2 is exactly -n the combination is one finite sum
    (_desing2_tail).  Elsewhere, at least 1e-6 from the terms' singular
    hyperplanes, its three terms are summed directly; nearer, the entire
    combination is averaged over _CIRCLE_NODES = 6 nodes s + w (1,
    1/golden_ratio), w on the circle of radius 1/1024 about 0 (method
    "extrapolated"); that estimate is the distance to the mean over every
    other node, and leaves out the nodes' own estimates.  A node beyond
    the tail's reach raises ToleranceError.  tol sets how far each term's
    tail expansion is carried; on the line it sets the kernel's tol.
    """
    s1 = complex(s1)
    s2 = complex(s2)
    g1 = complex(gamma1)
    g2 = complex(gamma2)
    _check_inputs(tol, (s1, s2), (g1, g2))
    try:
        return _desing2_at(s1, s2, g1, g2, tol)
    except ContinuationReachError as exc:
        raise _naming_point(exc, s1, s2) from exc


def _desing2_at(s1, s2, g1, g2, tol):
    n = _is_nonpositive_int(s2)
    if n is not None:
        return _in_double_precision(s2, g1, g2, _desing2_tail, s1, n, g1, g2, tol)
    direct = _desing2_combination(s1, s2, g1, g2, tol)
    if direct is not None:
        return direct

    # the trapezoid rule on a circle converges geometrically to the mean,
    # which is the value at its centre (Cauchy's integral formula)
    totals = []
    for j in range(_CIRCLE_NODES):
        w = _CIRCLE_RADIUS * cmath.exp(2j * math.pi * j / _CIRCLE_NODES)
        node = _desing2_combination(s1 + w, s2 + w / _GOLDEN, g1, g2, tol)
        if node is None:
            # the nodes keep about the radius from every hyperplane near the point
            raise ToleranceError(_REACH_REFUSAL % ((s1 + s2).real, s2.real))
        totals.append(node.value)
    value = sum(totals) / _CIRCLE_NODES
    half = sum(totals[::2]) / (_CIRCLE_NODES // 2)
    return EvalResult(value, abs(value - half), "extrapolated")


def _desing2_tail(s1, n, g1, g2, tol):
    """desing2 at s2 = -n: ROADMAP item 11's tail with no head (M = 0).  The
    shifts keep s1 + s2, so the terms' tails combine order by order into
    pref sum_p p coef_p(s2) beta^(1-s2-p) (1 - w_p) zeta(w_p, M + 1) over
    p = 1, 2, 4, ..., n + 1, w_p = s1 + s2 - 1 + p; (1 - w) zeta(w, a) is -1
    at w = 1.  The estimate: the kernel's, scaled, plus u = 2^-53 times the
    sum of |partial sums| (Higham 3.3) and of 8 |term| (its products)."""
    s2, M = complex(-n), 0
    beta, base, kernel_tol = g1 / g2, s1 + s2 - 1, min(tol * 1e-2, 1e-15)
    pref = g1 ** (-s1) * g2 ** (-s2)
    total, err, rounding = 0j, 0.0, 0.0
    for p, c in zip((1, *range(2, n + 2, 2)), itertools.chain((-0.5,), _em_coefficients(s2))):
        coeff = p * c * beta ** (1 - s2 - p)
        w = base + p
        if w == 1:
            value, value_err = -1.0, 0.0
        else:
            value, value_err, _ = hurwitz_zeta(w, M + 1, kernel_tol)
            value, value_err = (1 - w) * value, abs(1 - w) * value_err
        term = coeff * value
        total += term
        err += abs(coeff) * value_err
        rounding += abs(total) + 8 * abs(term)
    return EvalResult(_nonzero(pref) * total, abs(pref) * (err + rounding * 2.0**-53),
                      "euler_maclaurin")
